"""Tests for sharded fleet save/load (repro.core.persist, ISSUE 5)."""

import dataclasses
import math
import shutil
import zipfile

import numpy as np
import pytest

from repro.core.janus import JanusConfig
from repro.core.persist import (load_sharded, load_synopsis, save_sharded,
                                save_synopsis)
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi

ALL_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
            AggFunc.MAX, AggFunc.VARIANCE, AggFunc.STDDEV)


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=16_000, seed=1)


def build(ds, sharding="hash", n_shards=3):
    sharded = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=n_shards,
        config=JanusConfig(k=8, sample_rate=0.04, check_every=10 ** 9,
                           repartition_every=50_000, seed=0),
        sharding=sharding)
    sharded.insert_many(ds.data[:10_000])
    sharded.initialize()
    sharded.delete_many(list(range(500, 900)))
    return sharded


def workload(ds, n=28):
    rng = np.random.default_rng(2)
    queries = []
    for i in range(n):
        lo, hi = sorted(rng.uniform(0, 500, 2))
        queries.append(Query(ALL_AGGS[i % len(ALL_AGGS)], ds.agg_attr,
                             ds.predicate_attrs,
                             Rectangle((lo,), (hi,))))
    return queries


class TestRoundtrip:
    @pytest.mark.parametrize("sharding", ["hash", "attr"])
    def test_answers_identical_after_reload(self, ds, tmp_path,
                                            sharding):
        sharded = build(ds, sharding=sharding)
        queries = workload(ds)
        before = sharded.query_many(queries)
        save_sharded(sharded, tmp_path / "fleet")
        restored = load_sharded(tmp_path / "fleet")
        after = restored.query_many(queries)
        # same convention as tests/test_persist.py: the pool index and
        # leaf caches are rebuilt on load, so float summation order can
        # differ by an ulp
        for b, a in zip(before, after):
            if math.isnan(b.estimate):
                assert math.isnan(a.estimate)
            else:
                assert a.estimate == pytest.approx(b.estimate,
                                                   rel=1e-12)
            assert a.variance == pytest.approx(b.variance, rel=1e-12)
            assert a.exact == b.exact
        sharded.close()
        restored.close()

    def test_archived_table_loads_over_kept_bounds(self, ds, tmp_path):
        """A table whose domain was read before an archive is loaded
        into it reports the archive's domain, not the stale one."""
        sharded = build(ds)
        save_sharded(sharded, tmp_path / "fleet")
        with np.load(tmp_path / "fleet" / "manifest.npz") as archive:
            tids, rows = archive["table1_tids"], archive["table1_rows"]
        table = Table(ds.schema)
        table.insert_many(ds.data[10_000:] * 100.0)
        for attr in ds.schema:
            table.domain(attr)
        table.restore(tids, rows, int(tids.max()) + 1)
        for j, attr in enumerate(ds.schema):
            assert table.domain(attr) == (rows[:, j].min(),
                                          rows[:, j].max())
            assert table.domain(attr) == \
                sharded.tables[1].domain(attr)
        sharded.close()

    def test_manifest_restores_coordinator_state(self, ds, tmp_path):
        sharded = build(ds, sharding="attr")
        save_sharded(sharded, tmp_path / "fleet")
        restored = load_sharded(tmp_path / "fleet")
        assert restored.sharding == "attr"
        assert restored.route_attr == sharded.route_attr
        np.testing.assert_array_equal(restored.attr_bounds,
                                      sharded.attr_bounds)
        assert restored.n_shards == sharded.n_shards
        assert restored._placement.next_tid == sharded._placement.next_tid
        assert restored.shard_sizes() == sharded.shard_sizes()
        for got, want in zip(restored._placement.state_arrays(),
                             sharded._placement.state_arrays()):
            np.testing.assert_array_equal(got, want)
        sharded.close()
        restored.close()

    def test_updates_continue_with_stable_global_tids(self, ds,
                                                      tmp_path):
        sharded = build(ds)
        save_sharded(sharded, tmp_path / "fleet")
        next_tid = sharded._placement.next_tid
        restored = load_sharded(tmp_path / "fleet")
        tids = restored.insert_many(ds.data[10_000:10_500])
        assert tids[0] == next_tid              # tid counter preserved
        restored.delete_many(tids[:100])
        query = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                      Rectangle((-math.inf,), (math.inf,)))
        truth = restored.ground_truth(query)
        assert truth == len(restored)
        assert abs(restored.query(query).estimate - truth) / truth < 0.05
        sharded.close()
        restored.close()

    def test_reoptimize_after_reload(self, ds, tmp_path):
        sharded = build(ds)
        save_sharded(sharded, tmp_path / "fleet")
        restored = load_sharded(tmp_path / "fleet")
        reports = restored.reoptimize()
        assert all(r is not None for r in reports)
        query = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                      Rectangle((50.0,), (400.0,)))
        truth = restored.ground_truth(query)
        assert abs(restored.query(query).estimate - truth) / truth < 0.1
        sharded.close()
        restored.close()

    def test_uninitialized_shards_survive(self, ds, tmp_path):
        # a first batch with one routing value strikes every attr cut
        # there: its rows all land on the last shard, the rest see none
        sharded = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=4,
            config=JanusConfig(k=8, sample_rate=0.04,
                               check_every=10 ** 9, seed=0),
            sharding="attr")
        col = ds.schema.index(ds.predicate_attrs[0])
        seed = ds.data[:3_000].copy()
        seed[:, col] = ds.data[:, col].max() + 1.0
        sharded.insert_many(seed)
        sharded.initialize()
        assert [s.dpt is None for s in sharded.shards] == \
            [True, True, True, False]
        save_sharded(sharded, tmp_path / "fleet")
        restored = load_sharded(tmp_path / "fleet")
        assert [s.dpt is None for s in restored.shards] == \
            [True, True, True, False]
        assert len(restored) == 3_000
        # a lazy shard still comes up on first insert: these rows all
        # fall below the cuts, onto shard 0
        restored.insert_many(ds.data[3_000:3_064])
        assert restored.shard_sizes() == [64, 0, 0, 3_000]
        assert restored.shards[0].dpt is not None
        sharded.close()
        restored.close()

    def test_warm_start_serves_http(self, ds, tmp_path):
        from repro.service import ServiceClient, serve_background
        sharded = build(ds)
        expected = sharded.query_many(workload(ds, n=5))
        save_sharded(sharded, tmp_path / "fleet")
        sharded.close()
        restored = load_sharded(tmp_path / "fleet")
        with serve_background(restored, port=0,
                              cache_enabled=False) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                served = client.query_many(workload(ds, n=5))
        for got, want in zip(served, expected):
            assert got.estimate == pytest.approx(want.estimate,
                                                 rel=1e-12)
        restored.close()


class TestValidation:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sharded(tmp_path / "nowhere")

    def test_inconsistent_tid_maps_rejected_not_torn(self, ds,
                                                     tmp_path):
        """Rows the coordinator maps don't cover (an ingest caught
        mid-flight) must fail the save loudly, never write a torn
        snapshot."""
        sharded = build(ds, n_shards=2)
        # simulate an insert past tid assignment but before the map
        # write: the shard table has a row the maps know nothing about
        sharded.tables[0].insert(ds.data[0])
        with pytest.raises(RuntimeError, match="quiesce"):
            save_sharded(sharded, tmp_path / "fleet")
        assert not (tmp_path / "fleet" / "manifest.npz").exists()
        sharded.close()

    @staticmethod
    def rewrite_manifest(path, drop=(), **changes):
        import json
        manifest = path / "manifest.npz"
        with np.load(manifest, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files
                      if not k.startswith(tuple(drop))}
        meta = json.loads(str(arrays["meta"]))
        meta.update(changes)
        arrays["meta"] = json.dumps(meta)
        np.savez_compressed(manifest, **arrays)

    def test_version_mismatch_rejected(self, ds, tmp_path):
        sharded = build(ds, n_shards=2)
        save_sharded(sharded, tmp_path / "fleet")
        sharded.close()
        self.rewrite_manifest(tmp_path / "fleet", version=999)
        with pytest.raises(ValueError, match="version"):
            load_sharded(tmp_path / "fleet")

    def test_v1_manifest_loads_with_rebuilt_summaries(self, ds, tmp_path):
        """A pre-router (v1) manifest has no summaries: ``load_sharded``
        rebuilds them exactly; a worker fleet refuses it up front."""
        from repro.service.fleet import FleetCoordinator
        sharded = build(ds, n_shards=2)
        queries = workload(ds)
        want = sharded.query_many(queries)
        save_sharded(sharded, tmp_path / "fleet")
        self.rewrite_manifest(tmp_path / "fleet", version=1,
                              drop=("summary", "attr_bounds"))
        restored = load_sharded(tmp_path / "fleet")
        for s in range(2):
            a, b = sharded.summaries[s], restored.summaries[s]
            assert a.n_live == b.n_live
            np.testing.assert_array_equal(a.lo, b.lo)
        for w, g in zip(want, restored.query_many(queries)):
            assert g.estimate == pytest.approx(w.estimate, rel=1e-12,
                                               nan_ok=True)
            assert g.exact == w.exact
        with pytest.raises(ValueError, match="v2"):
            FleetCoordinator(tmp_path / "fleet")
        sharded.close()
        restored.close()

    def test_snapshots_of_earlier_builds(self, ds, tmp_path):
        """A manifest carrying the ``range_block`` key earlier builds
        wrote loads and answers bit-identically to the saved engine;
        one placed by tid stripes (``sharding="range"``) is refused by
        name on every load path, before any shard or worker is built."""
        from repro.core.persist import load_shard
        from repro.service.fleet import FleetCoordinator
        # No deletes: after them a reload can move the last digit
        # (see test_answers_identical_after_reload).
        sharded = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=3,
            config=JanusConfig(k=8, sample_rate=0.04, seed=0))
        sharded.insert_many(ds.data[:10_000])
        sharded.initialize()
        queries = workload(ds)
        fleet = tmp_path / "fleet"
        save_sharded(sharded, fleet)
        self.rewrite_manifest(fleet, range_block=8192)
        restored = load_sharded(fleet)
        for got, want in zip(restored.query_many(queries),
                             sharded.query_many(queries)):
            assert repr(dataclasses.astuple(got)[:6]) == \
                repr(dataclasses.astuple(want)[:6])
        sharded.close()
        restored.close()
        self.rewrite_manifest(fleet, sharding="range")
        for load in (load_sharded, lambda d: load_shard(d, 0),
                     FleetCoordinator):
            with pytest.raises(ValueError, match="range"):
                load(fleet)


class TestStorage:
    def test_floats_are_stored_and_the_rest_deflated(self, ds, tmp_path):
        sharded = build(ds)
        save_sharded(sharded, tmp_path / "fleet")
        sharded.close()
        for path in sorted((tmp_path / "fleet").iterdir()):
            with zipfile.ZipFile(path) as members, np.load(path) as arrays:
                for info in members.infolist():
                    kind = arrays[info.filename[:-len(".npy")]].dtype.kind
                    assert info.compress_type == (
                        zipfile.ZIP_STORED if kind == "f"
                        else zipfile.ZIP_DEFLATED), (path.name, info)

    def test_fully_deflated_archives_still_load(self, ds, tmp_path):
        """A single-engine archive and a sharded snapshot that
        ``np.savez_compressed`` wrote, as earlier builds did, answer as
        the archives this build writes of the same engines."""
        sharded = build(ds)
        save_sharded(sharded, tmp_path / "new")
        save_synopsis(sharded.shards[1], str(tmp_path / "new" / "solo.npz"))
        shutil.copytree(tmp_path / "new", tmp_path / "old")
        for path in (tmp_path / "old").iterdir():
            with np.load(path) as archive:
                arrays = dict(archive)
            np.savez_compressed(path, **arrays)
        queries = workload(ds)
        answers = {}
        for name in ("new", "old"):
            restored = load_sharded(tmp_path / name)
            solo = load_synopsis(str(tmp_path / name / "solo.npz"),
                                 sharded.tables[1])
            answers[name] = [repr(r) for r in restored.query_many(queries)
                             + solo.query_many(queries)]
            restored.close()
        assert answers["old"] == answers["new"]
        sharded.close()
