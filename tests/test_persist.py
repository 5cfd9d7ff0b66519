"""Tests for synopsis save/load (repro.core.persist)."""

import math

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.node import NodeTable
from repro.core.persist import load_synopsis, save_synopsis
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi


@pytest.fixture
def world(tmp_path):
    ds = nyc_taxi(n=15_000, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:12_000])
    cfg = JanusConfig(k=16, sample_rate=0.03, catchup_rate=0.10,
                      check_every=10 ** 9, seed=0)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    path = str(tmp_path / "synopsis.npz")
    return janus, table, ds, path


def workload(ds, n=30):
    rng = np.random.default_rng(5)
    out = []
    for _ in range(n):
        lo = rng.uniform(0, 500)
        out.append(Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                         Rectangle((lo,), (lo + rng.uniform(50, 200),))))
    return out


class TestRoundtrip:
    def test_estimates_identical_after_reload(self, world):
        janus, table, ds, path = world
        queries = workload(ds)
        before = [janus.query(q).estimate for q in queries]
        save_synopsis(janus, path)
        restored = load_synopsis(path, table)
        after = [restored.query(q).estimate for q in queries]
        assert after == pytest.approx(before, rel=1e-12)

    def test_variances_identical(self, world):
        janus, table, ds, path = world
        queries = workload(ds, n=10)
        before = [janus.query(q).variance for q in queries]
        save_synopsis(janus, path)
        restored = load_synopsis(path, table)
        after = [restored.query(q).variance for q in queries]
        assert after == pytest.approx(before, rel=1e-12)

    def test_all_aggregates_survive(self, world):
        janus, table, ds, path = world
        save_synopsis(janus, path)
        restored = load_synopsis(path, table)
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        for agg in (AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX,
                    AggFunc.STDDEV):
            qq = q.with_agg(agg)
            assert restored.query(qq).estimate == pytest.approx(
                janus.query(qq).estimate, rel=1e-9)

    def test_updates_continue_after_reload(self, world):
        janus, table, ds, path = world
        save_synopsis(janus, path)
        restored = load_synopsis(path, table)
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        before = restored.query(q).estimate
        for row in ds.data[12_000:12_500]:
            restored.insert(row)
        assert restored.query(q).estimate == pytest.approx(before + 500,
                                                           rel=0.01)

    def test_reoptimize_after_reload(self, world):
        janus, table, ds, path = world
        save_synopsis(janus, path)
        restored = load_synopsis(path, table)
        report = restored.reoptimize()
        assert report.total_seconds > 0
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        truth = table.ground_truth(q)
        assert abs(restored.query(q).estimate - truth) / truth < 0.05


class TestValidation:
    def test_uninitialized_save_rejected(self, world, tmp_path):
        _, table, ds, _ = world
        fresh = JanusAQP(table, ds.agg_attr, ds.predicate_attrs)
        with pytest.raises(RuntimeError):
            save_synopsis(fresh, str(tmp_path / "x.npz"))

    def test_schema_mismatch_rejected(self, world, tmp_path):
        janus, table, ds, path = world
        save_synopsis(janus, path)
        other = Table(("a", "b"))
        other.insert((1.0, 2.0))
        with pytest.raises(ValueError):
            load_synopsis(path, other)

    def test_pool_members_deleted_from_table_are_dropped(self, world):
        janus, table, ds, path = world
        save_synopsis(janus, path)
        victims = [t for t in janus.reservoir.tids()][:5]
        for tid in victims:
            table.delete(tid)
        restored = load_synopsis(path, table)
        for tid in victims:
            assert tid not in restored.reservoir
        # still answers queries
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((100.0,), (400.0,)))
        assert np.isfinite(restored.query(q).estimate)


# ---------------------------------------------------------------------- #
# archive format pins (PR 18: the node table is handed off, not copied
# node by node - the archive itself must not change)
# ---------------------------------------------------------------------- #
#: Every key ``save_synopsis`` wrote before the node table, with the
#: dtype and rank of its array (frozen; sketch blobs ride beside these).
FROZEN_KEYS = {
    "meta": ("U", 0), "parent": ("i8", 1), "rect_lo": ("f8", 2),
    "rect_hi": ("f8", 2), "h": ("f8", 1), "delta_count": ("i8", 1),
    "base_count": ("i8", 1), "exact": ("b1", 1), "csum": ("f8", 2),
    "csumsq": ("f8", 2), "cmin": ("f8", 2), "cmax": ("f8", 2),
    "dsum": ("f8", 2), "dsumsq": ("f8", 2), "bsum": ("f8", 2),
    "bsumsq": ("f8", 2), "pool_tids": ("i8", 1), "pool_rows": ("f8", 2),
}


def frozen_node_arrays(janus):
    """The per-node gather ``_synopsis_payload`` ran before PR 18, over
    the tree's nodes in row order: one fresh array per field, filled
    node by node."""
    dpt = janus.dpt
    table = dpt.table
    nodes = dpt.nodes()
    index_of = {node.node_id: i for i, node in enumerate(nodes)}
    n = len(nodes)
    d = len(dpt.predicate_attrs)
    s = len(dpt.stat_attrs)
    parent = np.full(n, -1, dtype=np.int64)
    rect_lo = np.empty((n, d))
    rect_hi = np.empty((n, d))
    h = np.empty(n)
    delta_count = np.empty(n, dtype=np.int64)
    base_count = np.empty(n, dtype=np.int64)
    exact = np.zeros(n, dtype=bool)
    csum = np.empty((n, s))
    csumsq = np.empty((n, s))
    cmin = np.empty((n, s))
    cmax = np.empty((n, s))
    dsum = np.empty((n, s))
    dsumsq = np.empty((n, s))
    bsum = np.empty((n, s))
    bsumsq = np.empty((n, s))
    for i, node in enumerate(nodes):
        up, row = dpt.parent(node), node.row
        if up is not None:
            parent[i] = index_of[up.node_id]
        rect_lo[i] = node.rect.lo
        rect_hi[i] = node.rect.hi
        h[i] = table.h[row]
        delta_count[i] = table.delta_count[row]
        base_count[i] = table.base_count[row]
        exact[i] = table.exact[row]
        csum[i], csumsq[i] = table.csum[row], table.csumsq[row]
        cmin[i], cmax[i] = table.cmin[row], table.cmax[row]
        dsum[i], dsumsq[i] = table.dsum[row], table.dsumsq[row]
        bsum[i], bsumsq[i] = table.bsum[row], table.bsumsq[row]
    return dict(parent=parent, rect_lo=rect_lo, rect_hi=rect_hi, h=h,
                delta_count=delta_count, base_count=base_count,
                exact=exact, csum=csum, csumsq=csumsq, cmin=cmin,
                cmax=cmax, dsum=dsum, dsumsq=dsumsq, bsum=bsum,
                bsumsq=bsumsq)


def churn(janus, ds):
    """Deltas, deletes and a partial re-partition: every field of the
    node table non-trivial, and a spliced subtree with fresh ids."""
    from repro.core.repartition import partial_repartition
    janus.insert_many(ds.data[12_000:13_000])
    janus.delete_many([int(t) for t in janus.table.live_tids()[:300]])
    partial_repartition(janus, janus.dpt.leaves[3], psi=2)
    janus.insert_many(ds.data[13_000:13_400])


class TestArchiveFormat:
    def test_key_set_dtypes_and_shapes_are_frozen(self, world):
        janus, table, ds, path = world
        churn(janus, ds)
        save_synopsis(janus, path)
        n = len(list(janus.dpt.nodes()))
        with np.load(path, allow_pickle=False) as archive:
            assert list(archive.keys()) == list(FROZEN_KEYS)
            for key, (kind, ndim) in FROZEN_KEYS.items():
                arr = archive[key]
                assert arr.dtype.str.lstrip("<|=").startswith(kind), key
                assert arr.ndim == ndim, key
                if key not in ("meta", "pool_tids", "pool_rows"):
                    assert arr.shape[0] == n, key

    def test_payload_equals_the_frozen_per_node_writer(self, world):
        from repro.core.persist import _synopsis_payload
        janus, table, ds, path = world
        churn(janus, ds)
        payload = _synopsis_payload(janus)
        for key, old in frozen_node_arrays(janus).items():
            new = payload[key]
            assert new.dtype == old.dtype and new.shape == old.shape, key
            assert new.tobytes() == old.tobytes(), key
            # fresh arrays: compression runs after the lock is released
            assert not np.shares_memory(new, getattr(
                janus.dpt.table, key, np.empty(0)))

    def test_archive_from_the_frozen_writer_loads_bit_identically(
            self, world):
        """An archive whose node arrays come from the pre-PR-18 writer
        restores to the same node table and the same answers."""
        from repro.core.persist import _synopsis_payload
        janus, table, ds, path = world
        churn(janus, ds)
        payload = _synopsis_payload(janus)
        payload.update(frozen_node_arrays(janus))
        np.savez_compressed(path, **payload)
        restored = load_synopsis(path, table)
        live, back = janus.dpt.table, restored.dpt.table
        for field in NodeTable.FIELDS:
            assert getattr(live, field).tobytes() == \
                getattr(back, field).tobytes(), field
        assert [n.rect for n in janus.dpt.nodes()] == \
            [n.rect for n in restored.dpt.nodes()]

        def heaps(t):
            return {p: [[(top.values(), top.exact) for top in heap.tops]
                        for heap in pair] for p, pair in t.columns.items()}
        assert heaps(back) == heaps(live)
        # same answers as an archive today's writer produced (the pool
        # re-files its leaf blocks on load, so the live engine itself
        # only agrees to the last few bits)
        save_synopsis(janus, path)
        twin = load_synopsis(path, table)
        queries = [q.with_agg(agg) for q in workload(ds, n=12)
                   for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG,
                               AggFunc.MIN, AggFunc.MAX, AggFunc.STDDEV)]
        answers = restored.query_many(queries)
        assert [repr(r) for r in answers] == \
            [repr(r) for r in twin.query_many(queries)]
        assert [r.estimate for r in answers] == pytest.approx(
            [r.estimate for r in janus.query_many(queries)], rel=1e-12)
        # ... and the restored tree keeps ingesting in step
        more = ds.data[13_400:13_600]
        janus.dpt.insert_rows(more)
        restored.dpt.insert_rows(more)
        assert restored.dpt.table.dsum.tobytes() == \
            janus.dpt.table.dsum.tobytes()

    def test_reload_keeps_the_live_frontier_order(self, world):
        """Save -> load after a partial re-partition lists every node's
        children in the live order, so each probe's covered and partial
        nodes - the order its float sums accumulate in - come back as
        they were (a spliced subtree used to reload mirrored)."""
        janus, table, ds, path = world
        churn(janus, ds)
        save_synopsis(janus, path)
        restored = load_synopsis(path, table)

        def frontiers(dpt):
            return [[[dpt.node(row).rect for row in rows]
                     for rows in dpt.frontier(q.rect)]
                    for q in workload(ds, n=60)]
        assert frontiers(restored.dpt) == frontiers(janus.dpt)
        assert [leaf.rect for leaf in restored.dpt.leaves] == \
            [leaf.rect for leaf in janus.dpt.leaves]
