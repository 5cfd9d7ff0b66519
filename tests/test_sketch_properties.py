"""Property tests for the sketch-backed aggregates (PR 9 tentpole).

Four layers of guarantees, all resting on one design decision: sketch
state is a pure function of the live value multiset, so any history
(any shard split, any merge order, any insert/delete interleaving)
that ends at the same multiset ends at byte-identical canonical blobs.

* **Merge algebra** - commutativity, associativity and
  split-independence of :meth:`CountedSketch.merge_in`, plus exact
  delete inverses, as hypothesis properties over random streams.
* **Serialization** - ``to_bytes``/``from_bytes`` round-trips are
  idempotent and canonical for both kinds.
* **Identity** - a sharded engine answers every sketch aggregate
  bit-identically (estimate, exactness, and the blob itself) to a
  single engine fed the same stream, through interleaved
  insert/delete/reoptimize, through ``save_sharded``/``load_sharded``,
  and through the process fleet's wire protocol.
* **Accuracy** - estimates stay within each sketch's own pinned bound
  against the exact ground truth.
"""

import json
import math
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.merge import merge_results
from repro.core.persist import (load_sharded, load_synopsis, save_sharded,
                                save_synopsis)
from repro.core.queries import AggFunc, Query, Rectangle, SKETCH_AGGS
from repro.core.sharded import ShardedJanusAQP
from repro.core.table import Table
from repro.service import serve_background
from repro.service.fleet import FleetCoordinator
from repro.sketch import (SKETCH_KEY, SKETCH_KIND, ExactCountSketch,
                          QuantileSketch, merge_sketch_blobs, new_sketch,
                          sketch_answer, sketch_from_bytes)
from repro.sketch.registry import HLL_BITS, TOPK_CAPACITY

UNBOUNDED = Rectangle((-math.inf,), (math.inf,))

#: (sketch class, constructor param) for the pure-algebra properties;
#: a small height so the sampling regime is actually exercised.
SKETCH_SPECS = [(QuantileSketch, 2), (ExactCountSketch, 6)]

#: Discrete-ish value streams: duplicates are common (exercises the
#: counted core) but the support is wide.
values_strategy = st.lists(
    st.integers(0, 40).map(float), min_size=0, max_size=120)


def build(cls, param, values):
    sketch = cls(param)
    sketch.insert_many(values)
    return sketch


def sketch_queries(attr="v", preds=("x",)):
    queries = [Query(AggFunc.PERCENTILE, attr, preds, UNBOUNDED, p)
               for p in (0.1, 0.5, 0.9)]
    queries.append(Query(AggFunc.COUNT_DISTINCT, attr, preds, UNBOUNDED))
    queries.append(Query(AggFunc.TOPK, attr, preds, UNBOUNDED, 5.0))
    return queries


def assert_bit_identical(got, want, tag=""):
    """Full-envelope equality including the canonical blob."""
    if math.isnan(want.estimate):
        assert math.isnan(got.estimate), (tag, got, want)
    else:
        assert got.estimate == want.estimate, (tag, got, want)
    assert got.exact == want.exact, (tag, got, want)
    assert got.variance_catchup == want.variance_catchup
    assert got.variance_sample == want.variance_sample
    assert got.details.get(SKETCH_KEY) == want.details.get(SKETCH_KEY), tag


# ---------------------------------------------------------------------- #
# merge algebra
# ---------------------------------------------------------------------- #
class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(values_strategy, st.integers(0, 2 ** 31 - 1),
           st.integers(2, 5))
    def test_any_split_and_merge_order_is_identity(self, values, seed,
                                                   n_parts):
        """Partition the stream arbitrarily, merge the parts in a random
        order: state and canonical blob equal the unsplit sketch's."""
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, n_parts, size=len(values))
        for cls, param in SKETCH_SPECS:
            whole = build(cls, param, values)
            parts = [build(cls, param,
                           [v for v, s in zip(values, assignment)
                            if s == p])
                     for p in range(n_parts)]
            order = rng.permutation(n_parts)
            merged = cls(param)
            for p in order:
                merged.merge_in(parts[p])
            assert merged == whole, cls.__name__
            assert merged.to_bytes() == whole.to_bytes(), cls.__name__

    @settings(max_examples=60, deadline=None)
    @given(values_strategy, values_strategy)
    def test_merge_commutes(self, xs, ys):
        for cls, param in SKETCH_SPECS:
            xy = build(cls, param, xs).merge_in(build(cls, param, ys))
            yx = build(cls, param, ys).merge_in(build(cls, param, xs))
            assert xy == yx and xy.to_bytes() == yx.to_bytes()

    @settings(max_examples=60, deadline=None)
    @given(values_strategy, st.integers(0, 2 ** 31 - 1))
    def test_delete_is_exact_inverse(self, values, seed):
        """Insert everything then delete a random sub-multiset: the
        survivor equals the sketch built from the kept values alone."""
        rng = np.random.default_rng(seed)
        keep_mask = rng.integers(0, 2, size=len(values)).astype(bool)
        kept = [v for v, k in zip(values, keep_mask) if k]
        dropped = [v for v, k in zip(values, keep_mask) if not k]
        for cls, param in SKETCH_SPECS:
            churned = build(cls, param, values)
            churned.delete_many(dropped)
            assert churned == build(cls, param, kept), cls.__name__

    def test_merge_rejects_mismatched_sketches(self):
        with pytest.raises(ValueError):
            QuantileSketch(2).merge_in(QuantileSketch(3))
        with pytest.raises(ValueError):
            QuantileSketch(2).merge_in(ExactCountSketch(2))

    def test_delete_underflow_raises(self):
        sketch = ExactCountSketch(4)
        sketch.insert_many([1.0])
        with pytest.raises(ValueError):
            sketch.delete_many([1.0, 1.0])


# ---------------------------------------------------------------------- #
# serialization
# ---------------------------------------------------------------------- #
class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(values_strategy)
    def test_roundtrip_is_idempotent(self, values):
        for cls, param in SKETCH_SPECS:
            sketch = build(cls, param, values)
            blob = sketch.to_bytes()
            restored = sketch_from_bytes(blob)
            assert type(restored) is cls
            assert restored == sketch
            assert restored.to_bytes() == blob

    @settings(max_examples=40, deadline=None)
    @given(values_strategy, values_strategy)
    def test_blob_merge_equals_state_merge(self, xs, ys):
        for cls, param in SKETCH_SPECS:
            a, b = build(cls, param, xs), build(cls, param, ys)
            via_blobs = merge_sketch_blobs([a.to_bytes(), b.to_bytes()])
            assert via_blobs == a.merge_in(b)

    def test_bad_blobs_raise(self):
        with pytest.raises(ValueError):
            sketch_from_bytes(b"")
        with pytest.raises(ValueError):
            sketch_from_bytes(bytes([99]) + QuantileSketch(2).to_bytes()[1:])


# ---------------------------------------------------------------------- #
# sharded == single identity
# ---------------------------------------------------------------------- #
def engine_config(seed=0, n_shards=1):
    return JanusConfig(k=max(2, 16 // n_shards), sample_rate=0.05,
                       catchup_rate=0.1, check_every=10 ** 9,
                       auto_repartition=False, seed=seed,
                       sketch_attrs=("v",))


def make_rows(rng, n):
    """``v`` has 120 distinct values: past TOPK_CAPACITY (64), so TOPK
    answers are not exact, and 9 of them survive the quantile sketch's
    2**-SKETCH_HEIGHT sampling."""
    return np.column_stack([rng.uniform(0.0, 100.0, n),
                            rng.integers(0, 120, n).astype(float)])


def make_single(rows):
    table = Table(["x", "v"], capacity=len(rows) + 16)
    single = JanusAQP(table, "v", ("x",), config=engine_config())
    single.insert_many(rows)
    single.initialize()
    return single


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_identical_to_single_through_churn(n_shards):
    """Estimate, exactness and blob all bit-identical, after seeding,
    after interleaved insert/delete, and after reoptimize."""
    rng = np.random.default_rng(11)
    rows = make_rows(rng, 6_000)
    single = make_single(rows[:4_000])
    sharded = ShardedJanusAQP(["x", "v"], "v", ("x",),
                              n_shards=n_shards,
                              config=engine_config(n_shards=n_shards))
    sharded.insert_many(rows[:4_000])
    sharded.initialize()
    queries = sketch_queries()

    def check(tag):
        for q, got, want in zip(queries, sharded.query_many(queries),
                                single.query_many(queries)):
            assert_bit_identical(got, want, (tag, q.agg.value))
            truth = single.table.ground_truth(q)
            assert sharded.ground_truth(q) == truth

    check("seeded")
    single.insert_many(rows[4_000:])
    sharded.insert_many(rows[4_000:])
    dead = list(range(0, 5_000, 3))
    single.delete_many(dead)
    sharded.delete_many(dead)
    check("churned")
    single.reoptimize()
    sharded.reoptimize()
    check("reoptimized")
    sharded.close()


def test_seeding_path_equals_insert_path():
    """Sketches seeded from a pre-populated table match sketches built
    row-by-row through the engine: state is canonical in the multiset,
    not in the history."""
    rng = np.random.default_rng(5)
    rows = make_rows(rng, 2_000)
    inserted = make_single(rows)
    pre_table = Table(["x", "v"], capacity=len(rows) + 16)
    pre_table.insert_many(rows)
    seeded = JanusAQP(pre_table, "v", ("x",), config=engine_config())
    seeded.initialize()
    # COUNT DISTINCT and TOPK read one multiset: two sketches a column.
    assert [type(s) for s in seeded._sketches["v"].values()] == \
        [QuantileSketch, ExactCountSketch]
    for q, got, want in zip(sketch_queries(),
                            seeded.query_many(sketch_queries()),
                            inserted.query_many(sketch_queries())):
        assert_bit_identical(got, want, q.agg.value)


def test_sketch_blobs_survive_persistence(tmp_path):
    """save/load round-trips (single and sharded) preserve answers and
    blobs bit-for-bit."""
    rng = np.random.default_rng(23)
    rows = make_rows(rng, 3_000)
    single = make_single(rows)
    queries = sketch_queries()
    want = single.query_many(queries)

    save_synopsis(single, str(tmp_path / "single.npz"))
    restored = load_synopsis(str(tmp_path / "single.npz"), single.table)
    for q, got, w in zip(queries, restored.query_many(queries), want):
        assert_bit_identical(got, w, ("single", q.agg.value))

    sharded = ShardedJanusAQP(["x", "v"], "v", ("x",), n_shards=3,
                              config=engine_config(n_shards=3))
    sharded.insert_many(rows)
    sharded.initialize()
    save_sharded(sharded, tmp_path / "fleet")
    reloaded = load_sharded(tmp_path / "fleet")
    for q, got, w in zip(queries, reloaded.query_many(queries), want):
        assert_bit_identical(got, w, ("sharded", q.agg.value))
    sharded.close()
    reloaded.close()


def store_sketches(path, engine=None, **params):
    """Rewrite the archive at ``path`` as builds that stored sketch
    state wrote it: the sketch parameters as config keys (defaults, or
    ``params``) and, for a synopsis archive, ``engine``'s blobs."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = dict(archive)
    meta = json.loads(str(arrays["meta"]))
    meta["config"].update(dict(sketch_height=4, hll_bits=11,
                               topk_capacity=64), **params)
    arrays["meta"] = json.dumps(meta)
    if engine is not None:
        for i, attr in enumerate(engine.config.sketch_attrs):
            bank = engine._sketches[attr]
            for j, kind in enumerate(sorted(bank)):
                arrays[f"sketch{i}_{j}"] = np.frombuffer(
                    bank[kind].to_bytes(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def test_archives_with_stored_sketches_still_load(tmp_path):
    """Archives and manifests carrying the sketch parameters and blobs
    load and answer bit-identically to the saved engines; a sketch
    parameter this build does not use is refused by name."""
    rng = np.random.default_rng(29)
    rows = make_rows(rng, 3_000)
    queries = sketch_queries() + [
        Query(agg, "v", ("x",), Rectangle((10.0,), (60.0,)))
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)]
    single = make_single(rows)
    path = str(tmp_path / "single.npz")
    save_synopsis(single, path)
    store_sketches(path, single)
    restored = load_synopsis(path, single.table)
    for q, got, w in zip(queries, restored.query_many(queries),
                         single.query_many(queries)):
        assert_bit_identical(got, w, ("single", q.agg.value))

    sharded = ShardedJanusAQP(["x", "v"], "v", ("x",), n_shards=3,
                              config=engine_config(n_shards=3))
    sharded.insert_many(rows)
    sharded.initialize()
    fleet = tmp_path / "fleet"
    save_sharded(sharded, fleet)
    for s, shard in enumerate(sharded.shards):
        store_sketches(fleet / f"shard{s}.npz", shard)
    store_sketches(fleet / "manifest.npz")
    reloaded = load_sharded(fleet)
    for q, got, w in zip(queries, reloaded.query_many(queries),
                         sharded.query_many(queries)):
        assert_bit_identical(got, w, ("sharded", q.agg.value))
    sharded.close()
    reloaded.close()

    store_sketches(path, hll_bits=8)
    with pytest.raises(ValueError, match="hll_bits"):
        load_synopsis(path, single.table)
    store_sketches(fleet / "manifest.npz", hll_bits=8)
    with pytest.raises(ValueError, match="hll_bits"):
        load_sharded(fleet)


def test_nan_rows_delete_cleanly():
    """Every NaN is one sketch value: deleting one of two NaN rows
    neither raises nor leaves the engine half-updated, and the blobs
    equal fresh sketches over the live column."""
    rng = np.random.default_rng(41)
    rows = make_rows(rng, 600)
    sharded = ShardedJanusAQP(["x", "v"], "v", ("x",), n_shards=2,
                              config=engine_config(n_shards=2))
    sharded.insert_many(rows)
    sharded.initialize()
    for engine, tables in ((make_single(rows), None),
                           (sharded, sharded.tables)):
        tids = engine.insert_many(np.array([[5.0, np.nan],
                                            [60.0, np.nan]]))
        epoch = engine.data_epoch
        engine.delete_many(tids[:1])
        assert engine.data_epoch > epoch
        live = np.concatenate([t.column("v") for t in
                               (tables or [engine.table])])
        assert np.isnan(live).sum() == 1
        queries = sketch_queries()
        for q, got in zip(queries, engine.query_many(queries)):
            fresh = new_sketch(SKETCH_KIND[q.agg])
            fresh.insert_many(live)
            assert got.details[SKETCH_KEY] == fresh.to_bytes(), q.agg
    sharded.close()


def test_fleet_wire_carries_sketches(tmp_path):
    """The process fleet answers sketch aggregates bit-identically to
    the in-process engine restored from the same snapshot: blobs cross
    the worker socket in the variable-length sketch sidecar."""
    rng = np.random.default_rng(37)
    rows = make_rows(rng, 3_000)
    sharded = ShardedJanusAQP(["x", "v"], "v", ("x",), n_shards=2,
                              config=engine_config(n_shards=2))
    sharded.insert_many(rows)
    sharded.initialize()
    save_sharded(sharded, tmp_path / "snap")
    sharded.close()

    control = load_sharded(tmp_path / "snap")
    queries = sketch_queries()
    want = control.query_many(queries)
    with FleetCoordinator(tmp_path / "snap", supervise=False) as fleet:
        assert fleet.sketch_attrs == ("v",)
        for q, got, w in zip(queries, fleet.query_many(queries), want):
            assert_bit_identical(got, w, ("fleet", q.agg.value))
    control.close()


def test_emptied_coordinators_answer_like_the_single_engine(tmp_path):
    """Every row deleted: a 2-shard engine and a 2-worker fleet merge
    over no contributors, and must still answer each sketch aggregate
    exactly as the single engine does from its own empty sketches -
    ``details`` keys and blob bytes included - so served TOPK carries
    an empty item list."""
    rng = np.random.default_rng(43)
    rows = make_rows(rng, 1_000)
    single = make_single(rows)
    sharded = ShardedJanusAQP(["x", "v"], "v", ("x",), n_shards=2,
                              config=engine_config(n_shards=2))
    sharded.insert_many(rows)
    sharded.initialize()
    save_sharded(sharded, tmp_path / "snap")
    queries = sketch_queries()
    everything = list(range(len(rows)))
    with FleetCoordinator(tmp_path / "snap", supervise=False) as fleet:
        for engine in (single, sharded, fleet):
            engine.delete_many(everything)
        want = single.query_many(queries)
        assert want[-1].details[SKETCH_KEY] == \
            new_sketch(SKETCH_KIND[AggFunc.TOPK]).to_bytes()
        for tag, engine in (("sharded", sharded), ("fleet", fleet)):
            for q, got, w in zip(queries, engine.query_many(queries), want):
                assert repr(got) == repr(w), (tag, q.agg.value)
    with serve_background(sharded, port=0) as handle:
        request = urllib.request.Request(
            f"http://{handle.host}:{handle.port}/sql",
            data=json.dumps({"sql": "SELECT TOPK(v, 3) FROM t"}).encode(),
            headers={"Content-Type": "application/json"})
        served = json.load(urllib.request.urlopen(request))["result"]
    assert served["topk"] == [] and served["estimate"] == 0.0
    assert served["exact"] is True
    sharded.close()


# ---------------------------------------------------------------------- #
# merge rules at the shard combiner
# ---------------------------------------------------------------------- #
class TestSketchMergeRules:
    def queries(self):
        return sketch_queries()

    def test_single_contributor_is_passthrough(self):
        rng = np.random.default_rng(2)
        single = make_single(make_rows(rng, 800))
        for q in self.queries():
            alone = single.query(q)
            merged = merge_results(q, [alone], [False])
            assert_bit_identical(merged, alone, q.agg.value)

    def test_all_contributors_pruned(self):
        """Merging the empty subset mirrors an empty engine's answer:
        NaN (non-exact) percentile, exact zero counts."""
        for q in self.queries():
            result = merge_results(q, [], [])
            if q.agg is AggFunc.PERCENTILE:
                assert math.isnan(result.estimate) and not result.exact
            else:
                assert result.estimate == 0.0 and result.exact

    def test_partial_blob_coverage_raises(self):
        import dataclasses
        rng = np.random.default_rng(3)
        single = make_single(make_rows(rng, 400))
        for q in self.queries():
            good = single.query(q)
            stripped = dataclasses.replace(
                good, details={"ci": "unavailable"})
            with pytest.raises(ValueError):
                merge_results(q, [good, stripped], [False, False])


# ---------------------------------------------------------------------- #
# accuracy against exact ground truth
# ---------------------------------------------------------------------- #
class TestAccuracy:
    def test_quantile_rank_error_within_dkw_bound(self):
        rng = np.random.default_rng(101)
        data = rng.uniform(0.0, 1.0, 30_000)
        sketch = QuantileSketch(4)
        sketch.insert_many(data)
        assert not sketch.exact          # genuinely sampling
        ordered = np.sort(data)
        eps = sketch.rank_eps(0.01)
        assert eps < 0.10                # the bound itself is useful
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            estimate = sketch.quantile(p)
            observed_rank = np.searchsorted(ordered, estimate,
                                            side="right") / data.size
            assert abs(observed_rank - p) <= eps + 1e-12, p

    def test_exact_height_zero_quantile(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 100, 5_000).astype(float)
        sketch = QuantileSketch(0)
        sketch.insert_many(data)
        assert sketch.exact
        ordered = np.sort(data)
        for p in (0.0, 0.3, 0.5, 0.99, 1.0):
            want = ordered[max(1, math.ceil(p * data.size)) - 1]
            assert sketch.quantile(p) == want

    def test_hll_relative_error_within_bound(self):
        rng = np.random.default_rng(13)
        for true_distinct in (500, 5_000, 50_000):
            values = rng.uniform(0, 1, true_distinct)
            sketch = ExactCountSketch(11)
            sketch.insert_many(values)
            sketch.insert_many(values[: true_distinct // 2])  # dupes
            rel_err = abs(sketch.estimate() - true_distinct) \
                / true_distinct
            assert rel_err <= sketch.rel_error_bound(3.0), true_distinct

    def test_topk_exact_on_zipf_stream(self):
        rng = np.random.default_rng(17)
        data = np.minimum(rng.zipf(1.5, 20_000), 30).astype(float)
        sketch = ExactCountSketch(HLL_BITS)
        sketch.insert_many(data)
        topk = Query(AggFunc.TOPK, "v", ("x",), UNBOUNDED, 5.0)
        assert sketch_answer(topk, sketch).exact  # support fits capacity
        uniques, counts = np.unique(data, return_counts=True)
        order = np.lexsort((uniques, -counts))
        for k in (1, 5, 10):
            want = [(float(uniques[i]), int(counts[i]))
                    for i in order[:k]]
            assert sketch.top(k) == want
            assert sketch.top_mass(k) == float(counts[order[:k]].sum())

    def test_topk_saturation_drops_exactness(self):
        topk = Query(AggFunc.TOPK, "v", ("x",), UNBOUNDED, 5.0)
        sketch = ExactCountSketch(HLL_BITS)
        sketch.insert_many([float(i) for i in range(TOPK_CAPACITY + 1)])
        assert not sketch_answer(topk, sketch).exact
        sketch.delete_many([0.0])
        assert sketch_answer(topk, sketch).exact  # a function of the multiset
