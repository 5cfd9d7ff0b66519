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
  bit-identically (estimate, exactness, and the sketch state itself)
  to a single engine fed the same stream, through interleaved
  insert/delete/reoptimize, through ``save_sharded``/``load_sharded``,
  and through the process fleet's wire protocol.
* **Accuracy** - PERCENTILE stays within the quantile sketch's pinned
  bound against the exact ground truth; COUNT DISTINCT and TOPK are
  exact.
"""

import hashlib
import json
import math
import struct
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.sketch import (KIND_COUNTS, SKETCH_KEY, SKETCH_KIND,
                          ExactCountSketch, QuantileSketch, hash_floats,
                          new_sketch, sampled, sketch_answer,
                          sketch_from_bytes)
from repro.sketch.hashing import canonical

UNBOUNDED = Rectangle((-math.inf,), (math.inf,))

#: Empty-sketch factories for the pure-algebra properties; a small
#: height so the sampling regime is actually exercised.
SKETCH_SPECS = [lambda: QuantileSketch(2), ExactCountSketch]

#: Discrete-ish value streams: duplicates are common (exercises the
#: counted core) but the support is wide.
values_strategy = st.lists(
    st.integers(0, 40).map(float), min_size=0, max_size=120)


def build(make, values):
    sketch = make()
    sketch.insert_many(values)
    return sketch


def sketch_queries(attr="v", preds=("x",)):
    queries = [Query(AggFunc.PERCENTILE, attr, preds, UNBOUNDED, p)
               for p in (0.1, 0.5, 0.9)]
    queries.append(Query(AggFunc.COUNT_DISTINCT, attr, preds, UNBOUNDED))
    queries.append(Query(AggFunc.TOPK, attr, preds, UNBOUNDED, 5.0))
    return queries


def assert_bit_identical(got, want, tag=""):
    """Full-envelope equality including the sketch state."""
    if math.isnan(want.estimate):
        assert math.isnan(got.estimate), (tag, got, want)
    else:
        assert got.estimate == want.estimate, (tag, got, want)
    assert got.exact == want.exact, (tag, got, want)
    assert got.variance_catchup == want.variance_catchup
    assert got.variance_sample == want.variance_sample
    assert got.details.get(SKETCH_KEY) == want.details.get(SKETCH_KEY), tag
    assert got.ci_available is want.ci_available, tag
    # a sketch bound is not a normal interval: the answer says so
    assert not (SKETCH_KEY in want.details and want.ci_available), tag


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
        for make in SKETCH_SPECS:
            whole = build(make, values)
            parts = [build(make,
                           [v for v, s in zip(values, assignment)
                            if s == p])
                     for p in range(n_parts)]
            order = rng.permutation(n_parts)
            merged = make()
            for p in order:
                merged.merge_in(parts[p])
            assert merged == whole, whole
            assert merged.to_bytes() == whole.to_bytes(), whole

    @settings(max_examples=60, deadline=None)
    @given(values_strategy, values_strategy)
    def test_merge_commutes(self, xs, ys):
        for make in SKETCH_SPECS:
            xy = build(make, xs).merge_in(build(make, ys))
            yx = build(make, ys).merge_in(build(make, xs))
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
        for make in SKETCH_SPECS:
            churned = build(make, values)
            churned.delete_many(dropped)
            assert churned == build(make, kept), churned

    def test_merge_rejects_mismatched_sketches(self):
        with pytest.raises(ValueError):
            QuantileSketch(2).merge_in(QuantileSketch(3))
        with pytest.raises(ValueError):
            QuantileSketch(2).merge_in(ExactCountSketch())

    def test_delete_underflow_raises(self):
        sketch = ExactCountSketch()
        sketch.insert_many([1.0])
        with pytest.raises(ValueError):
            sketch.delete_many([1.0, 1.0])
        assert sketch.n_total == 1 and sketch.counts == {1.0: 1}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([math.nan, 0.0, 1.0, 2.0, 3.0]),
                    max_size=12), st.integers(0, 2 ** 31 - 1))
    @example([2.0, math.nan, 1.0, 3.0], 0)
    def test_top_is_a_function_of_the_multiset(self, values, seed):
        """The same multiset, inserted in two orders, and its two halves
        merged in both orders: ``top(k)`` agrees for every ``k``, with
        NaN ranked after every value of its count."""
        rng = np.random.default_rng(seed)
        shuffled = [values[i] for i in rng.permutation(len(values))]
        half = len(values) // 2
        xs, ys = shuffled[:half], shuffled[half:]
        sketches = [build(ExactCountSketch, values),
                    build(ExactCountSketch, values[::-1]),
                    build(ExactCountSketch, xs).merge_in(
                        build(ExactCountSketch, ys)),
                    build(ExactCountSketch, ys).merge_in(
                        build(ExactCountSketch, xs))]
        for k in range(1, len(values) + 2):
            tops = [repr(sketch.top(k)) for sketch in sketches]
            assert tops == tops[:1] * 4, (k, tops)
        ranked = sketches[0].top(len(values) + 1)
        nan_at = [i for i, (v, _c) in enumerate(ranked) if v != v]
        for i in nan_at:
            assert all(c < ranked[i][1] for _v, c in ranked[i + 1:])


# ---------------------------------------------------------------------- #
# serialization
# ---------------------------------------------------------------------- #
class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(values_strategy)
    def test_roundtrip_is_idempotent(self, values):
        for make in SKETCH_SPECS:
            sketch = build(make, values)
            blob = sketch.to_bytes()
            restored = sketch_from_bytes(blob)
            assert type(restored) is type(sketch)
            assert restored == sketch
            assert restored.to_bytes() == blob

    @settings(max_examples=40, deadline=None)
    @given(values_strategy, values_strategy)
    def test_blob_merge_equals_state_merge(self, xs, ys):
        for make in SKETCH_SPECS:
            a, b = build(make, xs), build(make, ys)
            via_blobs = make()
            for blob in (a.to_bytes(), b.to_bytes()):
                via_blobs.merge_in(sketch_from_bytes(blob))
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
    """``v`` has 120 distinct values, 9 of which survive the quantile
    sketch's 2**-SKETCH_HEIGHT sampling."""
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
    state wrote it: the sketch parameters as config keys (those builds'
    defaults, or ``params``) and, for a synopsis archive, ``engine``'s
    blobs."""
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
    load and answer bit-identically to the saved engines, whatever
    HyperLogLog bits and TOPK capacity they name (neither changes an
    answer any more); a quantile height this build does not use is
    refused by name."""
    rng = np.random.default_rng(29)
    rows = make_rows(rng, 3_000)
    queries = sketch_queries() + [
        Query(agg, "v", ("x",), Rectangle((10.0,), (60.0,)))
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)]
    single = make_single(rows)
    path = str(tmp_path / "single.npz")
    save_synopsis(single, path)
    store_sketches(path, single, hll_bits=8, topk_capacity=7)
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
    store_sketches(fleet / "manifest.npz", hll_bits=14)
    reloaded = load_sharded(fleet)
    for q, got, w in zip(queries, reloaded.query_many(queries),
                         sharded.query_many(queries)):
        assert_bit_identical(got, w, ("sharded", q.agg.value))
    sharded.close()
    reloaded.close()

    store_sketches(path, sketch_height=3)
    with pytest.raises(ValueError, match="sketch_height"):
        load_synopsis(path, single.table)
    store_sketches(fleet / "manifest.npz", sketch_height=3)
    with pytest.raises(ValueError, match="sketch_height"):
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
            assert got.details[SKETCH_KEY].to_bytes() == \
                fresh.to_bytes(), q.agg
    sharded.close()


def test_fleet_wire_carries_sketches(tmp_path):
    """The process fleet answers sketch aggregates bit-identically to
    the in-process engine restored from the same snapshot: sketches
    cross the worker socket as blobs in the variable-length sidecar."""
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
    _, counts = np.unique(rows[:, 1], return_counts=True)
    with FleetCoordinator(tmp_path / "snap", supervise=False) as fleet:
        assert fleet.sketch_attrs == ("v",)
        for q, got, w in zip(queries, fleet.query_many(queries), want):
            assert_bit_identical(got, w, ("fleet", q.agg.value))
        *_, distinct, topk = fleet.query_many(queries)
    assert distinct.exact and distinct.estimate == counts.size
    assert topk.exact and topk.estimate == np.sort(counts)[-5:].sum()
    control.close()


def test_emptied_coordinators_answer_like_the_single_engine(tmp_path):
    """Every row deleted: a 2-shard engine and a 2-worker fleet merge
    over no contributors, and must still answer each sketch aggregate
    exactly as the single engine does from its own empty sketches -
    ``details`` keys and sketch state included - so served TOPK carries
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
            new_sketch(SKETCH_KIND[AggFunc.TOPK])
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
            stripped = dataclasses.replace(good, details={})
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

    def test_count_distinct_is_exact(self):
        """COUNT DISTINCT is the number of distinct live values, as
        ``np.unique`` counts them (every NaN one value, ``-0.0`` equal
        to ``0.0``), through duplicates and deletes."""
        rng = np.random.default_rng(13)
        count_distinct = Query(AggFunc.COUNT_DISTINCT, "v", ("x",),
                               UNBOUNDED)
        for true_distinct in (500, 5_000, 50_000):
            values = rng.uniform(0, 1, true_distinct)
            values[:3] = (math.nan, -0.0, 0.0)
            sketch = ExactCountSketch()
            sketch.insert_many(values)
            sketch.insert_many(values[: true_distinct // 2])  # dupes
            sketch.delete_many(values[-10:])
            live = np.concatenate([values[:-10],
                                   values[: true_distinct // 2]])
            answer = sketch_answer(count_distinct, sketch)
            assert answer.estimate == np.unique(live).size
            assert answer.exact

    def test_topk_exact_on_zipf_stream(self):
        rng = np.random.default_rng(17)
        data = np.minimum(rng.zipf(1.5, 20_000), 30).astype(float)
        sketch = ExactCountSketch()
        sketch.insert_many(data)
        topk = Query(AggFunc.TOPK, "v", ("x",), UNBOUNDED, 5.0)
        assert sketch_answer(topk, sketch).exact
        uniques, counts = np.unique(data, return_counts=True)
        order = np.lexsort((uniques, -counts))
        for k in (1, 5, 10):
            want = [(float(uniques[i]), int(counts[i]))
                    for i in order[:k]]
            assert sketch.top(k) == want
            assert sketch.top_mass(k) == float(counts[order[:k]].sum())

    def test_topk_exact_on_a_wide_support(self):
        """Thousands of distinct live values: TOPK is still exact, and
        its items are the true top-k."""
        rng = np.random.default_rng(19)
        data = np.round(rng.normal(0.0, 30.0, 20_000))
        sketch = ExactCountSketch()
        sketch.insert_many(data)
        uniques, counts = np.unique(data, return_counts=True)
        assert uniques.size > 100
        order = np.lexsort((uniques, -counts))
        for k in (1, 3, 50):
            answer = sketch_answer(
                Query(AggFunc.TOPK, "v", ("x",), UNBOUNDED, float(k)),
                sketch)
            assert answer.exact
            assert answer.estimate == float(counts[order[:k]].sum())
            assert sketch.top(k) == [(float(uniques[i]), int(counts[i]))
                                     for i in order[:k]]


def test_signed_zeros_are_one_value():
    """``-0.0`` and ``0.0`` are one live value: engines that saw them in
    either order hold byte-identical sketches, and TOPK names ``0.0``."""
    rng = np.random.default_rng(47)
    rows = make_rows(rng, 600)
    blobs, items = [], []
    for zeros in ((-0.0, 0.0), (0.0, -0.0)):
        special = np.array([[1.0, zeros[0]], [2.0, zeros[1]],
                            [3.0, 5.0]])
        engine = make_single(np.vstack([special, rows]))
        bank = engine._sketches["v"]
        blobs.append([bank[kind].to_bytes() for kind in sorted(bank)])
        # repr tells -0.0 from 0.0, which == does not
        items.append(repr(bank[KIND_COUNTS].top(200)))
    assert blobs[0] == blobs[1]
    assert items[0] == items[1]
    assert "-0.0" not in items[0] and "(0.0, " in items[0]


# ---------------------------------------------------------------------- #
# the column hash, batch order, atomic deletes and shared snapshots
# ---------------------------------------------------------------------- #
#: Bit patterns whose splitmix64 hash is 0, 2**63 and 2**62 (64, 63 and
#: 62 trailing zeros): no random draw reaches those heights.
DEEP_HASH_BITS = (0x61C8864680B583EB, 0x2FEDF1EFCE1D5545,
                  0x7D6C2E9076B45A87)
KEEP_HEIGHTS = (0, 1, 4, 63, 64, 65)


def keep_probe_values():
    """10,000 seeded doubles: random bit patterns, small integers, both
    zeros and infinities, subnormals and NaNs of several signs and
    payloads (quiet and signaling), plus :data:`DEEP_HASH_BITS`."""
    values = np.random.default_rng(49).integers(
        0, 2 ** 64, size=10_000, dtype=np.uint64).view(np.float64)
    special = np.concatenate([
        np.arange(-64.0, 65.0),
        [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
         -1e-310, 2.2250738585072014e-308],
        np.array([0x7FF8000000000000, 0xFFF8000000000000,
                  0x7FF8000000000001, 0x7FF0000000000001,
                  0xFFFFFFFFFFFFFFFF, *DEEP_HASH_BITS],
                 dtype=np.uint64).view(np.float64)])
    values[:special.size] = special
    return values


def splitmix64_reference(bits):
    """The finalizer one value at a time, in Python integers."""
    mask = (1 << 64) - 1
    x = (bits + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


class TestColumnHash:
    def test_keep_decisions_are_pinned(self):
        """The keep decisions of every probe value at every height
        digest as the per-value hash of earlier builds decided them."""
        with np.errstate(invalid="ignore"):    # signaling NaNs
            values = canonical(keep_probe_values())
        digest = hashlib.sha256()
        for height in KEEP_HEIGHTS:
            digest.update(np.packbits(sampled(values, height)).tobytes())
        assert digest.hexdigest()[:16] == "42f9fa37d1099fb4"
        assert [int(sampled(values, h).sum()) for h in KEEP_HEIGHTS] == \
            [10_000, 4_985, 653, 2, 1, 0]

    def test_column_hash_equals_the_scalar_finalizer(self):
        """Every NaN hashes as ``math.nan``, ``-0.0`` as ``0.0``, every
        other value as its own bit pattern."""
        with np.errstate(invalid="ignore"):
            values = canonical(keep_probe_values())
        nan_bits = struct.unpack("<Q", struct.pack("<d", math.nan))[0]
        want = [splitmix64_reference(nan_bits if v != v else
                                     struct.unpack("<Q", struct.pack(
                                         "<d", v + 0.0))[0])
                for v in keep_probe_values().tolist()]
        assert hash_floats(values).tolist() == want


class TestBatching:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
               st.floats(allow_nan=True),
               st.sampled_from([0.0, -0.0, math.nan, 1.0, 2.0])),
               max_size=60),
           st.integers(0, 2 ** 31 - 1))
    def test_one_batch_equals_one_by_one_and_reversed(self, values, seed):
        """One ``insert_many``, value-by-value inserts and the reversed
        batch build equal sketches with identical bytes, and so do the
        three ways of deleting a sub-multiset of them."""
        dropped = [v for v, d in zip(values, np.random.default_rng(
            seed).integers(0, 2, len(values))) if d]
        with np.errstate(invalid="ignore"):    # signaling NaNs
            for make in SKETCH_SPECS + [lambda: QuantileSketch(0)]:
                batch, single, backwards = make(), make(), make()
                batch.insert_many(values)
                for v in values:
                    single.insert_many([v])
                backwards.insert_many(values[::-1])
                assert batch == single == backwards
                assert batch.to_bytes() == single.to_bytes() == \
                    backwards.to_bytes()
                batch.delete_many(dropped)
                for v in dropped:
                    single.delete_many([v])
                backwards.delete_many(dropped[::-1])
                assert batch == single == backwards
                assert batch.to_bytes() == single.to_bytes() == \
                    backwards.to_bytes()

    @pytest.mark.parametrize("make", [ExactCountSketch,
                                      lambda: QuantileSketch(0)],
                             ids=["counts", "quantile"])
    def test_a_failed_delete_changes_nothing(self, make):
        """A batch naming a value that is not live, or one value more
        often than it is live, raises before any of its values is
        removed."""
        sketch = build(make, [1.0, 2.0, 3.0])
        for batch in ([1.0, 5.0], [3.0, 2.0, 2.0]):
            with pytest.raises(ValueError, match="not live"):
                sketch.delete_many(batch)
            assert sketch.counts == {1.0: 1, 2.0: 1, 3.0: 1}
            assert sketch.n_total == 3

    def test_quantile_ranks_nan_last(self):
        """NaN sorts above every value whatever order it arrived in, as
        ``np.unique`` and the canonical blob order it."""
        a = build(lambda: QuantileSketch(0), [3.0, math.nan, 1.0, 2.0])
        b = build(lambda: QuantileSketch(0), [1.0, 2.0, math.nan, 3.0])
        assert a == b
        for sketch in (a, b):
            assert [sketch.quantile(p) for p in (0.0, 0.5, 0.75)] == \
                [1.0, 2.0, 3.0]
            assert math.isnan(sketch.quantile(1.0))


def test_answers_share_one_snapshot_per_state():
    """Answers over an unchanged sketch hold one snapshot object; a
    write between two answers gives the second a new one.  An answer
    renders as it would from a fresh copy of the live column's sketch."""
    rng = np.random.default_rng(53)
    engine = make_single(make_rows(rng, 800))
    distinct, topk = sketch_queries()[3:]
    first = engine.query(distinct).details[SKETCH_KEY]
    assert engine.query(topk).details[SKETCH_KEY] is first
    assert engine.query(distinct).details[SKETCH_KEY] is first
    for write in (lambda: engine.insert_many(make_rows(rng, 3)),
                  lambda: engine.delete_many([0, 1])):
        epoch = first.n_total
        write()
        second = engine.query(distinct).details[SKETCH_KEY]
        assert second is not first and first.n_total == epoch
        first = second
    queries = sketch_queries()
    for q, got in zip(queries, engine.query_many(queries)):
        fresh = new_sketch(SKETCH_KIND[q.agg])
        fresh.insert_many(engine.table.column("v"))
        assert repr(got) == repr(sketch_answer(q, fresh)), q.agg
    sketch = ExactCountSketch()
    snapshot = sketch.snapshot()
    assert sketch.snapshot() is snapshot
    sketch.merge_in(build(ExactCountSketch, [1.0]))
    assert sketch.snapshot() is not snapshot and len(snapshot) == 0


def test_a_snapshot_refuses_every_write():
    """Even a batch the quantile sketch keeps nothing of: it used to
    move the snapshot's ``n_total`` without an error."""
    sketch = build(lambda: QuantileSketch(64), [1.0, 2.0])
    snapshot = sketch.snapshot()
    for write in (lambda: snapshot.insert_many([3.0]),
                  lambda: snapshot.delete_many([1.0]),
                  lambda: snapshot.merge_in(QuantileSketch(64))):
        with pytest.raises(TypeError, match="read-only"):
            write()
    assert snapshot.n_total == 2 and snapshot == sketch
