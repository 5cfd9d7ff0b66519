"""Query-pruning shard router: summaries, planning, merge subsets.

Pins the ISSUE 6 contract from three sides:

* :class:`ShardSummary` is *conservative*: it may keep a shard a query
  cannot use, but it never prunes a shard holding a live row inside the
  query rectangle - under inserts, deletes, refreshes and non-finite
  values.
* Merging over a partial shard subset equals merging with the pruned
  shards' explicit answers, for all 7 aggregates: a provably-empty
  shard contributes an exact zero to SUM/COUNT and nothing to the
  AVG/VARIANCE normalizers or the MIN/MAX candidates, so dropping it is
  the identity on the merge - including the MIN/MAX exactness corner
  and the all-shards-pruned case.
* End to end, routed answers are field-identical to broadcast answers
  across every aggregate while the fleet mutates, rebalances and
  re-optimizes, and a save/load round-trip routes identically.
"""

import math
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JanusConfig, Query, QueryResult, Rectangle
from repro.core.merge import merge_results
from repro.core.persist import load_sharded, save_sharded
from repro.core.queries import AggFunc, SKETCH_AGGS
from repro.core.routing import (RoutingStats, ShardSummary,
                                plan_query_subsets)
from repro.core.sharded import ShardedJanusAQP

# Sketch aggregates are whole-column by contract (no predicate
# rectangle), so the range-predicated workloads here exclude them;
# their merge/identity behaviour is pinned in test_sketch_properties.
ALL_AGGS = [a for a in AggFunc if a not in SKETCH_AGGS]


def small_config(seed=0):
    return JanusConfig(k=8, sample_rate=0.2, catchup_rate=0.1,
                       check_every=10 ** 9, auto_repartition=False,
                       seed=seed)


def make_rows(rng, n, lo=0.0, hi=100.0):
    return np.column_stack([rng.uniform(lo, hi, n),
                            rng.normal(10.0, 3.0, n)])


def range_queries(rng, n, lo=0.0, hi=100.0, width=8.0):
    out = []
    for i in range(n):
        a = rng.uniform(lo, hi - width)
        out.append(Query(ALL_AGGS[i % len(ALL_AGGS)], "y", ("x",),
                         Rectangle((a,), (a + width,))))
    return out


def assert_identical(xs, ys):
    """Field-exact equality of two answer lists (NaN == NaN)."""
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        if math.isnan(x.estimate):
            assert math.isnan(y.estimate)
        else:
            assert x.estimate == y.estimate
        assert x.variance_catchup == y.variance_catchup
        assert x.variance_sample == y.variance_sample
        assert x.exact == y.exact


# ---------------------------------------------------------------------- #
# ShardSummary
# ---------------------------------------------------------------------- #
class TestShardSummary:
    def test_empty_summary_prunes_everything(self):
        s = ShardSummary(1)
        lo = np.array([[0.0], [-math.inf]])
        hi = np.array([[10.0], [math.inf]])
        assert not s.may_contain_many(lo, hi).any()

    def test_soundness_under_mutation(self):
        """False must always be a proof of emptiness."""
        rng = np.random.default_rng(0)
        s = ShardSummary(1, n_bins=8)
        live = []
        for step in range(40):
            op = rng.integers(0, 3)
            if op == 0 or not live:
                batch = rng.uniform(0, 100, rng.integers(1, 30))
                s.add(batch[:, None])
                live.extend(batch.tolist())
            elif op == 1:
                k = int(rng.integers(1, len(live) + 1))
                idx = rng.choice(len(live), size=k, replace=False)
                gone = [live[i] for i in idx]
                s.remove(np.array(gone)[:, None])
                live = [v for i, v in enumerate(live)
                        if i not in set(idx.tolist())]
            else:
                s.refresh(np.array(live)[:, None])
            # Probe random rectangles against the ground truth.
            for _ in range(10):
                a, b = sorted(rng.uniform(-10, 110, 2))
                may = s.may_contain_many(np.array([[a]]),
                                         np.array([[b]]))[0]
                truly = any(a <= v <= b for v in live)
                if truly:
                    assert may, (step, a, b)

    def test_refresh_tightens_bounds(self):
        s = ShardSummary(1)
        s.add(np.array([[1.0], [50.0], [99.0]]))
        s.remove(np.array([[99.0]]))
        # Bounds never shrink on delete...
        assert s.hi[0] == 99.0
        # ...but the histogram already proves the top range empty,
        assert not s.may_contain_many(np.array([[90.0]]),
                                      np.array([[99.0]]))[0]
        # and a refresh re-tightens the bounds themselves.
        s.refresh(np.array([[1.0], [50.0]]))
        assert s.hi[0] == 50.0

    def test_nonfinite_values_disable_pruning(self):
        s = ShardSummary(1)
        s.add(np.array([[5.0], [math.nan]]))
        assert s.tainted
        assert s.may_contain_many(np.array([[1000.0]]),
                                  np.array([[2000.0]]))[0]
        s.refresh(np.array([[5.0]]))
        assert not s.tainted
        assert not s.may_contain_many(np.array([[1000.0]]),
                                      np.array([[2000.0]]))[0]

    def test_out_of_edge_values_stay_visible(self):
        """Edge bins reach +-inf: drifted values clamp, never vanish."""
        s = ShardSummary(1, n_bins=4)
        s.add(np.linspace(0, 10, 20)[:, None])    # edges struck on [0,10]
        s.add(np.array([[500.0]]))                # far past the edges
        assert s.may_contain_many(np.array([[400.0]]),
                                  np.array([[600.0]]))[0]

    def test_state_arrays_round_trip(self):
        rng = np.random.default_rng(1)
        s = ShardSummary(2, n_bins=16)
        rows = rng.uniform(0, 50, (200, 2))
        s.add(rows)
        s.remove(rows[:40])
        t = ShardSummary.from_state_arrays(s.state_arrays())
        assert t.n_live == s.n_live
        assert np.array_equal(t.lo, s.lo) and np.array_equal(t.hi, s.hi)
        assert np.array_equal(t.edges, s.edges)
        assert np.array_equal(t.counts, s.counts)
        lo = rng.uniform(-10, 60, (50, 2))
        hi = lo + rng.uniform(0, 20, (50, 2))
        assert np.array_equal(s.may_contain_many(lo, hi),
                              t.may_contain_many(lo, hi))


def frozen_may_contain_many(s, lo, hi):
    """The planner's emptiness proof as it stood before the prefix sums
    were kept (ISSUE 17): re-derives them from ``counts`` per call and
    clamps bin indices with ``np.clip``.  The reference the live
    :meth:`ShardSummary.may_contain_many` must agree with exactly."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    nq = lo.shape[0]
    if s.n_live <= 0:
        return np.zeros(nq, dtype=bool)
    if s.tainted or s.edges is None:
        return np.ones(nq, dtype=bool)
    edges, counts = s.edges, s.counts
    may = ((hi >= s.lo) & (lo <= s.hi)).all(axis=1)
    if not may.any():
        return may
    csum = np.zeros((s.n_attrs, s.n_bins + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=csum[:, 1:])
    for j in range(s.n_attrs):
        i0 = np.searchsorted(edges[j], lo[:, j], side="right") - 1
        i1 = np.searchsorted(edges[j], hi[:, j], side="right") - 1
        i0 = np.clip(i0, 0, s.n_bins - 1)
        i1 = np.clip(i1, 0, s.n_bins - 1)
        may &= (csum[j, i1 + 1] - csum[j, i0]) > 0
    return may


def frozen_classify(s, lo, hi):
    """:meth:`ShardSummary.classify` as it stood when it asked the batch
    planner: the reason codes the one-rectangle test must keep."""
    if s.n_live <= 0:
        return "no-live-rows"
    if s.tainted or s.edges is None:
        return "unsummarized"
    if not frozen_may_contain_many(s, lo[None, :], hi[None, :])[0]:
        if ((hi < s.lo) | (lo > s.hi)).any():
            return "bounds-disjoint"
        return "histogram-empty"
    return "contributing"


def assert_lone_router_matches(s, lo, hi):
    """Every probe row, asked alone - through :meth:`may_contain` and
    through a one-query :func:`plan_query_subsets` - decides as the
    frozen batch reference does, and ``classify`` keeps its reason."""
    want = frozen_may_contain_many(s, lo, hi)
    attrs = tuple(f"x{j}" for j in range(s.n_attrs))
    for a, b, keep in zip(lo, hi, want.tolist()):
        assert s.may_contain(a, b) is keep, (a, b)
        assert s.may_contain(a.tolist(), b.tolist()) is keep, (a, b)
        assert s.classify(a, b) == frozen_classify(s, a, b), (a, b)
        if (a <= b).all():
            q = Query(AggFunc.COUNT, "y", attrs,
                      Rectangle(tuple(a.tolist()), tuple(b.tolist())))
            assert plan_query_subsets([q], attrs, [s], [0]) == \
                [[0] if keep else []], (a, b)


def probe_rectangles(rng, s, live, n=24):
    """Rectangles that stress the bin arithmetic: random spans, +-inf
    sides, and bounds sitting exactly on bin edges / live values."""
    d = s.n_attrs
    pool = [np.array([-math.inf, math.inf, -50.0, 0.0, 150.0])]
    if s.edges is not None:
        pool.append(s.edges.ravel())
    if len(live):
        pool.append(live.ravel())
    pool = np.concatenate(pool)
    lo = rng.uniform(-20, 120, (n, d))
    hi = lo + rng.uniform(0, 60, (n, d))
    exact = rng.random((n, d))
    lo = np.where(exact < 0.3, rng.choice(pool, (n, d)), lo)
    hi = np.where(exact > 0.7, rng.choice(pool, (n, d)), hi)
    return lo, hi


SUMMARY_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "refresh",
                               "roundtrip"]),
              st.integers(0, 2 ** 16)),
    min_size=1, max_size=12)


class TestPlannerPrefixSums:
    @settings(max_examples=60, deadline=None)
    @given(ops=SUMMARY_OPS, n_attrs=st.integers(1, 2),
           n_bins=st.sampled_from([1, 2, 5, 32]))
    def test_kept_sums_track_counts_and_decisions_match_the_reference(
            self, ops, n_attrs, n_bins):
        s = ShardSummary(n_attrs, n_bins=n_bins)
        live = np.empty((0, n_attrs))
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            if op == "add":
                rows = rng.uniform(0, 100, (int(rng.integers(1, 40)),
                                            n_attrs))
                if rng.random() < 0.3:      # drift past the edges
                    rows += rng.choice([-300.0, 300.0])
                s.add(rows)
                live = np.concatenate([live, rows])
            elif op == "remove" and len(live):
                gone = rng.random(len(live)) < 0.5
                s.remove(live[gone])
                live = live[~gone]
            elif op == "refresh":
                s.refresh(live)
            elif op == "roundtrip":
                s = ShardSummary.from_state_arrays(s.state_arrays())
            edges, counts, csum = s._hist
            assert edges is s.edges and counts is s.counts
            assert counts.sum(axis=1).tolist() == [len(live)] * n_attrs
            assert np.array_equal(csum[:, 0], np.zeros(n_attrs))
            assert np.array_equal(csum[:, 1:], np.cumsum(counts, axis=1))
            lo, hi = probe_rectangles(rng, s, live)
            assert np.array_equal(s.may_contain_many(lo, hi),
                                  frozen_may_contain_many(s, lo, hi))
            assert_lone_router_matches(s, lo, hi)

    def test_planner_reads_stay_one_sided_while_writers_churn(self):
        """A reader hammering the lock-free planner during add / remove
        / refresh never raises and never prunes a shard that holds live
        rows in the rectangle - the anchor rows below are live
        throughout, so the reference keeps their shard at every moment;
        once the writers stop, live and reference agree everywhere."""
        rng = np.random.default_rng(5)
        anchors = [np.array([[10.0], [20.0]]), np.array([[70.0], [90.0]])]
        summaries = [ShardSummary(1, n_bins=8) for _ in anchors]
        for s, rows in zip(summaries, anchors):
            s.add(rows)
        probes = [Query(AggFunc.COUNT, "y", ("x",), Rectangle((a,), (b,)))
                  for a, b in ((5.0, 12.0), (19.5, 20.0), (60.0, 75.0),
                               (90.0, math.inf), (-math.inf, math.inf),
                               (30.0, 40.0), (21.0, 69.0))]
        must_keep = [[0], [0], [1], [1], [0, 1], [], []]
        stop = threading.Event()
        errors = []

        def write(s, rows, seed):
            wrng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    extra = wrng.uniform(-50, 150, (20, 1))
                    s.add(extra)
                    s.remove(extra[:10])
                    s.refresh(np.concatenate([rows, extra[10:]]))
                    s.remove(extra[10:])
                    s.refresh(rows)
            except Exception as exc:        # pragma: no cover
                errors.append(exc)

        def read():
            try:
                while not stop.is_set():
                    plans = plan_query_subsets(probes, ("x",), summaries,
                                               [0, 1])
                    for plan, keep in zip(plans, must_keep):
                        assert set(keep) <= set(plan), (plan, keep)
                    for q, keep in zip(probes, must_keep):
                        [plan] = plan_query_subsets([q], ("x",), summaries,
                                                    [0, 1])
                        assert set(keep) <= set(plan), (plan, keep)
            except Exception as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(s, rows, i))
                       for i, (s, rows) in
                       enumerate(zip(summaries, anchors))]
            readers = [threading.Thread(target=read) for _ in range(2)]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            stop.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in writers + readers)
        assert not errors, errors
        for s, rows in zip(summaries, anchors):
            lo, hi = probe_rectangles(rng, s, rows, n=64)
            assert np.array_equal(s.may_contain_many(lo, hi),
                                  frozen_may_contain_many(s, lo, hi))
            assert_lone_router_matches(s, lo, hi)
        assert plan_query_subsets(probes, ("x",), summaries, [0, 1]) == \
            [[0], [0], [1], [1], [0, 1], [], []]
        assert [plan_query_subsets([q], ("x",), summaries, [0, 1])[0]
                for q in probes] == [[0], [0], [1], [1], [0, 1], [], []]

    @pytest.mark.parametrize("case", ["fresh", "drained", "overdrawn",
                                      "tainted", "no-edges", "finite"])
    def test_lone_router_branches(self, case):
        """Each branch the one-rectangle test takes - no live rows,
        unsummarized (tainted, or counted rows but no edges yet), and
        the bounds and histogram compares - probed with sides on bin
        edges, on the live min/max and at +-inf."""
        rng = np.random.default_rng(11)
        rows = np.column_stack([rng.uniform(0, 100, 60),
                                rng.uniform(-5, 5, 60)])
        s = ShardSummary(2, n_bins=8)
        if case != "fresh":
            s.add(rows)
        if case == "drained":
            s.remove(rows)
        elif case == "overdrawn":
            s.remove(rows)
            s.remove(rows[:3])
        elif case == "tainted":
            s.add(np.array([[50.0, math.nan]]))
        elif case == "no-edges":
            arrays = ShardSummary(2, n_bins=8).state_arrays()
            arrays["meta"][2] = 60
            s = ShardSummary.from_state_arrays(arrays)
        elif case == "finite":
            s.remove(rows[(rows[:, 0] > 35) & (rows[:, 0] < 65)])
        expect = {"fresh": "no-live-rows", "drained": "no-live-rows",
                  "overdrawn": "no-live-rows", "tainted": "unsummarized",
                  "no-edges": "unsummarized"}
        if case in expect:
            assert s.classify(np.zeros(2), np.ones(2)) == expect[case]
        sides = np.concatenate([rows[:, 0].min(keepdims=True),
                                rows[:, 0].max(keepdims=True),
                                [-math.inf, math.inf, 45.0, 55.0]])
        if s.edges is not None:
            sides = np.concatenate([sides, s.edges[0]])
        a, b = np.meshgrid(sides, sides)
        lo = np.column_stack([np.minimum(a, b).ravel(),
                              np.full(a.size, -math.inf)])
        hi = np.column_stack([np.maximum(a, b).ravel(),
                              np.full(a.size, math.inf)])
        assert_lone_router_matches(s, lo, hi)
        assert_lone_router_matches(s, *probe_rectangles(rng, s, rows, 64))
        if case == "finite":
            assert {s.classify(x, y) for x, y in zip(lo, hi)} == {
                "contributing", "bounds-disjoint", "histogram-empty"}


class TestRoutingStats:
    def test_counters(self):
        st = RoutingStats(4)
        st.record([1, 2, 4, 0], 4, routed=True)
        st.record([3], 4, routed=False)
        d = st.to_dict()
        assert d["n_queries"] == 5
        assert d["n_routed_queries"] == 4
        assert d["n_broadcast_queries"] == 1
        assert d["shards_touched_hist"] == [1, 1, 1, 1, 1]
        assert d["n_pruned_shard_queries"] == (3 + 2 + 0 + 4) + 1
        assert d["mean_shards_touched"] == pytest.approx(10 / 5)


# ---------------------------------------------------------------------- #
# merge_results over partial shard subsets
# ---------------------------------------------------------------------- #
def empty_shard_answer(agg):
    """What a provably-empty shard actually answers for a region.

    Mirrors the engine's estimators over zero matching rows: SUM/COUNT
    estimate exactly 0 with zero variance, AVG reports no normalizer,
    VARIANCE/STDDEV zero moments, MIN/MAX NaN - all non-exact (the
    inflated edge leaves make the frontier partial, never empty).
    """
    if agg in (AggFunc.SUM, AggFunc.COUNT):
        return QueryResult(0.0, 0.0, 0.0, exact=False, n_partial=1)
    if agg is AggFunc.AVG:
        return QueryResult(math.nan, 0.0, 0.0, exact=False, n_partial=1,
                           n_q=0.0)
    if agg in (AggFunc.VARIANCE, AggFunc.STDDEV):
        return QueryResult(math.nan, 0.0, 0.0, exact=False, n_partial=1,
                           m_count=0.0, m_sum=0.0, m_sumsq=0.0,
                           ci_available=False)
    return QueryResult(math.nan, 0.0, 0.0, exact=False, n_partial=1,
                       ci_available=False)


def query_for(agg):
    return Query(agg, "y", ("x",), Rectangle((0.0,), (10.0,)))


class TestMergeSubsets:
    """Pruned subset merge == full merge with explicit empty answers.

    Frontier counts (``n_covered``/``n_partial``) legitimately differ -
    a pruned shard's phantom partial leaf is not counted - so the
    comparison covers estimate, variance components, exactness and the
    merge inputs, the fields that define the answer and its CI.
    """

    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_subset_equals_explicit_empty(self, agg):
        q = query_for(agg)
        informative = [
            QueryResult(12.0, 0.5, 0.25, exact=False, n_covered=2,
                        n_q=40.0, m_count=40.0, m_sum=480.0,
                        m_sumsq=6200.0),
            QueryResult(7.0, 0.1, 0.05, exact=False, n_covered=1,
                        n_q=10.0, m_count=10.0, m_sum=70.0, m_sumsq=560.0),
        ]
        full = merge_results(
            q, informative + [empty_shard_answer(agg)],
            [False, False, True])
        pruned = merge_results(q, informative, [False, False])
        if math.isnan(full.estimate):
            assert math.isnan(pruned.estimate)
        else:
            assert pruned.estimate == full.estimate
        assert pruned.variance_catchup == full.variance_catchup
        assert pruned.variance_sample == full.variance_sample
        assert pruned.exact == full.exact
        for key in ("n_q", "m_count", "m_sum", "m_sumsq", "ci_available"):
            assert getattr(pruned, key) == getattr(full, key)

    def test_minmax_exactness_corner(self):
        """NaN from a pruned (provably empty) shard must not void
        exactness - NaN from a shard with data must."""
        q = query_for(AggFunc.MAX)
        exact_answer = QueryResult(9.0, 0.0, 0.0, exact=True, n_covered=1)
        nan_with_data = QueryResult(math.nan, 0.0, 0.0, exact=False,
                                    n_partial=1)
        # Pruned shard left out entirely: exactness survives.
        alone = merge_results(q, [exact_answer], [False])
        assert alone.exact and alone.estimate == 9.0
        # Same shard kept but flagged provably empty: also survives.
        flagged = merge_results(q, [exact_answer, nan_with_data],
                                [False, True])
        assert flagged.exact and flagged.estimate == 9.0
        # A data-holding shard answering NaN voids the flag.
        voided = merge_results(q, [exact_answer, nan_with_data],
                               [False, False])
        assert not voided.exact and voided.estimate == 9.0

    @pytest.mark.parametrize("agg", ALL_AGGS)
    def test_all_shards_pruned(self, agg):
        """Merging the empty subset: SUM/COUNT are an exact 0 over no
        rows, every other aggregate is undefined (NaN, not exact)."""
        result = merge_results(query_for(agg), [], [])
        if agg in (AggFunc.SUM, AggFunc.COUNT):
            assert result.estimate == 0.0
            assert result.exact
            assert result.variance == 0.0
        else:
            assert math.isnan(result.estimate)
            assert not result.exact


# ---------------------------------------------------------------------- #
# end-to-end: routed == broadcast through the fleet lifecycle
# ---------------------------------------------------------------------- #
class TestRoutedEquivalence:
    def build(self, n_shards=4, sharding="attr", n=3000):
        rng = np.random.default_rng(7)
        fleet = ShardedJanusAQP(
            ("x", "y"), "y", ("x",), n_shards=n_shards,
            config=small_config(), sharding=sharding)
        tids = fleet.insert_many(make_rows(rng, n))
        fleet.initialize()
        return fleet, tids, rng

    @pytest.mark.parametrize("sharding", ["attr", "hash"])
    def test_routed_identical_to_broadcast(self, sharding):
        fleet, tids, rng = self.build(sharding=sharding)
        queries = range_queries(rng, 70)
        assert_identical(fleet.query_many(queries, route=True),
                         fleet.query_many(queries, route=False))
        fleet.close()

    def test_identity_through_mutations(self):
        """Interleaved inserts/deletes/rebalance/reoptimize, all 7
        aggregates, routed == broadcast at every checkpoint."""
        fleet, tids, rng = self.build()
        live = list(tids)
        queries = range_queries(rng, 35)

        def check():
            assert_identical(fleet.query_many(queries, route=True),
                             fleet.query_many(queries, route=False))

        check()
        fleet.delete_many(live[:400]); del live[:400]
        check()
        live += fleet.insert_many(make_rows(rng, 800))
        check()
        fleet.rebalance_range(live[100], live[100] + 500, dst=3)
        check()
        fleet.reoptimize()
        check()
        # Drain one shard completely: it must be pruned, not consulted.
        shard0 = [t for t in live if fleet.shard_of(t) == 0]
        fleet.delete_many(shard0)
        live = [t for t in live if t not in set(shard0)]
        assert fleet.summaries[0].n_live == 0
        check()
        fleet.close()

    def test_pruned_pairs_are_provably_empty(self):
        """Every (query, shard) pair the planner drops must have zero
        live rows inside the query rectangle - the router's one-sided
        guarantee, checked against ground truth."""
        fleet, tids, rng = self.build()
        fleet.delete_many(tids[::5])
        queries = range_queries(rng, 60)
        live = list(range(fleet.n_shards))
        plans = fleet._plan(queries, live)
        checked = 0
        for q, contrib in zip(queries, plans):
            for s in set(live) - set(contrib):
                count = fleet.tables[s].ground_truth(
                    q.with_agg(AggFunc.COUNT))
                assert count == 0.0, (q, s)
                checked += 1
        assert checked > 0    # attr placement must actually prune
        fleet.close()

    def test_single_shard_batch_fast_path(self):
        """A batch routing entirely to one shard returns that shard's
        raw answers (merge-of-one is the identity)."""
        fleet, tids, rng = self.build()
        hi = float(fleet.attr_bounds[0])
        queries = [Query(a, "y", ("x",),
                         Rectangle((0.0,), (hi * 0.9,)))
                   for a in ALL_AGGS]
        plans = fleet._plan(queries, list(range(fleet.n_shards)))
        assert all(p == [0] for p in plans)
        assert_identical(fleet.query_many(queries, route=True),
                         fleet.shards[0].query_many(queries))
        stats = fleet.routing_stats()
        assert stats["shards_touched_hist"][1] >= len(queries)
        fleet.close()

    def test_off_template_query_still_raises(self):
        fleet, tids, rng = self.build()
        bad = Query(AggFunc.SUM, "y", ("y",), Rectangle((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            fleet.query_many([bad])
        fleet.close()


# ---------------------------------------------------------------------- #
# attr placement
# ---------------------------------------------------------------------- #
class TestAttrPlacement:
    def test_quantile_bounds_balance_shards(self):
        rng = np.random.default_rng(11)
        fleet = ShardedJanusAQP(("x", "y"), "y", ("x",), n_shards=4,
                                config=small_config(), sharding="attr")
        fleet.insert_many(make_rows(rng, 4000))
        sizes = fleet.shard_sizes()
        assert min(sizes) > 0.5 * max(sizes)
        assert fleet.attr_bounds.shape == (3,)
        fleet.close()

    def test_explicit_bounds_respected(self):
        """A seed batch whose tertiles are 10 and 20 cuts there, and
        later rows are placed against those cuts."""
        fleet = ShardedJanusAQP(("x", "y"), "y", ("x",), n_shards=3,
                                config=small_config(), sharding="attr")
        fleet.insert_many(np.array([[10.0, 1.0], [10.0, 1.0],
                                    [20.0, 1.0], [20.0, 1.0]]))
        np.testing.assert_array_equal(fleet.attr_bounds, [10.0, 20.0])
        assert fleet.shard_sizes() == [0, 2, 2]
        fleet.insert_many(np.array([[5.0, 1.0], [15.0, 1.0],
                                    [25.0, 1.0], [10.0, 1.0]]))
        # cut value 10.0 -> shard 1
        assert fleet.shard_sizes() == [1, 4, 3]
        fleet.close()

    def test_range_sharding_rejected(self):
        """Tid-striped placement is gone; the name is an error."""
        with pytest.raises(ValueError, match="range"):
            ShardedJanusAQP(("x", "y"), "y", ("x",), sharding="range")

    def test_tid_maps_unchanged_by_attr_mode(self):
        rng = np.random.default_rng(13)
        fleet = ShardedJanusAQP(("x", "y"), "y", ("x",), n_shards=2,
                                config=small_config(), sharding="attr")
        rows = make_rows(rng, 500)
        tids = fleet.insert_many(rows)
        assert tids == list(range(500))
        for t in tids[::37]:
            s = fleet.shard_of(t)
            local_tid = fleet._placement.state_arrays()[1]
            np.testing.assert_array_equal(
                fleet.tables[s].rows_for([local_tid[t]])[0], rows[t])
        fleet.close()


# ---------------------------------------------------------------------- #
# persistence: the restored fleet routes identically
# ---------------------------------------------------------------------- #
class TestRoutingPersistence:
    def test_round_trip_routes_identically(self):
        rng = np.random.default_rng(17)
        fleet = ShardedJanusAQP(("x", "y"), "y", ("x",), n_shards=4,
                                config=small_config(), sharding="attr")
        tids = fleet.insert_many(make_rows(rng, 2500))
        fleet.initialize()
        fleet.delete_many(tids[::9])   # leave delete-widened bounds
        queries = range_queries(rng, 50)
        with tempfile.TemporaryDirectory() as path:
            save_sharded(fleet, path)
            restored = load_sharded(path)
        assert restored.sharding == "attr"
        assert restored.route_attr == fleet.route_attr
        np.testing.assert_array_equal(restored.attr_bounds,
                                      fleet.attr_bounds)
        live = list(range(fleet.n_shards))
        assert fleet._plan(queries, live) == restored._plan(queries, live)
        for s in range(fleet.n_shards):
            a, b = fleet.summaries[s], restored.summaries[s]
            assert a.n_live == b.n_live
            np.testing.assert_array_equal(a.counts, b.counts)
        # Estimates match to float round-off (the persistence layer's
        # usual guarantee); routing identity above is what's bit-exact.
        before = fleet.query_many(queries)
        after = restored.query_many(queries)
        for x, y in zip(before, after):
            assert y.estimate == pytest.approx(x.estimate, rel=1e-9,
                                               nan_ok=True)
            assert y.exact == x.exact
        fleet.close()
        restored.close()
