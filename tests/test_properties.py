"""Cross-module property-based tests (hypothesis).

The heavyweight invariants that tie the whole system together:

* a DPT whose statistics are exact (delta-only) answers *every*
  aggregate exactly, for arbitrary data, partitionings and queries;
* partition specs always tile the domain;
* request codecs round-trip arbitrary queries;
* rectangle algebra behaves like set algebra on sampled points.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.broker.requests import (decode, encode_query,
                                   query_from_dict, query_to_dict)
from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, Rectangle
from repro.partitioning.spec import tree_from_intervals

SCHEMA = ("x", "a")


def no_samples(leaf):
    return np.empty((0, 2))


@st.composite
def dataset_partition_query(draw):
    n = draw(st.integers(1, 60))
    xs = [draw(st.floats(0, 100, allow_nan=False)) for _ in range(n)]
    vals = [draw(st.floats(-50, 50, allow_nan=False)) for _ in range(n)]
    n_cuts = draw(st.integers(0, 5))
    cuts = sorted({draw(st.floats(1, 99, allow_nan=False))
                   for _ in range(n_cuts)})
    q_lo = draw(st.floats(-10, 110, allow_nan=False))
    q_hi = draw(st.floats(-10, 110, allow_nan=False))
    if q_lo > q_hi:
        q_lo, q_hi = q_hi, q_lo
    return xs, vals, cuts, (q_lo, q_hi)


class TestExactDPTMatchesBruteForce:
    """With exact node deltas *and* full per-leaf samples, SUM/COUNT
    queries are exact and AVG is a convex combination of matched
    per-node means (the Appendix-C weighting)."""

    def _build(self, xs, vals, cuts):
        spec = tree_from_intervals(cuts, Rectangle((0.0,), (100.0,)))
        dpt = DynamicPartitionTree(spec, SCHEMA, ("x",))
        dpt.set_population(0)
        rows = {}
        for x, a in zip(xs, vals):
            dpt.insert_row(np.array([x, a]))
            leaf = dpt.route_leaf((x,))
            rows.setdefault(leaf.node_id, []).append([x, a])

        def leaf_samples(leaf):
            got = rows.get(leaf.node_id)
            return np.array(got) if got else np.empty((0, 2))
        return dpt, leaf_samples

    @settings(max_examples=120, deadline=None)
    @given(dataset_partition_query())
    def test_sum_count(self, case):
        xs, vals, cuts, (lo, hi) = case
        dpt, leaf_samples = self._build(xs, vals, cuts)
        matched = [a for x, a in zip(xs, vals) if lo <= x <= hi]
        q = Query(AggFunc.SUM, "a", ("x",), Rectangle((lo,), (hi,)))
        res = dpt.query(q, leaf_samples)
        assert res.estimate == pytest.approx(sum(matched), abs=1e-6)
        res_c = dpt.query(q.with_agg(AggFunc.COUNT), leaf_samples)
        assert res_c.estimate == pytest.approx(len(matched), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(dataset_partition_query())
    def test_avg_brackets_matched_means(self, case):
        xs, vals, cuts, (lo, hi) = case
        dpt, leaf_samples = self._build(xs, vals, cuts)
        matched = [a for x, a in zip(xs, vals) if lo <= x <= hi]
        q = Query(AggFunc.AVG, "a", ("x",), Rectangle((lo,), (hi,)))
        res = dpt.query(q, leaf_samples)
        if matched:
            # Appendix C weights per-node matched means by N_i / N_q
            # where N_q counts *all* intersecting partitions - partial
            # leaves with zero matches inflate N_q without contributing,
            # so the weights sum to <= 1 and the estimate lies in the
            # matched-mean range extended to 0.
            lo_b = min(0.0, min(matched)) - 1e-9
            hi_b = max(0.0, max(matched)) + 1e-9
            assert lo_b <= res.estimate <= hi_b
            if res.n_partial == 0:
                assert res.estimate == pytest.approx(
                    sum(matched) / len(matched), abs=1e-6)
        else:
            assert math.isnan(res.estimate) or res.estimate == 0.0

    @settings(max_examples=80, deadline=None)
    @given(dataset_partition_query())
    def test_minmax(self, case):
        xs, vals, cuts, (lo, hi) = case
        dpt, leaf_samples = self._build(xs, vals, cuts)
        matched = [a for x, a in zip(xs, vals) if lo <= x <= hi]
        assume(matched)
        for agg, ref in ((AggFunc.MAX, max), (AggFunc.MIN, min)):
            q = Query(agg, "a", ("x",), Rectangle((lo,), (hi,)))
            res = dpt.query(q, leaf_samples)
            if agg is AggFunc.MAX:
                assert res.estimate >= ref(matched) - 1e-9
            else:
                assert res.estimate <= ref(matched) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(dataset_partition_query(),
           st.lists(st.integers(0, 59), min_size=0, max_size=20))
    def test_exact_after_deletions(self, case, delete_ranks):
        xs, vals, cuts, (lo, hi) = case
        dpt, _ = self._build(xs, vals, cuts)
        live = list(zip(xs, vals))
        for rank in sorted(set(delete_ranks), reverse=True):
            if rank < len(live):
                x, a = live.pop(rank)
                dpt.delete_row(np.array([x, a]))
        rows = {}
        for x, a in live:
            leaf = dpt.route_leaf((x,))
            rows.setdefault(leaf.node_id, []).append([x, a])

        def leaf_samples(leaf):
            got = rows.get(leaf.node_id)
            return np.array(got) if got else np.empty((0, 2))
        matched = [a for x, a in live if lo <= x <= hi]
        q = Query(AggFunc.SUM, "a", ("x",), Rectangle((lo,), (hi,)))
        res = dpt.query(q, leaf_samples)
        assert res.estimate == pytest.approx(sum(matched), abs=1e-6)


class TestPartitionTiling:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0.5, 99.5, allow_nan=False), min_size=0,
                    max_size=12),
           st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=30))
    def test_leaves_tile_domain(self, cuts, probes):
        tree = tree_from_intervals(cuts, Rectangle((0.0,), (100.0,)))
        tree.validate()
        for x in probes:
            hits = sum(1 for leaf in tree.leaves()
                       if leaf.rect.contains_point((x,)))
            assert hits == 1


class TestCodecRoundtrip:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(list(AggFunc)),
           st.integers(1, 4),
           st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=8,
                    max_size=8),
           st.integers(0, 10 ** 6),
           st.floats(0.0, 1.0, allow_nan=False),
           st.integers(1, 64))
    def test_query_roundtrip(self, agg, dim, nums, qid, frac, k):
        los = sorted(nums[:dim * 2])[:dim]
        his = sorted(nums[:dim * 2])[dim:dim * 2]
        attrs = tuple(f"c{i}" for i in range(dim))
        if agg is AggFunc.PERCENTILE:
            param = frac
        elif agg is AggFunc.TOPK:
            param = float(k)
        else:
            param = None
        q = Query(agg, "a", attrs, Rectangle(tuple(los), tuple(his)),
                  param)
        out = decode(encode_query(qid, q))
        assert out.query == q and out.query_id == qid
        assert query_from_dict(
            json.loads(json.dumps(query_to_dict(q)))) == q


class TestRectangleAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=8,
                    max_size=8),
           st.lists(st.floats(0, 10, allow_nan=False), min_size=2,
                    max_size=2))
    def test_intersection_is_set_intersection(self, bounds, point):
        a_lo = [min(bounds[0], bounds[1]), min(bounds[2], bounds[3])]
        a_hi = [max(bounds[0], bounds[1]), max(bounds[2], bounds[3])]
        b_lo = [min(bounds[4], bounds[5]), min(bounds[6], bounds[7])]
        b_hi = [max(bounds[4], bounds[5]), max(bounds[6], bounds[7])]
        a = Rectangle(tuple(a_lo), tuple(a_hi))
        b = Rectangle(tuple(b_lo), tuple(b_hi))
        inter = a.intersection(b)
        in_both = a.contains_point(point) and b.contains_point(point)
        if inter is None:
            assert not in_both
        else:
            assert inter.contains_point(point) == in_both
            # commutativity
            assert b.intersection(a) == inter

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10))
    def test_split_preserves_membership(self, lo, hi, x):
        if lo > hi:
            lo, hi = hi, lo
        r = Rectangle((lo,), (hi,))
        cut = lo + (hi - lo) / 2
        assume(cut < hi)                  # zero-width intervals can't split
        left, right = r.split(0, cut)
        if r.contains_point((x,)):
            assert left.contains_point((x,)) ^ right.contains_point((x,))
        else:
            assert not left.contains_point((x,))
            assert not right.contains_point((x,))
