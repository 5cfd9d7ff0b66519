"""The benchmarks' 1-D baselines: the PASS minimax dynamic program
(:mod:`lib.dp`, Table 3) and the equi-depth split (:mod:`lib.equidepth`,
the SRS strata and the ablation's structure-blind partitioner).

The DP must be optimal for the max-variance oracle it shares with the
engine's binary-search partitioner, and its vectorised AVG cost row
must equal the scalar oracle bit for bit.
"""

import math

import numpy as np
import pytest

from lib.dp import DPPartitioner
from lib.equidepth import equidepth_boundaries, equidepth_tree
from repro.core.queries import AggFunc
from repro.partitioning.maxvar import PrefixStats
from repro.partitioning.onedim import OneDimPartitioner


def sample_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.uniform(0, 100, n)
    values = rng.lognormal(0, 1, n)
    return keys, values


def assert_valid(spec):
    """The partition-tree invariants (Section 2.3.1): every inner node's
    children, in row order, tile it along one dimension - meeting at
    ``nextafter`` - and equal it in every other, so each lies inside it,
    siblings are disjoint and together they cover it."""
    nodes = list(spec.walk())
    rects = {node.row: node.rect for node in nodes}
    for node in nodes:
        kids = [rects[row] for row in node.children]
        if not kids:
            continue
        lo, hi = node.rect.lo, node.rect.hi
        axes = {j for kid in kids for j in range(len(lo))
                if (kid.lo[j], kid.hi[j]) != (lo[j], hi[j])}
        assert len(axes) <= 1, "children differ in two dimensions"
        j = axes.pop() if axes else 0
        assert (kids[0].lo[j], kids[-1].hi[j]) == (lo[j], hi[j]), \
            "children do not reach the parent's ends"
        for a, b in zip(kids, kids[1:]):
            assert b.lo[j] == math.nextafter(a.hi[j], math.inf), \
                "siblings overlap or leave a gap"


def n_leaves(spec):
    return sum(1 for _ in spec.leaves())


def leaves_cover_all(tree, keys):
    """Every key must land in exactly one leaf interval."""
    for key in keys:
        hits = sum(1 for leaf in tree.leaves()
                   if leaf.rect.contains_point((key,)))
        assert hits == 1


class TestDP:
    def test_dp_is_optimal_for_oracle(self):
        """DP's max bucket error <= BS's (it searches exhaustively)."""
        keys, values = sample_data(n=80, seed=7)
        for k in (2, 4, 8):
            dp = DPPartitioner(AggFunc.SUM).partition(keys, values, k)
            bs = OneDimPartitioner(AggFunc.SUM).partition(keys, values, k)
            assert dp.max_error <= bs.max_error + 1e-9

    def test_boundaries_are_monotone(self):
        keys, values = sample_data(n=50)
        result = DPPartitioner(AggFunc.SUM).partition(keys, values, 5)
        assert result.bucket_index_bounds == \
            sorted(result.bucket_index_bounds)
        assert result.bucket_index_bounds[0] == 0
        assert result.bucket_index_bounds[-1] == 50

    @pytest.mark.parametrize("agg", [AggFunc.SUM, AggFunc.COUNT,
                                     AggFunc.AVG])
    def test_all_aggregates(self, agg):
        keys, values = sample_data(n=40)
        result = DPPartitioner(agg).partition(keys, values, 4)
        assert_valid(result.tree)
        leaves_cover_all(result.tree, keys)

    def test_count_equal_depth_optimality(self):
        """For COUNT the optimum is equal-size buckets (paper D.2)."""
        keys = np.sort(sample_data(n=64)[0])
        values = np.ones(64)
        dp = DPPartitioner(AggFunc.COUNT).partition(keys, values, 4)
        sizes = np.diff(dp.bucket_index_bounds)
        assert sizes.max() - sizes.min() <= 1


class TestEquidepth:
    def test_boundaries_equalize_counts(self):
        keys = np.arange(100.0)
        cuts = equidepth_boundaries(keys, 4)
        assert len(cuts) == 3
        assert cuts == [24.0, 49.0, 74.0]

    def test_tree(self):
        keys = np.arange(100.0)
        tree = equidepth_tree(keys, 8)
        assert n_leaves(tree) == 8
        assert_valid(tree)

    def test_duplicate_keys_deduped(self):
        keys = np.array([1.0] * 50 + [2.0] * 50)
        cuts = equidepth_boundaries(keys, 10)
        assert len(cuts) <= 2

    def test_empty(self):
        assert equidepth_boundaries(np.array([]), 4) == []


class TestDPAvgVectorized:
    def test_cost_row_bit_identical_to_scalar_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0, 1, 150)
        prefix = PrefixStats(values)
        for window in (4, 9, 60, 149, 500):
            for i in (1, 2, 7, 83, 150):
                new = DPPartitioner._avg_cost_row(prefix.p1, prefix.p2,
                                                  i, window)
                old = np.array([prefix.max_var_avg(int(lo), i, window)
                                for lo in range(i)])
                assert np.array_equal(new, old)

    def test_dp_avg_partition_unchanged(self):
        rng = np.random.default_rng(9)
        keys = np.sort(rng.uniform(0, 10, 120))
        vals = rng.lognormal(0, 1, 120)
        res = DPPartitioner(AggFunc.AVG).partition(keys, vals, 8,
                                                   n_population=1200)
        assert len(res.boundaries) <= 7
        assert res.max_error >= 0.0
