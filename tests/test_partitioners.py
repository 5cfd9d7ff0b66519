"""Tests for the engine's partitioners: BS (1-D) and the k-d tree.

The PASS dynamic program and the equi-depth split are benchmark
baselines (``benchmarks/lib``, tested in ``benchmarks/lib/test_dp.py``);
the DP is the optimal reference BS is held to here.
"""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queries import AggFunc, Rectangle
from repro.index.range_index import RangeIndex
from repro.partitioning.kdtree import KDTreePartitioner
from repro.partitioning.onedim import OneDimPartitioner
from repro.partitioning.spec import (TreeSpec, leaf_edges,
                                     tree_from_intervals)

# the paper-figure benchmarks' library (benchmarks/lib) imports as ``lib``
sys.path.insert(0, os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks")))

from lib.dp import DPPartitioner  # noqa: E402


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


class TestSpec:
    def test_tree_from_intervals(self):
        full = Rectangle((0.0,), (10.0,))
        tree = tree_from_intervals([3.0, 7.0], full)
        assert n_leaves(tree) == 3
        assert_valid(tree)
        leaves = list(tree.leaves())
        assert leaves[0].rect.lo[0] == 0.0
        assert leaves[-1].rect.hi[0] == 10.0

    def test_single_leaf(self):
        tree = tree_from_intervals([], Rectangle((0.0,), (1.0,)))
        assert n_leaves(tree) == 1

    def test_balanced_height(self):
        tree = tree_from_intervals(list(range(1, 64)),
                                   Rectangle((0.0,), (64.0,)))
        assert n_leaves(tree) == 64
        depth = [1] * len(tree.parent)            # rows come in preorder
        for row, up in enumerate(tree.parent.tolist()[1:], 1):
            depth[row] = depth[up] + 1
        assert max(depth) <= 8                    # log2(64)+1 = 7

    @pytest.mark.parametrize("k", sorted(set(range(1, 301)) | {
        2 ** e + d for e in range(1, 11) for d in (-1, 0, 1)}))
    def test_closed_form_split(self, k):
        """Leaves ``[a, b)`` split at ``a + 2^floor(log2(b - a - 1))``,
        whatever duplicate and out-of-domain cuts come along."""
        full = Rectangle((0.0,), (100.0,))
        cuts = np.linspace(0.0, 100.0, k + 1)[1:-1].tolist()
        boundaries = cuts[::-1] + cuts[:k // 3] + [-5.0, 100.0, 250.0]
        tree = tree_from_intervals(boundaries, full)
        nodes = list(tree.walk())
        size = {}
        for node in reversed(nodes):
            size[node.row] = sum(size[c] for c in node.children) or 1
        for node in nodes:
            if node.children:
                left, _ = node.children
                assert size[left] == \
                    2 ** math.floor(math.log2(size[node.row] - 1))
        assert [n.rect for n in tree.leaves()] == [
            Rectangle((lo,), (hi,))
            for lo, hi in zip(*leaf_edges(boundaries, full))]
        assert size[0] == k and tree.rect == full
        assert_valid(tree)

    def test_validate_catches_overlap(self):
        bad = TreeSpec.of([-1, 0, 0], [Rectangle((0.0,), (10.0,)),
                                       Rectangle((0.0,), (6.0,)),
                                       Rectangle((5.0,), (10.0,))])
        with pytest.raises(AssertionError):
            assert_valid(bad)

    def test_validate_catches_escape(self):
        bad = TreeSpec.of([-1, 0], [Rectangle((0.0,), (10.0,)),
                                    Rectangle((0.0,), (12.0,))])
        with pytest.raises(AssertionError):
            assert_valid(bad)


class TestOneDim:
    @pytest.mark.parametrize("agg", [AggFunc.SUM, AggFunc.COUNT,
                                     AggFunc.AVG])
    def test_partitions_cover_samples(self, agg):
        keys, values = sample_data()
        result = OneDimPartitioner(agg).partition(keys, values, k=16)
        assert n_leaves(result.tree) <= 16
        assert_valid(result.tree)
        leaves_cover_all(result.tree, keys)

    def test_k_leaves_created(self):
        keys, values = sample_data()
        result = OneDimPartitioner(AggFunc.SUM).partition(keys, values, 8)
        assert n_leaves(result.tree) == 8

    def test_respects_domain(self):
        keys, values = sample_data()
        result = OneDimPartitioner(AggFunc.SUM).partition(
            keys, values, 4, domain=(-10.0, 200.0))
        assert result.tree.rect.lo[0] == -10.0
        assert result.tree.rect.hi[0] == 200.0

    def test_max_error_near_optimal(self):
        """BS result within the paper's 2*rho*sqrt(2) of the DP optimum."""
        keys, values = sample_data(n=60, seed=3)
        k = 4
        bs = OneDimPartitioner(AggFunc.SUM).partition(keys, values, k)
        dp = DPPartitioner(AggFunc.SUM).partition(keys, values, k)
        factor = 2 * 2.0 * math.sqrt(2)
        assert bs.max_error <= factor * max(dp.max_error, 1e-12) + 1e-9

    def test_constant_values(self):
        keys = np.arange(50.0)
        values = np.full(50, 3.0)
        result = OneDimPartitioner(AggFunc.AVG).partition(keys, values, 5)
        leaves_cover_all(result.tree, keys)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            OneDimPartitioner(AggFunc.SUM).partition(
                np.array([]), np.array([]), 4)

    def test_k_larger_than_m(self):
        keys, values = sample_data(n=5)
        result = OneDimPartitioner(AggFunc.SUM).partition(keys, values, 50)
        assert n_leaves(result.tree) <= 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 10),
           st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                              st.floats(0.1, 10, allow_nan=False)),
                    min_size=4, max_size=80))
    def test_property_valid_partition(self, k, pairs):
        keys = np.array([p for p, _ in pairs])
        values = np.array([v for _, v in pairs])
        result = OneDimPartitioner(AggFunc.SUM).partition(keys, values, k)
        assert_valid(result.tree)
        leaves_cover_all(result.tree, keys)


class TestKDTree:
    def make_index(self, n=600, dim=2, seed=0):
        # Enough points that the AVG oracle's k-d cells over 16-point
        # index leaves are several levels deep.
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, size=(n, dim))
        vals = rng.lognormal(0, 1, n)
        idx = RangeIndex(dim)
        idx.add_many(range(n), pts, vals)
        return idx, pts, vals

    @pytest.mark.parametrize("agg", [AggFunc.SUM, AggFunc.COUNT,
                                     AggFunc.AVG])
    def test_builds_k_leaves(self, agg):
        idx, _, _ = self.make_index()
        root_rect = Rectangle((0.0, 0.0), (100.0, 100.0))
        result = KDTreePartitioner(agg).partition(idx, 16,
                                                  root_rect=root_rect)
        assert n_leaves(result.tree) == 16
        assert_valid(result.tree)

    def test_all_points_covered(self):
        idx, pts, _ = self.make_index()
        root_rect = Rectangle((0.0, 0.0), (100.0, 100.0))
        result = KDTreePartitioner(AggFunc.SUM).partition(
            idx, 12, root_rect=root_rect)
        for p in pts:
            hits = sum(1 for leaf in result.tree.leaves()
                       if leaf.rect.contains_point(p))
            assert hits == 1

    def test_one_dimensional(self):
        rng = np.random.default_rng(2)
        idx = RangeIndex(1)
        pts = rng.uniform(0, 10, 100)
        idx.add_many(range(100), pts, rng.normal(size=100))
        result = KDTreePartitioner(AggFunc.SUM).partition(
            idx, 8, root_rect=Rectangle((0.0,), (10.0,)))
        assert n_leaves(result.tree) == 8

    def test_five_dimensional(self):
        idx, _, _ = self.make_index(n=400, dim=5, seed=3)
        root_rect = Rectangle((0.0,) * 5, (100.0,) * 5)
        result = KDTreePartitioner(AggFunc.SUM).partition(
            idx, 32, root_rect=root_rect)
        assert n_leaves(result.tree) == 32
        assert_valid(result.tree)

    def test_empty_index_raises(self):
        idx = RangeIndex(2)
        with pytest.raises(ValueError):
            KDTreePartitioner(AggFunc.SUM).partition(idx, 4)

    def test_splits_high_variance_regions_more(self):
        """Leaves should be denser where values vary wildly."""
        rng = np.random.default_rng(5)
        idx = RangeIndex(1)
        # left half: constant values; right half: huge variance
        idx.add_many(range(200), rng.uniform(0, 50, 200), np.ones(200))
        idx.add_many(range(200, 400), rng.uniform(50, 100, 200),
                     rng.lognormal(3, 2, 200))
        result = KDTreePartitioner(AggFunc.SUM).partition(
            idx, 16, root_rect=Rectangle((0.0,), (100.0,)))
        left = sum(1 for leaf in result.tree.leaves()
                   if leaf.rect.hi[0] <= 50.0 + 1e-9)
        right = sum(1 for leaf in result.tree.leaves()
                    if leaf.rect.lo[0] >= 50.0 - 1e-9)
        assert right > left
