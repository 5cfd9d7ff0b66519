"""Tests for the sum-product network substrate."""

import os
import sys
import numpy as np
import pytest

# the paper-figure benchmarks' library (benchmarks/lib) imports as ``lib``
sys.path.insert(0, os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks")))

from lib.spn import (HistogramLeaf, ProductNode, SumNode,  # noqa: E402
                     learn_spn)



class TestHistogramLeaf:
    def test_total_mass_one(self):
        leaf = HistogramLeaf("x", np.random.default_rng(0).normal(size=500),
                             n_bins=16)
        assert leaf.prob({}) == pytest.approx(1.0)

    def test_range_mass(self):
        vals = np.concatenate([np.zeros(50), np.ones(50)])
        leaf = HistogramLeaf("x", vals, n_bins=2)
        # covering the whole first bin captures exactly its half of mass
        assert leaf.prob({"x": (-0.1, 0.5)}) == pytest.approx(0.5, abs=0.05)

    def test_expectation_full_range(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 10, 2000)
        leaf = HistogramLeaf("x", vals, n_bins=32)
        assert leaf.expectation("x", {}) == pytest.approx(vals.mean(),
                                                          rel=0.02)

    def test_expectation_restricted(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 10, 5000)
        leaf = HistogramLeaf("x", vals, n_bins=50)
        # E[x * 1(x < 5)] for U(0,10) = integral x/10 dx over [0,5] = 1.25
        assert leaf.expectation("x", {"x": (0.0, 5.0)}) == \
            pytest.approx(1.25, rel=0.1)

    def test_degenerate_constant(self):
        leaf = HistogramLeaf("x", np.full(10, 3.0), n_bins=4)
        assert leaf.prob({"x": (2.9, 3.1)}) == pytest.approx(1.0)


class TestProductNode:
    def test_independence(self):
        rng = np.random.default_rng(3)
        lx = HistogramLeaf("x", rng.uniform(0, 1, 1000), 10)
        ly = HistogramLeaf("y", rng.uniform(0, 1, 1000), 10)
        p = ProductNode([lx, ly])
        mass = p.prob({"x": (0.0, 0.5), "y": (0.0, 0.5)})
        assert mass == pytest.approx(0.25, abs=0.03)

    def test_expectation_factors(self):
        rng = np.random.default_rng(4)
        lx = HistogramLeaf("x", rng.uniform(0, 2, 2000), 20)
        ly = HistogramLeaf("y", rng.uniform(0, 1, 2000), 20)
        p = ProductNode([lx, ly])
        # E[x * 1(y < 0.5)] = E[x] * P(y<0.5) = 1.0 * 0.5
        assert p.expectation("x", {"y": (0.0, 0.5)}) == \
            pytest.approx(0.5, rel=0.1)


class TestSumNode:
    def test_mixture(self):
        a = HistogramLeaf("x", np.zeros(100) + 1.0, 4)
        b = HistogramLeaf("x", np.zeros(100) + 9.0, 4)
        s = SumNode([a, b], [0.3, 0.7])
        assert s.prob({"x": (8.0, 10.0)}) == pytest.approx(0.7, abs=0.02)
        assert s.expectation("x", {}) == pytest.approx(0.3 * 1 + 0.7 * 9,
                                                       rel=0.05)


class TestLearnSPN:
    def test_learns_on_independent_columns(self):
        rng = np.random.default_rng(5)
        data = np.column_stack([rng.uniform(0, 1, 3000),
                                rng.uniform(0, 1, 3000)])
        model = learn_spn(data, ("x", "y"), min_rows=128, seed=0)
        mass = model.prob({"x": (0.0, 0.5), "y": (0.0, 0.5)})
        assert mass == pytest.approx(0.25, abs=0.05)

    def test_learns_correlated_columns(self):
        """Row clustering must capture strong correlation."""
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(0, 0.3, 1500),
                            rng.normal(5, 0.3, 1500)])
        y = x * 2.0 + rng.normal(0, 0.2, 3000)
        data = np.column_stack([x, y])
        model = learn_spn(data, ("x", "y"), min_rows=256, seed=1)
        # P(x in left cluster AND y in right cluster's range) ~ 0
        joint = model.prob({"x": (-1.0, 1.0), "y": (8.0, 12.0)})
        assert joint < 0.05
        # marginals remain correct
        assert model.prob({"x": (-1.0, 1.0)}) == pytest.approx(0.5,
                                                               abs=0.07)

    def test_count_estimate_quality(self):
        rng = np.random.default_rng(7)
        data = np.column_stack([rng.lognormal(0, 1, 4000),
                                rng.normal(10, 2, 4000)])
        model = learn_spn(data, ("a", "b"), min_rows=256, seed=2)
        lo, hi = 8.0, 12.0
        truth = ((data[:, 1] >= lo) & (data[:, 1] <= hi)).mean()
        assert model.prob({"b": (lo, hi)}) == pytest.approx(truth,
                                                            abs=0.05)

    def test_model_size_counts_nodes(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 1, size=(2000, 3))
        model = learn_spn(data, ("x", "y", "z"), min_rows=128, seed=3)
        assert model.size() >= 3

    def test_small_data_leaf_product(self):
        data = np.random.default_rng(9).uniform(0, 1, size=(20, 2))
        model = learn_spn(data, ("x", "y"), min_rows=256, seed=0)
        assert isinstance(model, (ProductNode, HistogramLeaf))
