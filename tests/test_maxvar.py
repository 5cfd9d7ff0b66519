"""Tests for the max-variance oracle M(R) and its variance kernels."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queries import AggFunc, Rectangle
from repro.index.range_index import RangeIndex
from repro.partitioning.maxvar import (MaxVarOracle, PrefixStats,
                                       avg_query_variance,
                                       count_query_variance,
                                       sum_query_variance)


# ---------------------------------------------------------------------- #
# kernels
# ---------------------------------------------------------------------- #
class TestKernels:
    def test_sum_variance_formula(self):
        # bucket of 4 samples, query matches values [1, 2]
        # nu = N^2/m^3 (m*Sum a^2 - (Sum a)^2), N = pop_ratio * m
        v = sum_query_variance(pop_ratio=10.0, m_bucket=4, q_sum=3.0,
                               q_sumsq=5.0)
        n = 40.0
        assert v == pytest.approx(n * n / 64 * (4 * 5 - 9))

    def test_sum_variance_nonnegative(self):
        assert sum_query_variance(1.0, 3, 100.0, 0.0) == 0.0

    def test_count_closed_form(self):
        # max at c = m//2: N^2/m^3 (m c - c^2)
        v = count_query_variance(pop_ratio=2.0, m_bucket=10)
        n = 20.0
        assert v == pytest.approx(n * n / 1000 * (10 * 5 - 25))

    def test_count_degenerate(self):
        assert count_query_variance(5.0, 1) == 0.0
        assert count_query_variance(5.0, 0) == 0.0

    def test_avg_variance_formula(self):
        v = avg_query_variance(m_bucket=8, q_count=2, q_sum=3.0,
                               q_sumsq=5.0)
        assert v == pytest.approx((8 * 5 - 9) / (8 * 4))

    def test_avg_degenerate(self):
        assert avg_query_variance(0, 2, 1.0, 1.0) == 0.0
        assert avg_query_variance(8, 0, 1.0, 1.0) == 0.0


# ---------------------------------------------------------------------- #
# prefix-sum oracles on sorted 1-D data
# ---------------------------------------------------------------------- #
class TestPrefixStats:
    def test_stats(self):
        p = PrefixStats(np.array([1.0, 2.0, 3.0]))
        assert p.stats(0, 3) == (3, 6.0, 14.0)
        assert p.stats(1, 2) == (1, 2.0, 4.0)

    def test_count_oracle_matches_closed_form(self):
        p = PrefixStats(np.ones(10))
        assert p.max_var_count(0, 10, 3.0) == \
            pytest.approx(count_query_variance(3.0, 10))

    def test_sum_oracle_is_lower_bound(self):
        """The half-split witness never exceeds the true max variance."""
        rng = np.random.default_rng(0)
        values = np.sort(rng.normal(5, 3, 30))
        p = PrefixStats(values)
        m = 30
        oracle = p.max_var_sum(0, m, pop_ratio=1.0)
        # brute force over all contiguous windows [i, j)
        best = 0.0
        for i in range(m):
            for j in range(i + 1, m + 1):
                c, s, s2 = p.stats(i, j)
                best = max(best, sum_query_variance(1.0, m, s, s2))
        assert oracle <= best + 1e-9
        assert oracle >= best / 4.0 - 1e-9        # 1/4-approximation

    def test_avg_oracle_bounds(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 2, 40)
        p = PrefixStats(values)
        window = 5
        oracle = p.max_var_avg(0, 40, window)
        # brute force over all contiguous windows of exactly `window`
        best = 0.0
        for i in range(40 - window + 1):
            c, s, s2 = p.stats(i, i + window)
            best = max(best, avg_query_variance(40, window, s, s2))
        assert oracle == pytest.approx(best)

    def test_max_var_dispatch(self):
        p = PrefixStats(np.arange(10, dtype=float))
        assert p.max_var(0, 10, AggFunc.COUNT, 1.0, 3) > 0
        assert p.max_var(0, 10, AggFunc.SUM, 1.0, 3) > 0
        assert p.max_var(0, 10, AggFunc.AVG, 1.0, 3) >= 0
        with pytest.raises(ValueError):
            p.max_var(0, 10, AggFunc.MIN, 1.0, 3)

    def test_single_sample_zero(self):
        p = PrefixStats(np.array([7.0]))
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
            assert p.max_var(0, 1, agg, 1.0, 3) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e150, -1e150,
                                1e-150, -1e-150, 7e153, 1e-160]),
               st.floats(-1e6, 1e6),
               st.floats(1e140, 1e160) | st.floats(-1e160, -1e140)),
               min_size=1, max_size=40),
           pop_ratio=st.sampled_from([1.0, 3.7, 1e6, 1e-6]),
           seed=st.integers(0, 2 ** 16))
    def test_sum_many_is_bit_equal_to_scalar(self, values, pop_ratio,
                                             seed):
        """The vector kernel the 1-D fail table runs on: every entry
        equals the scalar oracle's IEEE double, over every bucket
        ``[i, j)`` (``m_b`` = 0, 1, 2, ... included) and in the fail
        table's ``(depth, start)`` broadcast shape."""
        rng = np.random.default_rng(seed)
        values = np.array(values)
        values = values[rng.permutation(values.size)]
        with np.errstate(all="ignore"):
            p = PrefixStats(values)
            m = p.m
            i, j = np.triu_indices(m + 1)
            flat = p.max_var_sum_many(i, j, pop_ratio)
            probes = rng.integers(0, m + 1, (3, m + 1))
            start = np.arange(m + 1)
            probes = np.maximum(probes, start)
            grid = p.max_var_sum_many(start, probes, pop_ratio)
        assert flat.shape == i.shape and grid.shape == probes.shape
        for a, b, got in zip(i.tolist(), j.tolist(), flat.tolist()):
            assert repr(got) == repr(p.max_var_sum(a, b, pop_ratio)), \
                (a, b)
        for (d, a), b in np.ndenumerate(probes):
            assert repr(float(grid[d, a])) == \
                repr(p.max_var_sum(a, int(b), pop_ratio)), (a, b)


# ---------------------------------------------------------------------- #
# index-backed oracle
# ---------------------------------------------------------------------- #
def build_index(points, values, dim=1):
    idx = RangeIndex(dim)
    idx.add_many(range(len(values)), points, values)
    return idx


class TestMaxVarOracle:
    def test_count_uses_closed_form(self):
        idx = build_index(np.arange(20.0), np.ones(20))
        oracle = MaxVarOracle(idx, AggFunc.COUNT, pop_ratio=5.0)
        rect = Rectangle((0.0,), (19.0,))
        res = oracle.max_variance(rect)
        assert res.variance == pytest.approx(count_query_variance(5.0, 20))

    def test_sum_witness_is_valid_subrectangle(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, 50)
        vals = rng.normal(10, 5, 50)
        idx = build_index(pts, vals)
        oracle = MaxVarOracle(idx, AggFunc.SUM, pop_ratio=2.0)
        rect = Rectangle((0.0,), (100.0,))
        res = oracle.max_variance(rect)
        assert res.variance > 0
        assert rect.contains_rect(res.witness)
        # witness variance is reproducible from its own stats
        _, w_vals, _ = idx.report(res.witness)
        m_b = idx.count(rect)
        assert res.variance == pytest.approx(
            sum_query_variance(2.0, m_b, w_vals.sum(),
                               (w_vals * w_vals).sum()), rel=1e-9)

    def test_sum_underestimates_brute_force(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, 24)
        vals = rng.normal(0, 3, 24)
        idx = build_index(pts, vals)
        oracle = MaxVarOracle(idx, AggFunc.SUM, pop_ratio=1.0)
        rect = Rectangle((0.0,), (10.0,))
        res = oracle.max_variance(rect)
        # brute-force best over all coordinate windows
        order = np.argsort(pts)
        sv = vals[order]
        m = 24
        best = 0.0
        for i in range(m):
            for j in range(i + 1, m + 1):
                seg = sv[i:j]
                best = max(best, sum_query_variance(
                    1.0, m, float(seg.sum()), float((seg ** 2).sum())))
        assert res.variance <= best + 1e-9
        assert res.variance >= best / 4 - 1e-9

    def test_avg_witness_valid(self):
        rng = np.random.default_rng(5)
        # Enough points that the index's 16-point k-d leaves fall under
        # the delta*m cell bound: both candidate families run.
        pts = rng.uniform(0, 100, size=(240, 2))
        vals = rng.lognormal(1, 1, 240)
        idx = RangeIndex(2)
        idx.add_many(range(240), pts, vals)
        oracle = MaxVarOracle(idx, AggFunc.AVG, pop_ratio=3.0, delta=0.1)
        rect = Rectangle((0.0, 0.0), (100.0, 100.0))
        res = oracle.max_variance(rect)
        assert res.variance >= 0
        assert rect.contains_rect(res.witness) or res.witness == rect

    def test_empty_rect(self):
        idx = build_index(np.arange(10.0), np.ones(10))
        oracle = MaxVarOracle(idx, AggFunc.SUM, pop_ratio=1.0)
        res = oracle.max_variance(Rectangle((50.0,), (60.0,)))
        assert res.variance == 0.0

    def test_rejects_unsupported_agg(self):
        idx = build_index(np.arange(4.0), np.ones(4))
        with pytest.raises(ValueError):
            MaxVarOracle(idx, AggFunc.MAX, pop_ratio=1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                              st.floats(-10, 10, allow_nan=False)),
                    min_size=2, max_size=40))
    def test_property_oracle_nonnegative_and_bounded(self, pairs):
        pts = np.array([p for p, _ in pairs])
        vals = np.array([v for _, v in pairs])
        idx = build_index(pts, vals)
        oracle = MaxVarOracle(idx, AggFunc.SUM, pop_ratio=1.0)
        rect = Rectangle((float(pts.min()),), (float(pts.max()),))
        res = oracle.max_variance(rect)
        assert res.variance >= 0
        # whole-bucket variance of the worst half cannot exceed the
        # largest possible single-window value with the same scale
        m = len(pairs)
        upper = sum_query_variance(1.0, m, float(vals.sum()),
                                   float((vals ** 2).sum()))
        total_s2 = float((vals ** 2).sum())
        assert res.variance <= max(upper, m * total_s2 / m + 1e-9) * m
