"""Tests for DPT node statistics: catch-up estimates, deltas, MIN/MAX.

Each test drives one node: row 0 of a one-row :class:`NodeTable`.
"""

import numpy as np
import pytest

from repro.core.node import NodeTable
from repro.core.queries import Rectangle
from repro.partitioning.spec import TreeSpec

ROW = np.array([0])


class Node:
    """Row 0 of a one-node table, read and written one value at a time."""

    def __init__(self):
        self.t = NodeTable.from_spec(
            TreeSpec.of([-1], [Rectangle((0.0,), (10.0,))]), 1,
            minmax_pos=(0,), minmax_k=4)

    def add_catchup(self, v):
        self.t.add_catchup(ROW, np.array([[v]]))

    def insert(self, v):
        self.t.apply_delta(ROW, np.array([[v]]), 1)

    def delete(self, v):
        self.t.apply_delta(ROW, np.array([[v]]), -1)

    def count(self, n0, h_total):
        return self.t.count_estimates(n0, h_total)[0]

    def sum(self, n0, h_total):
        return self.t.sum_estimates(0, n0, h_total)[0]

    def var_sum(self, n0, h_total):
        return self.t.catchup_var_sums(0, n0, h_total)[0]

    def extreme(self, is_max):
        return self.t.extreme_estimates(0, is_max)[0]

    def set_exact_base(self, count, total, totalsq, lo=None, hi=None):
        self.t.set_exact_base(0, count, np.array([total]),
                              np.array([totalsq]),
                              None if lo is None else np.array([lo]),
                              None if hi is None else np.array([hi]))


class TestCatchup:
    def test_accumulators(self):
        n = Node()
        for v in [1.0, 2.0, 3.0]:
            n.add_catchup(v)
        assert n.t.h[0] == 3
        assert n.t.csum[0, 0] == 6.0
        assert n.t.csumsq[0, 0] == 14.0
        assert n.t.cmin[0, 0] == 1.0 and n.t.cmax[0, 0] == 3.0

    def test_count_estimate_scales(self):
        n = Node()
        for v in [1.0, 2.0]:
            n.add_catchup(v)
        # h_i = 2 out of h = 10 catch-up samples, N0 = 100 -> N_i ~ 20
        assert n.count(n0=100, h_total=10) == pytest.approx(20.0)

    def test_sum_estimate_scales(self):
        n = Node()
        for v in [1.0, 3.0]:
            n.add_catchup(v)
        # (N0/h) * sum = (100/10) * 4 = 40
        assert n.sum(n0=100, h_total=10) == pytest.approx(40.0)

    def test_estimate_unbiased_monte_carlo(self):
        """Scaled catch-up sums are unbiased for the node's true sum."""
        rng = np.random.default_rng(0)
        population = rng.lognormal(0, 1, 1000)
        node_mask = population > 1.0              # this node's tuples
        true_sum = population[node_mask].sum()
        n0 = 1000
        estimates = []
        for _ in range(300):
            pick = rng.choice(1000, size=100, replace=False)
            node = Node()
            h_total = 100
            for i in pick:
                if node_mask[i]:
                    node.add_catchup(population[i])
            estimates.append(node.sum(n0, h_total))
        assert np.mean(estimates) == pytest.approx(true_sum, rel=0.05)

    def test_catchup_variance_formula(self):
        n = Node()
        vals = [1.0, 2.0, 4.0]
        for v in vals:
            n.add_catchup(v)
        n0, h_total = 90, 9
        n_hat = (3 / 9) * 90
        s, s2 = sum(vals), sum(v * v for v in vals)
        expect = n_hat ** 2 / 27 * (3 * s2 - s * s)
        assert n.var_sum(n0, h_total) == pytest.approx(expect)

    def test_variance_zero_when_no_samples(self):
        assert Node().var_sum(100, 10) == 0.0


class TestDeltas:
    def test_insert_delete_roundtrip(self):
        n = Node()
        n.insert(5.0)
        n.insert(7.0)
        n.delete(5.0)
        assert n.t.delta_count[0] == 1
        assert n.t.dsum[0, 0] == 7.0
        assert n.t.dsumsq[0, 0] == 49.0

    def test_deltas_are_exact_in_estimates(self):
        n = Node()
        n.add_catchup(2.0)
        n.insert(10.0)
        # catch-up part (100/10)*2 = 20, plus exact delta 10
        assert n.sum(100, 10) == pytest.approx(30.0)
        assert n.count(100, 10) == pytest.approx(11.0)

    def test_delta_only_node(self):
        n = Node()
        n.insert(3.0)
        assert n.count(0, 0) == 1.0
        assert n.sum(0, 0) == 3.0


class TestExactBase:
    def test_exact_mode(self):
        n = Node()
        n.set_exact_base(50, 500.0, 6000.0, lo=1.0, hi=40.0)
        assert n.t.exact[0]
        assert n.count(999, 999) == 50.0
        assert n.sum(999, 999) == 500.0
        assert n.var_sum(999, 999) == 0.0

    def test_exact_plus_deltas(self):
        n = Node()
        n.set_exact_base(50, 500.0, 6000.0)
        n.insert(10.0)
        assert n.count(0, 0) == 51.0
        assert n.sum(0, 0) == 510.0


class TestMinMax:
    def test_insert_tracks_extremes(self):
        n = Node()
        for v in [5.0, 1.0, 9.0]:
            n.insert(v)
        assert n.extreme(True)[0] == 9.0 and n.extreme(False)[0] == 1.0

    def test_combines_catchup_extremes(self):
        n = Node()
        n.add_catchup(100.0)
        n.insert(5.0)
        assert n.extreme(True)[0] == 100.0

    def test_none_when_empty(self):
        assert Node().extreme(True) == (None, False)

    def test_exact_flag_from_exact_base(self):
        n = Node()
        n.set_exact_base(10, 50.0, 600.0, lo=2.0, hi=8.0)
        assert n.extreme(True) == (8.0, True)


class TestAvgVariance:
    def test_formula(self):
        n = Node()
        for v in [1.0, 2.0]:
            n.add_catchup(v)
        w = 0.5
        s, s2 = 3.0, 5.0
        expect = w * w / 8 * (2 * s2 - s * s)
        assert w * w * n.t.catchup_var_bases(0)[0] == pytest.approx(expect)
