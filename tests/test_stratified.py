"""Tests for the pool's virtual strata and the allocation checks."""

import math

import numpy as np

from repro.core.table import Table
from repro.sampling.pool import SamplePool
from repro.sampling.stratified import (min_samples_per_stratum,
                                       proportional_allocation_ok)


def setup(n=300, seed=0):
    """A pool of 60 over a one-column table of 0..n-1."""
    t = Table(("x",))
    t.insert_many(np.arange(n, dtype=float).reshape(-1, 1))
    return t, SamplePool(t, sample_rate=0.1, min_pool=60, seed=seed)


def by_parity(rows):
    return rows[:, 0].astype(np.int64) % 2


def members(pool):
    return {tid for key in pool.sizes() for tid in pool.tids(key)}


class TestRouting:
    def test_initial_routing(self):
        t, pool = setup()
        pool.initialize(by_parity)
        sizes = pool.sizes()
        assert sum(sizes.values()) == len(pool) == 60
        assert set(sizes) <= {0, 1}
        for key in sizes:
            assert (pool.matrix(key)[:, 0] % 2 == key).all()

    def test_add_remove_tracking(self):
        t, pool = setup()
        pool.initialize(by_parity)
        for _ in range(300):
            pool.insert_many((t.insert((float(len(t)),)),))
        assert sum(pool.sizes().values()) == len(pool)
        # strata and reservoir membership agree exactly
        assert members(pool) == set(pool.reservoir.tids())
        for key in pool.sizes():
            assert pool.stratum_size(key) == len(pool.tids(key))
            assert np.array_equal(pool.matrix(key),
                                  t.rows_for(pool.tids(key)))

    def test_unrouted_pool_is_one_stratum(self):
        t, pool = setup()
        pool.initialize()
        assert pool.sizes() == {0: len(pool)}
        assert pool.stratum_size(7) == 0 and pool.tids(7) == []
        assert pool.matrix(7).shape == (0, 1)

    def test_reroute(self):
        t, pool = setup()
        pool.initialize(by_parity)
        pool.reroute(lambda rows: np.zeros(len(rows), dtype=np.int64))
        assert set(pool.sizes()) == {0}
        assert pool.stratum_size(0) == len(pool)
        # re-filed in join order, whatever the blocks held before
        assert pool.tids(0) == list(pool.reservoir)
        pool.reroute(by_parity)
        assert members(pool) == set(pool.reservoir.tids())
        assert set(pool.sizes()) <= {0, 1}

    def test_reset_on_reservoir_reinit(self):
        t, pool = setup()
        pool.initialize(by_parity)
        before = members(pool)
        pool.initialize(by_parity)                # fresh resample
        assert sum(pool.sizes().values()) == len(pool)
        assert members(pool) == set(pool.reservoir.tids()) != before


class TestAllocation:
    def test_large_stratum_ok(self):
        # alpha = 1%, k = 64: floor = 1600*log(64) ~ 6655
        assert proportional_allocation_ok(5_000, 0.01, 64) is False
        assert proportional_allocation_ok(10_000, 0.01, 64) is True

    def test_zero_rate(self):
        assert proportional_allocation_ok(10_000, 0.0, 8) is False

    def test_floor_formula(self):
        assert min_samples_per_stratum(0.01, 1000) == \
            math.log(1000)

    def test_appendix_b_example(self):
        """The paper's worked example: N=4M, alpha=1% supports k<=303."""
        n, alpha = 4_000_000, 0.01
        # every stratum in an equal split of size N/k must pass
        for k in (64, 128, 303):
            assert proportional_allocation_ok(n / k, alpha, k)
        assert not proportional_allocation_ok(n / 3000, alpha, 3000)
