"""The pooled sample is stored once: a model-based check of SamplePool.

One ``hypothesis`` state machine drives a :class:`SamplePool` (with a
range index and a routing function) over a small :class:`Table` through
every way its membership can change - insert batches, delete batches, a
sweep that shrinks it below ``m`` (redraw), growth past the 25%
hysteresis (redraw at a larger target), ``resample``, ``reroute`` and
``restore`` - and after every step holds the invariants that used to be
spread over five stores and an observer protocol:

* the strata's tids are exactly the reservoir's members;
* every stratum block holds ``table.rows_for(tids)`` verbatim, under the
  key the routing function gives those rows;
* the stratum sizes add up to the pool size;
* the index holds exactly the members, at their coordinates and values;
* what a call returns - the stratum keys of the members it removed and
  added, ``None`` for a redraw - is the symmetric difference it actually
  applied, and ``version`` moved by one per report.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.table import Table
from repro.sampling.pool import SamplePool

RATE, MIN_POOL = 0.25, 8


def is_redraw(reports):
    return len(reports) == 1 and reports[0] is None


def bucket_route(n_buckets):
    """Rows -> stratum keys: ``n_buckets`` equal-width buckets of x."""
    def route(rows):
        return (np.floor(rows[:, 0]).astype(np.int64) % n_buckets) * 3
    return route


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)
        self.table = Table(("x", "a"))
        self.table.insert_many(self._fresh_rows(40))
        self.pool = SamplePool(self.table, RATE, MIN_POOL, seed=1,
                               index_on=([0], 1))
        self.route = None

    def _fresh_rows(self, n):
        return np.column_stack([self.rng.uniform(0, 12, n),
                                self.rng.normal(5, 2, n)])

    def members(self):
        return self.pool.reservoir.tids()

    def filed(self):
        """Every member's stratum key."""
        return {t: key for key in self.pool.sizes()
                for t in self.pool.tids(key)}

    def _insert(self, n):
        return self.table.insert_many(self._fresh_rows(n))

    def _check_reports(self, before, version, reports):
        """Returned strata == those of the symmetric difference applied
        (``before``: :meth:`filed` before the call)."""
        assert self.pool.version == version + len(reports)
        if any(keys is None for keys in reports):
            assert reports[-1] is None      # a redraw ends the call
            return
        after = self.filed()
        want = [before[t] for t in before.keys() - after.keys()] + \
            [after[t] for t in after.keys() - before.keys()]
        assert len(reports) == bool(want)
        got = np.concatenate(reports) if reports else np.empty(0)
        assert sorted(got.tolist()) == sorted(want)

    # ------------------------------------------------------------------ #
    @initialize(n_buckets=st.sampled_from([None, 1, 3, 5]))
    def draw(self, n_buckets):
        self.route = None if n_buckets is None else bucket_route(n_buckets)
        assert is_redraw(self.pool.initialize(self.route))

    @rule(n=st.integers(1, 12))
    def insert_batch(self, n):
        before, version = self.filed(), self.pool.version
        target = self.pool.reservoir.target_size
        reports = self.pool.insert_many(self._insert(n))
        self._check_reports(before, version, reports)
        grew = self.pool.reservoir.target_size > target
        assert grew == any(block is None for block in reports)

    @precondition(lambda self: len(self.table) > MIN_POOL + 6)
    @rule(data=st.data())
    def delete_batch(self, data):
        live = [int(t) for t in self.table.live_tids()]
        n = data.draw(st.integers(1, 6))
        picks = data.draw(st.lists(st.sampled_from(live), min_size=n,
                                   max_size=n, unique=True))
        before, version = self.filed(), self.pool.version
        self.table.delete_many(picks)
        reports = self.pool.delete_many(picks)
        self._check_reports(before, version, reports)

    @precondition(lambda self: len(self.table) - len(self.pool)
                  >= self.pool.reservoir.min_size <= len(self.pool))
    @rule()
    def shrink_below_m(self):
        """Delete members until fewer than m are left: one redraw."""
        res = self.pool.reservoir
        victims = self.members()[:len(res) - res.min_size + 1]
        n_resamples = res.n_resamples
        self.table.delete_many(victims)
        assert is_redraw(self.pool.delete_many(victims))
        assert res.n_resamples == n_resamples + 1
        assert len(res) == min(res.target_size, len(self.table))

    @rule()
    def grow_past_hysteresis(self):
        """Insert until the target rule asks for > 1.25x: one redraw."""
        res = self.pool.reservoir
        need = int(1.25 * res.target_size / (2 * RATE)) + 2 - len(self.table)
        before, version, target = self.filed(), self.pool.version, \
            res.target_size
        reports = self.pool.insert_many(self._insert(max(need, 1)))
        assert reports[-1] is None and res.target_size > target
        assert res.target_size == self.pool.target() == len(res)
        self._check_reports(before, version, reports)

    @rule()
    def resample(self):
        assert is_redraw(self.pool.resample(self.route))
        assert self.pool.reservoir.target_size == self.pool.target()

    @rule(n_buckets=st.sampled_from([None, 1, 2, 4, 7]))
    def reroute(self, n_buckets):
        members, view = self.members(), self.pool.index
        self.route = None if n_buckets is None else bucket_route(n_buckets)
        self.pool.reroute(self.route)
        assert self.members() == members            # membership kept,
        assert self.pool.index is view              # index untouched,
        joined = list(self.pool.reservoir)          # re-filed in join order
        for key in self.pool.sizes():
            tids = self.pool.tids(key)
            assert tids == [t for t in joined if t in set(tids)]

    @rule(data=st.data())
    def restore(self, data):
        live = [int(t) for t in self.table.live_tids()]
        tids = data.draw(st.lists(st.sampled_from(live), min_size=1,
                                  max_size=min(20, len(live)), unique=True))
        assert is_redraw(self.pool.restore(tids, self.route))
        assert self.members() == tids == list(self.pool.reservoir)

    # ------------------------------------------------------------------ #
    @invariant()
    def stored_once_and_in_step(self):
        pool, members = self.pool, self.members()
        if not members:
            return                                  # before the first draw
        assert len(set(members)) == len(members) == len(pool)
        sizes = pool.sizes()
        assert sum(sizes.values()) == len(pool)
        filed = [t for key in sizes for t in pool.tids(key)]
        assert sorted(filed) == sorted(members)
        for key, size in sizes.items():
            tids, block = pool.tids(key), pool.matrix(key)
            assert pool.stratum_size(key) == size == len(tids)
            assert np.array_equal(block, self.table.rows_for(tids))
            if self.route is None:
                assert key == 0
            else:
                assert (self.route(block) == key).all()
        assert np.array_equal(pool.rows(members),
                              self.table.rows_for(members))
        assert sorted(map(tuple, pool.rows())) == \
            sorted(map(tuple, self.table.rows_for(members)))
        assert all(t in pool for t in members)
        coords, values, tids = pool.index.all_items()
        assert tids.tolist() == list(pool.reservoir)
        rows = self.table.rows_for(tids)
        assert np.array_equal(coords[:, 0], rows[:, 0])
        assert np.array_equal(values, rows[:, 1])


PoolMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None)
TestSamplePool = PoolMachine.TestCase


def test_pool_without_index_holds_rows_only():
    """The baselines' configuration: one stratum, no index, the calls
    still report (a redraw, or stratum 0 once per changed member)."""
    table = Table(("x", "a"))
    table.insert_many(np.random.default_rng(3).uniform(0, 1, (200, 2)))
    pool = SamplePool(table, 0.1, MIN_POOL, seed=4)
    assert pool.index is None and is_redraw(pool.initialize())
    assert pool.reservoir.target_size == 40 == len(pool)
    before = set(pool.tids(0))
    tids = table.insert_many(np.ones((30, 2)))
    (keys,) = pool.insert_many(tids)
    assert keys.tolist() == [0] * len(before ^ set(pool.tids(0)))
    assert np.array_equal(pool.rows(),
                          table.rows_for(pool.tids(0)))
    gone = pool.tids(0)[:5]
    table.delete_many(gone)
    assert pool.delete_many(gone)[0].tolist() == [0] * 5
    assert len(pool) == 35
