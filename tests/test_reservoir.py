"""Tests for dynamic reservoir sampling under insertions and deletions."""

import numpy as np
import pytest

from repro.core.table import Table
from repro.sampling.reservoir import DynamicReservoir


def make_table(n):
    t = Table(("x",))
    t.insert_many(np.arange(n, dtype=float).reshape(-1, 1))
    return t


def replay(members, change):
    """Apply one returned :class:`PoolChange` to a mirror member set."""
    if change.reset:
        assert change.removed == []
        return set(change.added)
    assert set(change.removed) <= members
    assert not set(change.added) & members
    assert not set(change.added) & set(change.removed)
    return (members - set(change.removed)) | set(change.added)


class TestInitialization:
    def test_initialize_draws_target(self):
        t = make_table(1000)
        r = DynamicReservoir(t, target_size=100, seed=0)
        r.initialize()
        assert len(r) == 100
        assert len(set(r.tids())) == 100          # no duplicates

    def test_initialize_small_table(self):
        t = make_table(10)
        r = DynamicReservoir(t, target_size=100, seed=0)
        r.initialize()
        assert len(r) == 10

    def test_members_are_live(self):
        t = make_table(50)
        r = DynamicReservoir(t, target_size=20, seed=1)
        r.initialize()
        assert all(tid in t for tid in r.tids())

    def test_target_validation(self):
        with pytest.raises(ValueError):
            DynamicReservoir(make_table(5), target_size=1)


class TestInsertion:
    def test_fills_below_target(self):
        t = make_table(5)
        r = DynamicReservoir(t, target_size=10, seed=0)
        r.initialize()
        tid = t.insert((99.0,))
        r.on_insert_many((tid,))
        assert tid in r                           # always added when short

    def test_replacement_keeps_size(self):
        t = make_table(200)
        r = DynamicReservoir(t, target_size=50, seed=0)
        r.initialize()
        for _ in range(500):
            tid = t.insert((0.0,))
            r.on_insert_many((tid,))
        assert len(r) == 50

    def test_acceptance_rate_matches_theory(self):
        """New tuples enter with probability |S|/|D|."""
        t = make_table(1000)
        r = DynamicReservoir(t, target_size=100, seed=3)
        r.initialize()
        accepted = 0
        trials = 3000
        for _ in range(trials):
            tid = t.insert((0.0,))
            before = tid in r
            r.on_insert_many((tid,))
            accepted += (tid in r)
        # expected rate ~ 100/|D| which shrinks 1000->4000: mean ~ 0.04
        rate = accepted / trials
        assert 0.01 < rate < 0.10


class TestDeletion:
    def test_delete_nonmember_noop(self):
        t = make_table(100)
        r = DynamicReservoir(t, target_size=20, seed=0)
        r.initialize()
        outside = [tid for tid in range(100) if tid not in r][0]
        t.delete(outside)
        r.on_delete_many((outside,))
        assert len(r) == 20

    def test_delete_member_removes(self):
        t = make_table(100)
        r = DynamicReservoir(t, target_size=20, seed=0)
        r.initialize()
        victim = r.tids()[0]
        t.delete(victim)
        r.on_delete_many((victim,))
        assert victim not in r
        assert len(r) == 19

    def test_resample_at_min_size(self):
        t = make_table(500)
        r = DynamicReservoir(t, target_size=40, seed=0)
        r.initialize()
        # delete members until the reservoir hits m = 20 and resamples
        while r.n_resamples == 0:
            victim = r.tids()[0]
            t.delete(victim)
            r.on_delete_many((victim,))
        assert len(r) == 40                      # refreshed to 2m
        assert all(tid in t for tid in r.tids())

    def test_size_invariant_under_churn(self):
        """m <= |S| <= 2m throughout a long mixed workload."""
        t = make_table(400)
        r = DynamicReservoir(t, target_size=60, seed=7)
        r.initialize()
        rng = np.random.default_rng(11)
        for _ in range(2000):
            if rng.random() < 0.4 and len(t) > 40:
                victim = int(rng.choice(t.live_tids()))
                t.delete(victim)
                r.on_delete_many((victim,))
            else:
                tid = t.insert((float(rng.random()),))
                r.on_insert_many((tid,))
            assert r.min_size <= len(r) <= r.target_size
            assert all(tid in t for tid in r.tids())


class TestUniformity:
    def test_roughly_uniform_after_inserts(self):
        """Every tuple should have ~equal sampling probability."""
        hits = np.zeros(400)
        for trial in range(60):
            t = make_table(200)
            r = DynamicReservoir(t, target_size=60, seed=trial)
            r.initialize()
            for i in range(200):
                tid = t.insert((float(i),))
                r.on_insert_many((tid,))
            for tid in r.tids():
                hits[tid] += 1
        # 60 trials x 60 slots over 400 tuples: expect 9 hits per tuple.
        early = hits[:200].mean()
        late = hits[200:].mean()
        assert abs(early - late) / max(early, late) < 0.30


class TestObservers:
    """What a caller observes: each call's returned net change."""

    def test_events_track_membership(self):
        t = make_table(300)
        r = DynamicReservoir(t, target_size=40, seed=2)
        change = r.initialize()
        assert change.reset and change.added == r.tids()
        live = replay(set(), change)
        for _ in range(200):
            tid = t.insert((1.0,))
            live = replay(live, r.on_insert_many((tid,)))
        assert live == set(r.tids())

    def test_batch_change_is_net_of_the_batch(self):
        """A tid added and evicted inside one batch is in neither list."""
        t = make_table(50)
        r = DynamicReservoir(t, target_size=40, seed=3)
        live = replay(set(), r.initialize())
        for _ in range(20):
            tids = t.insert_many(np.ones((64, 1)))
            live = replay(live, r.on_insert_many(tids))
            assert live == set(r.tids())

    def test_shrinking_below_m_returns_a_reset(self):
        t = make_table(400)
        r = DynamicReservoir(t, target_size=40, seed=4)
        live = replay(set(), r.initialize())
        victims = r.tids()[:25]
        t.delete_many(victims)
        change = r.on_delete_many(victims)
        assert change.reset and r.n_resamples == 1
        assert replay(live, change) == set(r.tids()) and len(r) == 40
        gone = r.tids()[:3]
        t.delete_many(gone)
        change = r.on_delete_many(gone + [10 ** 6])     # a non-member
        assert (change.removed, change.added, change.reset) == \
            (gone, [], False)

    def test_iteration_is_join_order(self):
        """``iter(reservoir)`` lists members in the order they joined,
        whatever slot swaps evictions caused (``tids()`` is slot order)."""
        t = make_table(200)
        r = DynamicReservoir(t, target_size=30, seed=5)
        order = list(r.initialize().added)
        for _ in range(40):
            tids = t.insert_many(np.ones((16, 1)))
            change = r.on_insert_many(tids)
            order = [x for x in order if x not in set(change.removed)]
            order += change.added
            assert list(r) == order
        assert sorted(r) == sorted(r.tids()) and list(r) != r.tids()
