"""Tests for top-k/bottom-k MIN/MAX maintenance (Section 4.1 semantics)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.index.topk import TopK


class TestTopKMax:
    def test_tracks_max(self):
        t = TopK(k=3, largest=True)
        for v in [5, 1, 9, 3]:
            t.insert(v)
        assert t.top() == 9.0
        assert len(t) == 3                       # trimmed to k

    def test_delete_max_falls_back(self):
        t = TopK(k=3, largest=True)
        for v in [5, 1, 9, 3]:
            t.insert(v)
        t.delete(9)
        assert t.top() == 5.0
        assert t.exact

    def test_delete_untracked_value_ignored(self):
        t = TopK(k=2, largest=True)
        for v in [10, 9, 1]:
            t.insert(v)                          # keeps [9, 10]
        t.delete(1)                              # 1 was trimmed: no-op
        assert t.top() == 10.0 and len(t) == 2

    def test_exact_until_drained(self):
        t = TopK(k=2, largest=True)
        for v in [10, 9, 8]:
            t.insert(v)
        t.delete(10)
        assert t.exact and t.top() == 9.0
        t.delete(9)                              # would empty: refused
        assert not t.exact
        assert t.top() == 9.0                    # outer approximation kept

    def test_outer_approximation_is_upper_bound(self):
        # After drain, the reported MAX must be >= the true MAX.
        t = TopK(k=2, largest=True)
        values = [10.0, 9.0, 8.0, 7.0]
        for v in values:
            t.insert(v)
        t.delete(10.0)
        t.delete(9.0)
        true_max = 8.0                           # survivors: 8, 7
        assert t.top() >= true_max

    def test_duplicates_multiset(self):
        t = TopK(k=4, largest=True)
        for v in [5, 5, 5]:
            t.insert(v)
        t.delete(5)
        assert len(t) == 2 and t.top() == 5.0

    def test_empty_top_is_none(self):
        assert TopK(3).top() is None

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopK(0)


class TestTopKMin:
    def test_tracks_min(self):
        t = TopK(k=3, largest=False)
        for v in [5, 1, 9, 3]:
            t.insert(v)
        assert t.top() == 1.0

    def test_trims_largest(self):
        t = TopK(k=2, largest=False)
        for v in [5, 1, 9]:
            t.insert(v)
        assert t.values() == [1.0, 5.0]

    def test_delete_min_falls_back(self):
        t = TopK(k=3, largest=False)
        for v in [5, 1, 9, 3]:
            t.insert(v)
        t.delete(1)
        assert t.top() == 3.0
        assert t.exact


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1,
                max_size=40),
       st.integers(1, 8))
def test_max_exactness_invariant(values, k):
    """While exact, top() equals the true max of the live multiset."""
    t = TopK(k=k, largest=True)
    live = []
    for v in values:
        t.insert(v)
        live.append(float(v))
    # delete half of them, largest first (the adversarial case)
    for v in sorted(live, reverse=True)[:len(live) // 2]:
        t.delete(v)
        live.remove(v)
    if t.exact and live:
        assert t.top() == pytest.approx(max(live))
    elif live:
        assert t.top() >= max(live)              # outer approximation


class TestSaturationContract:
    """Property pins for the outer-approximation contract (PR 9).

    Unlike a TOPK sketch answer (whose ``exact`` is a pure function of
    the live multiset, :func:`~repro.sketch.registry.sketch_answer`),
    the seed structure's flag is *sticky* by design: once a
    delete is refused, top() is an outer approximation forever, and
    values trimmed at insert time can never refill the window.
    """

    def test_trimmed_values_cannot_refill_window(self):
        t = TopK(k=3, largest=True)
        for v in [1, 2, 3, 4, 5]:
            t.insert(v)                      # window [3,4,5]; 1,2 gone
        t.delete(4)
        t.delete(5)
        assert t.values() == [3.0]
        t.delete(1)                          # trimmed long ago: ignored,
        t.delete(2)                          # must not resurface
        assert t.values() == [3.0] and t.exact
        t.delete(3)                          # would empty: refused
        assert not t.exact and t.top() == 3.0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 12).map(float), min_size=1,
                    max_size=40),
           st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    def test_exact_flag_is_monotone_under_delete_heavy_stream(
            self, values, k, seed):
        """Once the flag drops it never recovers, deletes included."""
        rng = np.random.default_rng(seed)
        t = TopK(k=k, largest=True)
        for v in values:
            t.insert(v)
        flags = [t.exact]
        # Delete-heavy: every inserted value attempted twice, shuffled,
        # then a full drain of whatever the window still tracks.
        for v in rng.permutation(np.repeat(values, 2)):
            t.delete(float(v))
            flags.append(t.exact)
            assert len(t) >= 1               # never drained below one
        for v in list(t.values()):
            t.delete(v)
            flags.append(t.exact)
        assert all(a >= b for a, b in zip(flags, flags[1:]))
        assert not t.exact                   # a full drain always flips
        assert t.top() is not None           # outer approximation kept

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 12).map(float), min_size=1,
                    max_size=40),
           st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    def test_deletes_never_grow_the_window(self, values, k, seed):
        """A delete removes at most one tracked occurrence; nothing
        (in particular no trimmed value) ever re-enters on a delete."""
        rng = np.random.default_rng(seed)
        t = TopK(k=k, largest=True)
        for v in values:
            t.insert(v)
            assert len(t) <= k
        for v in rng.permutation(np.asarray(values, dtype=float)):
            before = Counter(t.values())
            t.delete(float(v))
            after = Counter(t.values())
            assert sum(after.values()) in (sum(before.values()),
                                           sum(before.values()) - 1)
            assert all(after[x] <= before[x] for x in after)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1,
                    max_size=30),
           st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_minmax_outer_approximation_brackets_truth(self, values, k,
                                                       seed):
        """Exact or not, reported MAX >= true max and MIN <= true min
        of the surviving multiset (while any row survives)."""
        rng = np.random.default_rng(seed)
        top, bottom = TopK(k, largest=True), TopK(k, largest=False)
        live = [float(v) for v in values]
        for v in live:
            top.insert(v)
            bottom.insert(v)
        order = rng.permutation(len(live))
        for i in order[:len(live) - 1]:      # keep one row alive
            top.delete(live[i])
            bottom.delete(live[i])
        survivors = [live[i] for i in order[len(live) - 1:]]
        assert top.top() >= max(survivors) - 1e-12
        assert bottom.top() <= min(survivors) + 1e-12


class TestBatchMatchesSequential:
    """PR 18: ``insert_many`` / ``delete_many`` drop the provable no-ops
    with one vector comparison against the window edge; what is left of
    the list, ``exact`` and ``top()`` must be what value-at-a-time calls
    leave - the tree's grouped-update kernel rides the same filter
    (:class:`~repro.index.topk.TopKColumn`) across all of its nodes."""

    # a small alphabet forces duplicates and values equal to the edge
    VALUES = st.one_of(st.integers(-4, 12).map(float),
                       st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
                       st.floats(allow_nan=False, width=32))
    BATCHES = st.lists(st.tuples(st.booleans(),
                                 st.lists(VALUES, max_size=40)),
                       min_size=1, max_size=8)

    @staticmethod
    def state(t):
        return repr(t.values()), t.exact, repr(t.top()), len(t)

    @settings(max_examples=150, deadline=None)
    @given(BATCHES, st.sampled_from([1, 2, 32]), st.booleans())
    def test_batches_leave_the_sequential_state(self, batches, k, largest):
        seq, bat = TopK(k, largest), TopK(k, largest)
        for is_insert, values in batches:
            for v in values:
                (seq.insert if is_insert else seq.delete)(v)
            (bat.insert_many if is_insert else bat.delete_many)(values)
            assert self.state(bat) == self.state(seq)

    @settings(max_examples=80, deadline=None)
    @given(BATCHES, st.sampled_from([1, 2, 32]), st.booleans(),
           st.integers(0, 2 ** 31 - 1))
    def test_nan_disarms_the_filter_not_the_answer(self, batches, k,
                                                   largest, seed):
        """A NaN unsorts the list, so bisect stops behaving like a
        window: from then on nothing may skip the sequential path."""
        rng = np.random.default_rng(seed)
        seq, bat = TopK(k, largest), TopK(k, largest)
        for is_insert, values in batches:
            values = [math.nan if rng.random() < 0.15 else v
                      for v in values]
            for v in values:
                (seq.insert if is_insert else seq.delete)(v)
            (bat.insert_many if is_insert else bat.delete_many)(values)
            assert self.state(bat) == self.state(seq)

    def test_values_at_the_edge_of_a_full_window(self):
        t = TopK(k=2, largest=True)
        t.insert_many([5.0, 7.0])
        assert t.edges() == (5.0, 5.0)
        t.insert_many([5.0, 4.0, 5.0])       # trimmed at once: no change
        assert t.values() == [5.0, 7.0]
        t.insert_many([6.0, 5.0])            # 6 enters, edge moves to 6
        assert t.values() == [6.0, 7.0] and t.edges() == (6.0, 6.0)
        t.delete_many([5.0, 6.0, 6.0])       # one 6 tracked, one not
        assert t.values() == [7.0] and t.exact
        assert math.isnan(t.edges()[0])      # not full: nothing to trim
        t.delete_many([7.0])                 # would empty: refused
        assert t.values() == [7.0] and not t.exact

    def test_column_filters_each_node_against_its_own_edge(self):
        from repro.index.topk import TopKColumn
        tops = [TopK(2, largest=False) for _ in range(3)]
        ref = [TopK(2, largest=False) for _ in range(3)]
        column = TopKColumn(tops)
        ids = np.array([0, 0, 0, 1, 2, 2, 0, 1])
        values = np.array([3.0, 1.0, 2.0, 9.0, 4.0, 4.0, 5.0, 0.5])
        column.insert_many(ids, values)
        column.insert_many(ids, values[::-1].copy())
        column.delete_many(ids, values)
        for i, v in zip(ids, values):
            ref[i].insert(v)
        for i, v in zip(ids, values[::-1]):
            ref[i].insert(v)
        for i, v in zip(ids, values):
            ref[i].delete(v)
        assert [t.values() for t in tops] == [t.values() for t in ref]
        assert [t.exact for t in tops] == [t.exact for t in ref]
