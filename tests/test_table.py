"""Tests for the dynamic table / archival store."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table, table_from_array


@pytest.fixture
def small_table():
    t = Table(("x", "a"))
    for x, a in [(1, 10), (2, 20), (3, 30), (4, 40)]:
        t.insert((x, a))
    return t


class TestMutation:
    def test_insert_returns_increasing_tids(self, small_table):
        t = small_table
        tid = t.insert((5, 50))
        assert tid == 4
        assert len(t) == 5

    def test_delete(self, small_table):
        removed = small_table.delete(1)
        assert removed.tolist() == [2.0, 20.0]
        assert len(small_table) == 3
        assert 1 not in small_table

    def test_delete_twice_raises(self, small_table):
        small_table.delete(0)
        with pytest.raises(KeyError):
            small_table.delete(0)

    def test_insert_many(self):
        t = Table(("x", "a"))
        tids = t.insert_many(np.arange(20).reshape(10, 2))
        assert tids == list(range(10))
        assert len(t) == 10

    def test_growth_beyond_capacity(self):
        t = Table(("x",), capacity=4)
        for i in range(100):
            t.insert((float(i),))
        assert len(t) == 100
        assert t.row(99)[0] == 99.0

    def test_wrong_arity(self, small_table):
        with pytest.raises(ValueError):
            small_table.insert((1.0,))

    def test_duplicate_schema_rejected(self):
        with pytest.raises(ValueError):
            Table(("x", "x"))


class TestAccess:
    def test_row_and_value(self, small_table):
        assert small_table.value(2, "a") == 30.0
        assert small_table.row(2).tolist() == [3.0, 30.0]

    def test_column_excludes_deleted(self, small_table):
        small_table.delete(0)
        assert sorted(small_table.column("x").tolist()) == [2.0, 3.0, 4.0]

    def test_live_tids(self, small_table):
        small_table.delete(2)
        assert sorted(small_table.live_tids().tolist()) == [0, 1, 3]

    def test_domain(self, small_table):
        assert small_table.domain("x") == (1.0, 4.0)

    def test_domain_empty(self):
        assert Table(("x",)).domain("x") == (0.0, 0.0)

    def test_live_rows_shape(self, small_table):
        small_table.delete(3)
        assert small_table.live_rows().shape == (3, 2)


def expected_domain(table, attr):
    col = table.column(attr)
    col = col[~np.isnan(col)]
    return (col.min(), col.max()) if col.size else (0.0, 0.0)


#: Values that stress the kept bounds: NaN, both infinities, both zeros
#: and a few small repeats (duplicated extremes).
EDGY = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                        1.0, -1.0, 2.5])
ROW = st.tuples(EDGY, EDGY)
WRITE = st.one_of(
    st.tuples(st.just("insert"), ROW),
    st.tuples(st.just("insert_many"), st.lists(ROW, max_size=6)),
    st.tuples(st.just("delete"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("delete_many"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("delete_all"), st.just(0)))


class TestDomain:
    """The table keeps each read column's live bounds through writes."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ROW, max_size=8), st.lists(WRITE, max_size=25))
    def test_kept_bounds_match_a_scan(self, seed_rows, writes):
        t = Table(("x", "y"))
        t.insert_many(np.array(seed_rows, dtype=np.float64))
        for step, (op, arg) in enumerate(writes):
            live = t.live_tids()
            if op == "insert":
                t.insert(arg)
            elif op == "insert_many":
                t.insert_many(np.array(arg, dtype=np.float64))
            elif op == "delete" and live.size:
                t.delete(int(live[arg % live.size]))
            elif op == "delete_many":
                k = arg % (live.size + 1)
                t.delete_many(np.random.default_rng(arg).choice(
                    live, k, replace=False))
            elif op == "delete_all":
                t.delete_many(live)
            # "y" is read only now and then: its bounds start and stop
            # being kept mid-sequence
            for attr in ("x", "y") if step % 3 else ("x",):
                assert t.domain(attr) == expected_domain(t, attr)

    def test_nan_is_ignored(self):
        t = Table(("x",))
        t.insert_many(np.array([[3.0], [math.nan], [-1.0]]))
        assert t.domain("x") == (-1.0, 3.0)
        t.insert((math.nan,))
        t.insert((7.0,))
        assert t.domain("x") == (-1.0, 7.0)

    def test_no_value_but_nan(self):
        t = Table(("x",))
        t.insert_many(np.array([[math.nan], [math.nan]]))
        assert t.domain("x") == (0.0, 0.0)
        assert t.bounds("x") is None
        t.insert((5.0,))
        assert t.domain("x") == (5.0, 5.0)

    def test_deleting_an_extreme_rescans(self):
        t = Table(("x",))
        t.insert_many(np.array([[1.0], [2.0], [3.0], [3.0]]))
        assert t.domain("x") == (1.0, 3.0)
        t.delete(3)                 # one of two equal maxima
        assert t.domain("x") == (1.0, 3.0)
        t.delete_many([0, 2])
        assert t.domain("x") == (2.0, 2.0)

    def test_restore_forgets_the_old_bounds(self):
        t = Table(("x", "a"))
        t.insert_many(np.array([[-50.0, 1.0], [50.0, 2.0]]))
        assert t.domain("x") == (-50.0, 50.0)
        t.restore(np.array([3, 7]), np.array([[1.0, 0.0], [2.0, 0.0]]), 9)
        assert t.domain("x") == (1.0, 2.0)
        assert t.live_tids().tolist() == [3, 7]
        assert t.insert((4.0, 0.0)) == 9
        assert t.domain("x") == (1.0, 4.0)


class TestArchival:
    def test_sample_tids_live_only(self, small_table):
        small_table.delete(0)
        rng = np.random.default_rng(0)
        tids = small_table.sample_tids(100, rng)
        assert 0 not in tids
        assert set(tids.tolist()) <= {1, 2, 3}

    def test_sample_without_replacement_capped(self, small_table):
        rng = np.random.default_rng(0)
        tids = small_table.sample_tids(100, rng, replace=False)
        assert len(tids) == 4
        assert len(set(tids.tolist())) == 4

    def test_sample_uniformity(self):
        t = Table(("x",))
        t.insert_many(np.arange(10).reshape(-1, 1))
        rng = np.random.default_rng(42)
        counts = np.zeros(10)
        for _ in range(2000):
            for tid in t.sample_tids(3, rng):
                counts[tid] += 1
        # each tid expected 600 draws; loose 5-sigma band
        assert counts.min() > 400 and counts.max() < 800

    def test_rows_for(self, small_table):
        rows = small_table.rows_for([0, 2])
        assert rows[:, 1].tolist() == [10.0, 30.0]


class TestGroundTruth:
    def _q(self, agg, lo, hi):
        return Query(agg, "a", ("x",), Rectangle((lo,), (hi,)))

    def test_count(self, small_table):
        assert small_table.ground_truth(self._q(AggFunc.COUNT, 2, 3)) == 2

    def test_sum(self, small_table):
        assert small_table.ground_truth(self._q(AggFunc.SUM, 2, 4)) == 90

    def test_avg(self, small_table):
        assert small_table.ground_truth(self._q(AggFunc.AVG, 1, 2)) == 15

    def test_min_max(self, small_table):
        assert small_table.ground_truth(self._q(AggFunc.MIN, 2, 4)) == 20
        assert small_table.ground_truth(self._q(AggFunc.MAX, 2, 4)) == 40

    def test_empty_predicate(self, small_table):
        assert small_table.ground_truth(self._q(AggFunc.COUNT, 9, 10)) == 0
        assert math.isnan(small_table.ground_truth(
            self._q(AggFunc.AVG, 9, 10)))

    def test_reflects_deletes(self, small_table):
        small_table.delete(3)
        assert small_table.ground_truth(self._q(AggFunc.SUM, 1, 4)) == 60

    def test_multidim(self):
        t = Table(("x", "y", "a"))
        t.insert_many(np.array([[0, 0, 1], [1, 1, 2], [2, 2, 4],
                                [0, 2, 8]]))
        q = Query(AggFunc.SUM, "a", ("x", "y"),
                  Rectangle((0.0, 0.0), (1.0, 2.0)))
        assert t.ground_truth(q) == 11.0


def test_table_from_array():
    t = table_from_array(("x", "a"), np.array([[1, 2], [3, 4]]))
    assert len(t) == 2
    assert t.row(1).tolist() == [3.0, 4.0]
