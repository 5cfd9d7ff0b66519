"""Tests for the sample point set against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.queries import Rectangle
from repro.index.range_index import RangeIndex


def brute_stats(points, values, rect):
    c, s, s2 = 0, 0.0, 0.0
    for p, v in zip(points, values):
        if rect.contains_point(p):
            c += 1
            s += v
            s2 += v * v
    return c, s, s2


def scan_stats(idx, rect):
    """``(count, sum, sum of squares)`` of ``idx.report(rect)``, after
    checking ``count`` agrees with it."""
    _, values, tids = idx.report(rect)
    assert idx.count(rect) == tids.size
    return tids.size, float(values.sum()), float((values * values).sum())


@pytest.fixture
def populated():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(500, 2))
    vals = rng.normal(0, 10, 500)
    idx = RangeIndex(2)
    idx.add_many(range(500), pts, vals)
    return idx, pts, vals


class TestInsertDelete:
    """Loading points: an index's one write (the pool, which inserts
    and deletes, builds a fresh index per change)."""

    def test_len(self, populated):
        idx, _, _ = populated
        assert len(idx) == 500

    def test_duplicate_tid_rejected(self, populated):
        idx, pts, vals = populated
        with pytest.raises(KeyError):
            idx.add_many([0], pts[:1], vals[:1])
        with pytest.raises(KeyError):
            RangeIndex(2).add_many([7, 7], pts[:2], vals[:2])
        assert len(idx) == 500

    def test_arity_check(self):
        idx = RangeIndex(2)
        with pytest.raises(ValueError):
            idx.add_many([0], [(1.0,)], [1.0])

    def test_arrays_are_read_only(self, populated):
        idx, _, _ = populated
        for arr in (*idx.all_items(), *RangeIndex.of(
                np.zeros((3, 2)), np.ones(3), np.arange(3)).all_items()):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestRangeStats:
    def test_matches_brute_force(self, populated):
        idx, pts, vals = populated
        rng = np.random.default_rng(5)
        for _ in range(25):
            lo = rng.uniform(0, 80, 2)
            hi = lo + rng.uniform(5, 30, 2)
            rect = Rectangle(tuple(lo), tuple(hi))
            c, s, s2 = scan_stats(idx, rect)
            bc, bs, bs2 = brute_stats(pts, vals, rect)
            assert c == bc
            assert s == pytest.approx(bs, abs=1e-6)
            assert s2 == pytest.approx(bs2, abs=1e-6)

    def test_after_mixed_updates(self, populated):
        """The points a stream of inserts and deletes left live."""
        _, pts, vals = populated
        rng = np.random.default_rng(6)
        live = dict(enumerate(zip(pts, vals)))
        next_tid = 500
        for _ in range(400):
            if live and rng.random() < 0.45:
                del live[int(rng.choice(list(live)))]
            else:
                live[next_tid] = (rng.uniform(0, 100, 2),
                                  float(rng.normal(0, 10)))
                next_tid += 1
        idx = RangeIndex(2)
        pts2 = [p for p, _ in live.values()]
        vals2 = [v for _, v in live.values()]
        idx.add_many(list(live), pts2, vals2)
        rect = Rectangle((20.0, 20.0), (70.0, 70.0))
        c, s, s2 = scan_stats(idx, rect)
        bc, bs, bs2 = brute_stats(pts2, vals2, rect)
        assert c == bc
        assert s == pytest.approx(bs, abs=1e-6)

    def test_loaded_in_batches(self, populated):
        """Batch after batch, a reader keeps what it was handed."""
        _, pts, vals = populated
        idx = RangeIndex(2)
        rect = Rectangle((20.0, 20.0), (70.0, 70.0))
        for at in range(0, 500, 100):
            before = idx.report(rect)
            idx.add_many(range(at, at + 100), pts[at:at + 100],
                         vals[at:at + 100])
            assert scan_stats(idx, rect)[0] == \
                brute_stats(pts[:at + 100], vals[:at + 100], rect)[0]
            assert before[2].size == \
                brute_stats(pts[:at], vals[:at], rect)[0]
        assert idx.all_items()[2].tolist() == list(range(500))


class TestReport:
    def test_report_matches(self, populated):
        idx, pts, vals = populated
        rect = Rectangle((10.0, 10.0), (40.0, 60.0))
        coords, values, tids = idx.report(rect)
        expected = {tid for tid in range(500)
                    if rect.contains_point(pts[tid])}
        assert set(tids.tolist()) == expected
        assert coords.shape == (len(expected), 2)

    def test_report_empty(self, populated):
        idx, _, _ = populated
        coords, values, tids = idx.report(
            Rectangle((200.0, 200.0), (300.0, 300.0)))
        assert coords.shape == (0, 2) and tids.size == 0

    def test_all_items(self, populated):
        idx, _, _ = populated
        coords, values, tids = idx.all_items()
        assert len(tids) == 500


class TestSmallCells:
    def test_cells_are_small_and_inside(self, populated):
        idx, pts, vals = populated
        rect = Rectangle((0.0, 0.0), (100.0, 100.0))
        max_count = 40
        seen = 0
        for cell, count in idx.small_cells(rect, max_count):
            seen += 1
            assert count <= max_count and rect.contains_rect(cell)
            # the cell's count must match brute force over its region
            assert count == brute_stats(pts, vals, cell)[0]
        assert seen > 0

    def test_cells_partition_counts(self, populated):
        """Maximal small cells in the full space cover every point once."""
        idx, _, _ = populated
        rect = Rectangle((0.0, 0.0), (100.0, 100.0))
        total = sum(count for _, count in idx.small_cells(rect, 64))
        assert total == 500


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 10, allow_nan=False),
                          st.floats(0, 10, allow_nan=False),
                          st.floats(-5, 5, allow_nan=False)),
                min_size=1, max_size=120),
       st.tuples(st.floats(0, 5), st.floats(0, 5),
                 st.floats(0, 6), st.floats(0, 6)))
def test_property_range_stats(points, window):
    idx = RangeIndex(2)
    idx.add_many(range(len(points)), [(x, y) for x, y, _ in points],
                 [v for _, _, v in points])
    lx, ly, wx, wy = window
    rect = Rectangle((lx, ly), (lx + wx, ly + wy))
    c, s, s2 = scan_stats(idx, rect)
    pts = [(x, y) for x, y, _ in points]
    vals = [v for _, _, v in points]
    bc, bs, bs2 = brute_stats(pts, vals, rect)
    assert c == bc
    assert s == pytest.approx(bs, abs=1e-6)
    assert s2 == pytest.approx(bs2, abs=1e-6)
