"""Tests for the sample point index against brute force."""

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
    for tid in range(500):
        idx.insert(tid, pts[tid], vals[tid])
    return idx, pts, vals


class TestInsertDelete:
    def test_len(self, populated):
        idx, _, _ = populated
        assert len(idx) == 500

    def test_duplicate_tid_rejected(self, populated):
        idx, pts, vals = populated
        with pytest.raises(KeyError):
            idx.insert(0, pts[0], vals[0])

    def test_delete(self, populated):
        idx, _, _ = populated
        assert idx.delete(10)
        assert not idx.delete(10)
        assert len(idx) == 499
        assert 10 not in idx

    def test_arity_check(self):
        idx = RangeIndex(2)
        with pytest.raises(ValueError):
            idx.insert(0, (1.0,), 1.0)

    def test_massive_deletion_triggers_rebuild(self, populated):
        """Deleting past 30% of the slots compacts the store."""
        idx, pts, vals = populated
        for tid in range(300):
            idx.delete(tid)
        assert len(idx) == 200
        assert idx._n_slots < 500
        rect = Rectangle((0.0, 0.0), (100.0, 100.0))
        c, s, s2 = scan_stats(idx, rect)
        bc, bs, bs2 = brute_stats(pts[300:], vals[300:], rect)
        assert c == bc
        assert s == pytest.approx(bs, rel=1e-9)


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
        idx, pts, vals = populated
        rng = np.random.default_rng(6)
        live = dict(enumerate(zip(pts, vals)))
        next_tid = 500
        for _ in range(400):
            if live and rng.random() < 0.45:
                tid = int(rng.choice(list(live)))
                idx.delete(tid)
                del live[tid]
            else:
                p = rng.uniform(0, 100, 2)
                v = float(rng.normal(0, 10))
                idx.insert(next_tid, p, v)
                live[next_tid] = (p, v)
                next_tid += 1
        rect = Rectangle((20.0, 20.0), (70.0, 70.0))
        pts2 = [p for p, _ in live.values()]
        vals2 = [v for _, v in live.values()]
        c, s, s2 = scan_stats(idx, rect)
        bc, bs, bs2 = brute_stats(pts2, vals2, rect)
        assert c == bc
        assert s == pytest.approx(bs, abs=1e-6)


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
    idx = RangeIndex(2, leaf_size=4)
    for tid, (x, y, v) in enumerate(points):
        idx.insert(tid, (x, y), v)
    lx, ly, wx, wy = window
    rect = Rectangle((lx, ly), (lx + wx, ly + wy))
    c, s, s2 = scan_stats(idx, rect)
    pts = [(x, y) for x, y, _ in points]
    vals = [v for _, _, v in points]
    bc, bs, bs2 = brute_stats(pts, vals, rect)
    assert c == bc
    assert s == pytest.approx(bs, abs=1e-6)
    assert s2 == pytest.approx(bs2, abs=1e-6)
