"""Tests for the query model: rectangles, queries, results."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import estimators, merge, table
from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import (SKETCH_AGGS, AggFamily, AggFunc, Query,
                                QueryResult, Rectangle, relative_error)
from repro.sketch import registry


class TestRectangle:
    def test_basic_containment(self):
        r = Rectangle((0.0, 0.0), (10.0, 5.0))
        assert r.contains_point((5.0, 2.0))
        assert r.contains_point((0.0, 0.0))      # closed lower bound
        assert r.contains_point((10.0, 5.0))     # closed upper bound
        assert not r.contains_point((10.1, 2.0))
        assert not r.contains_point((-0.1, 2.0))

    def test_dim(self):
        assert Rectangle((0.0,), (1.0,)).dim == 1
        assert Rectangle((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).dim == 3

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Rectangle((1.0,), (0.0,))

    def test_mismatched_dims_rejected(self):
        with pytest.raises(ValueError):
            Rectangle((0.0, 0.0), (1.0,))

    def test_contains_rect(self):
        outer = Rectangle((0.0, 0.0), (10.0, 10.0))
        inner = Rectangle((2.0, 2.0), (8.0, 8.0))
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_intersects(self):
        a = Rectangle((0.0,), (5.0,))
        b = Rectangle((5.0,), (10.0,))
        c = Rectangle((6.0,), (10.0,))
        assert a.intersects(b)                    # touching counts
        assert not a.intersects(c)

    def test_split_partitions_parent(self):
        r = Rectangle((0.0, 0.0), (10.0, 10.0))
        left, right = r.split(0, 4.0)
        assert left.hi[0] == 4.0
        assert right.lo[0] > 4.0                  # strictly disjoint
        assert r.contains_rect(left) and r.contains_rect(right)
        assert not left.intersects(right)
        # every point of the parent lands in exactly one child
        for x in (0.0, 3.9, 4.0, 4.0001, 10.0):
            inside = left.contains_point((x, 5.0)) + \
                right.contains_point((x, 5.0))
            assert inside == 1

    def test_split_outside_interval_rejected(self):
        r = Rectangle((0.0,), (1.0,))
        with pytest.raises(ValueError):
            r.split(0, 2.0)

    def test_unbounded(self):
        r = Rectangle.unbounded(3)
        assert r.contains_point((1e300, -1e300, 0.0))

    def test_from_bounds(self):
        r = Rectangle.from_bounds([(0, 1), (2, 3)])
        assert r.lo == (0.0, 2.0) and r.hi == (1.0, 3.0)

    def test_widths(self):
        assert Rectangle((0.0, 1.0), (4.0, 5.0)).widths() == (4.0, 4.0)

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(0, 100)),
                    min_size=1, max_size=4))
    def test_from_bounds_roundtrip(self, pairs):
        bounds = [(lo, lo + w) for lo, w in pairs]
        r = Rectangle.from_bounds(bounds)
        assert r.dim == len(bounds)
        mid = tuple((a + b) / 2 for a, b in bounds)
        assert r.contains_point(mid)


class TestQuery:
    def test_arity_check(self):
        with pytest.raises(ValueError):
            Query(AggFunc.SUM, "a", ("x", "y"), Rectangle((0.0,), (1.0,)))

    def test_with_agg(self):
        q = Query(AggFunc.SUM, "a", ("x",), Rectangle((0.0,), (1.0,)))
        q2 = q.with_agg(AggFunc.AVG)
        assert q2.agg is AggFunc.AVG and q2.attr == "a"
        q3 = q.with_agg(AggFunc.COUNT, "b")
        assert q3.attr == "b"
        assert q.agg is AggFunc.SUM               # original untouched


class TestQueryResult:
    def test_ci_symmetric(self):
        r = QueryResult(100.0, variance_catchup=4.0, variance_sample=5.0)
        lo, hi = r.ci(z=2.0)
        assert lo == pytest.approx(100.0 - 6.0)
        assert hi == pytest.approx(100.0 + 6.0)
        assert r.variance == 9.0

    def test_ci_halfwidth(self):
        r = QueryResult(0.0, variance_sample=1.0)
        assert r.ci_halfwidth(1.96) == pytest.approx(1.96)

    def test_zero_variance(self):
        r = QueryResult(5.0, exact=True)
        assert r.ci() == (5.0, 5.0)


class TestRelativeError:
    def test_basic(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)

    def test_zero_truth(self):
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == math.inf

    def test_negative_truth(self):
        assert relative_error(-90.0, -100.0) == pytest.approx(0.1)


def open_dispatch_tables():
    """Names of the per-aggregate tables whose keys are not exactly the
    members / families they must cover (what janus-lint once checked
    by reading the dispatch functions' source)."""
    families = set(AggFamily)
    tables = {
        "dpt._ANSWER": (DynamicPartitionTree._ANSWER,
                        families - {AggFamily.SKETCH}),
        "merge._MERGE": (merge._MERGE, families),
        "estimators._UNIFORM": (estimators._UNIFORM, families),
        "table._TRUTH": (table._TRUTH,
                         {agg for agg in AggFunc if agg.reads_column}),
        "registry.SKETCH_KIND": (registry.SKETCH_KIND, SKETCH_AGGS),
    }
    return sorted(name for name, (found, want) in tables.items()
                  if set(found) != set(want))


class TestAggFuncFacts:
    def test_every_dispatch_table_is_closed(self):
        assert open_dispatch_tables() == []
        assert all(agg.family in AggFamily and AggFunc(agg.value) is agg
                   for agg in AggFunc)
        assert [a for a in AggFunc if not a.reads_column] == [AggFunc.COUNT]

    def test_a_dropped_key_is_reported(self, monkeypatch):
        monkeypatch.delitem(merge._MERGE, AggFamily.RATIO)
        monkeypatch.delitem(table._TRUTH, AggFunc.TOPK)
        assert open_dispatch_tables() == ["merge._MERGE", "table._TRUTH"]

    def test_parameter_rules(self):
        preds, rect = ("x",), Rectangle((0.0,), (1.0,))
        for agg, good, bad in (
                (AggFunc.PERCENTILE, (0.0, 0.5, 1), (1.5, -0.1, math.nan)),
                (AggFunc.TOPK, (1, 7.0), (0, 2.5, math.inf))):
            for param in good:
                assert Query(agg, "a", preds, rect, param).param == param
            for param in bad + (None,):
                with pytest.raises(ValueError, match="must be"):
                    Query(agg, "a", preds, rect, param)
        with pytest.raises(ValueError, match="does not take a parameter"):
            Query(AggFunc.SUM, "a", preds, rect, 0.5)
