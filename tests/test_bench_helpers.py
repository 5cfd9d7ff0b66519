"""Tests for the benchmark harness helpers (benchmarks/lib)."""

import math
import os
import sys
import time

import numpy as np
import pytest

from repro.core.queries import AggFunc, Query, QueryResult, Rectangle
from repro.core.table import table_from_array
from repro.datasets.synthetic import nyc_taxi

# the paper-figure benchmarks' library (benchmarks/lib) imports as ``lib``
sys.path.insert(0, os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks")))

from lib.harness import (EvalResult, ProgressRun,  # noqa: E402
                         evaluate, fmt_row, make_workload)
from lib.metrics import (LatencyMeter,  # noqa: E402
                         ThroughputMeter, median_relative_error,
                         p95_relative_error, relative_errors)


class TestRelativeErrors:
    def test_basic(self):
        errs = relative_errors([110, 95], [100, 100])
        assert errs.tolist() == pytest.approx([0.1, 0.05])

    def test_zero_truth_dropped(self):
        errs = relative_errors([5, 110], [0, 100])
        assert errs.tolist() == pytest.approx([0.1])

    def test_nan_truth_dropped(self):
        errs = relative_errors([5, 110], [math.nan, 100])
        assert errs.tolist() == pytest.approx([0.1])

    def test_median_and_p95(self):
        ests = list(range(100, 200))
        truths = [100.0] * 100
        med = median_relative_error(ests, truths)
        p95 = p95_relative_error(ests, truths)
        assert med == pytest.approx(0.495, abs=0.02)
        assert p95 == pytest.approx(0.94, abs=0.02)
        assert p95 > med

    def test_empty_is_nan(self):
        assert math.isnan(median_relative_error([], []))


class TestMeters:
    def test_latency_meter(self):
        meter = LatencyMeter()
        for _ in range(5):
            with meter.time():
                time.sleep(0.001)
        assert meter.mean_ms >= 1.0
        assert meter.p95_ms >= meter.mean_ms * 0.5
        assert meter.total_seconds >= 0.005

    def test_latency_empty(self):
        assert math.isnan(LatencyMeter().mean_ms)

    def test_throughput_meter(self):
        meter = ThroughputMeter()
        meter.record(100, 0.5)
        meter.record(100, 0.5)
        assert meter.per_second == pytest.approx(200.0)


class TestEvaluate:
    class _Oracle:
        """A 'system' that answers with the exact truth."""

        def __init__(self, table):
            self.table = table

        def query(self, q):
            return QueryResult(self.table.ground_truth(q))

    def test_oracle_has_zero_error(self):
        table = table_from_array(
            ("x", "a"), np.random.default_rng(0).uniform(0, 10, (500, 2)))
        queries = [Query(AggFunc.SUM, "a", ("x",),
                         Rectangle((1.0 * i,), (1.0 * i + 3,)))
                   for i in range(6)]
        result = evaluate(self._Oracle(table), queries, table)
        assert result.median_re == pytest.approx(0.0, abs=1e-12)
        assert result.n_queries == 6
        assert result.mean_latency_ms >= 0


class TestProgressRun:
    def test_incremental_protocol(self):
        ds = nyc_taxi(n=2_000, seed=0)
        run = ProgressRun(ds, initial_fraction=0.10, increment=0.10)
        assert len(run.table) == 200
        assert run.progress == pytest.approx(0.10)
        rows = run.next_increment_rows()
        assert rows.shape[0] == 200
        assert run.has_more()
        # the run exposes rows; systems are responsible for inserting
        assert len(run.table) == 200

    def test_exhaustion(self):
        ds = nyc_taxi(n=1_000, seed=1)
        run = ProgressRun(ds, initial_fraction=0.5, increment=0.5)
        run.next_increment_rows()
        assert not run.has_more()
        assert run.next_increment_rows().shape[0] == 0


class TestWorkloadHelper:
    def test_make_workload_defaults(self):
        ds = nyc_taxi(n=3_000, seed=0)
        table = table_from_array(ds.schema, ds.data)
        queries = make_workload(table, ds, AggFunc.SUM, n_queries=25,
                                seed=1)
        assert len(queries) == 25
        assert all(q.attr == ds.agg_attr for q in queries)
        assert all(q.predicate_attrs == ds.predicate_attrs
                   for q in queries)

    def test_fmt_row(self):
        line = fmt_row("label", [1.0, 2.5])
        assert "label" in line and "2.5" in line
