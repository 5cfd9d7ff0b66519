"""Tests for the composed VARIANCE/STDDEV aggregates (Section 6.6)."""

import math

import numpy as np
import pytest

from repro.core.dpt import DynamicPartitionTree
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table, table_from_array
from repro.datasets.synthetic import nyc_taxi
from repro.partitioning.spec import tree_from_intervals

SCHEMA = ("x", "a")


def no_samples(leaf):
    return np.empty((0, 2))


class TestGroundTruth:
    def test_table_variance(self):
        t = table_from_array(SCHEMA, np.array([[1, 2], [2, 4], [3, 6]]))
        q = Query(AggFunc.VARIANCE, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        assert t.ground_truth(q) == pytest.approx(
            np.var([2.0, 4.0, 6.0]))
        q2 = q.with_agg(AggFunc.STDDEV)
        assert t.ground_truth(q2) == pytest.approx(
            np.std([2.0, 4.0, 6.0]))


class TestExactPath:
    @pytest.fixture
    def loaded(self):
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.uniform(0, 100, 400),
                                rng.normal(10, 3, 400)])
        spec = tree_from_intervals([25.0, 50.0, 75.0],
                                   Rectangle((0.0,), (100.0,)))
        dpt = DynamicPartitionTree(spec, SCHEMA, ("x",))
        dpt.set_population(0)
        for row in data:
            dpt.insert_rows(row[None])
        return dpt, data

    def test_variance_covered_exact(self, loaded):
        dpt, data = loaded
        q = Query(AggFunc.VARIANCE, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = dpt.query(q, no_samples)
        assert res.estimate == pytest.approx(float(data[:, 1].var()),
                                             rel=1e-9)

    def test_stddev_covered_exact(self, loaded):
        dpt, data = loaded
        q = Query(AggFunc.STDDEV, "a", ("x",),
                  Rectangle((-math.inf,), (50.0,)))
        res = dpt.query(q, no_samples)
        mask = data[:, 0] <= 50.0
        assert res.estimate == pytest.approx(float(data[mask, 1].std()),
                                             rel=1e-9)

    def test_tracks_deletions(self, loaded):
        dpt, data = loaded
        for row in data[:100]:
            dpt.delete_rows(row[None])
        q = Query(AggFunc.VARIANCE, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = dpt.query(q, no_samples)
        assert res.estimate == pytest.approx(float(data[100:, 1].var()),
                                             rel=1e-9)

    def test_empty_region_nan(self, loaded):
        dpt, _ = loaded
        spec = tree_from_intervals([], Rectangle((0.0,), (1.0,)))
        empty = DynamicPartitionTree(spec, SCHEMA, ("x",))
        q = Query(AggFunc.VARIANCE, "a", ("x",),
                  Rectangle((0.2,), (0.4,)))
        assert math.isnan(empty.query(q, no_samples).estimate)

    def test_ci_flagged_unavailable(self, loaded):
        dpt, _ = loaded
        q = Query(AggFunc.STDDEV, "a", ("x",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = dpt.query(q, no_samples)
        assert not res.ci_available
        assert all(map(math.isnan, (*res.ci(), res.ci_halfwidth())))


class TestEndToEnd:
    def test_janus_stddev(self):
        ds = nyc_taxi(n=15_000, seed=2)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        cfg = JanusConfig(k=32, sample_rate=0.03, catchup_rate=0.10,
                          check_every=10 ** 9, seed=0)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        q = Query(AggFunc.STDDEV, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((100.0,), (600.0,)))
        truth = table.ground_truth(q)
        est = janus.query(q).estimate
        assert abs(est - truth) / truth < 0.15

    def test_janus_variance_partial_heavy(self):
        """Narrow query (mostly partial): still a sane estimate."""
        ds = nyc_taxi(n=15_000, seed=3)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        cfg = JanusConfig(k=16, sample_rate=0.05, catchup_rate=0.10,
                          check_every=10 ** 9, seed=1)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        lo, hi = table.domain(ds.predicate_attrs[0])
        mid = (lo + hi) / 2
        # a 20%-wide window: narrow enough to involve partial leaves,
        # wide enough that the second-moment estimate is stable
        q = Query(AggFunc.VARIANCE, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((mid,), (mid + (hi - lo) * 0.2,)))
        truth = table.ground_truth(q)
        res = janus.query(q)
        assert res.n_partial >= 1
        assert abs(res.estimate - truth) / truth < 0.6
