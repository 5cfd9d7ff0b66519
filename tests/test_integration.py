"""Cross-module integration tests: mini versions of the paper's dynamics.

These exercise the same phenomena the evaluation section reports, at a
scale suitable for CI: skewed insertions degrading a static tree while
re-partitioning recovers (Figure 10), uniform deletions keeping error
stable (Figure 6), catch-up improving accuracy (Figure 7), and JanusAQP
beating plain uniform sampling (Table 2's ordering).
"""

import math
import os
import sys

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.datasets.workload import generate_workload

# the paper-figure benchmarks' library (benchmarks/lib) imports as ``lib``
sys.path.insert(0, os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks")))

from lib.metrics import median_relative_error  # noqa: E402
from lib.rs import ReservoirBaseline  # noqa: E402


def median_err(system, queries, table):
    ests, truths = [], []
    for q in queries:
        ests.append(system.query(q).estimate)
        truths.append(table.ground_truth(q))
    return median_relative_error(ests, truths)


class TestJanusVsUniform:
    def test_janus_beats_rs_on_selective_queries(self):
        """Table 2's headline ordering: JanusAQP < RS at equal sampling."""
        ds = nyc_taxi(n=30_000, seed=0)
        t1 = Table(ds.schema, capacity=ds.n + 16)
        t1.insert_many(ds.data)
        t2 = Table(ds.schema, capacity=ds.n + 16)
        t2.insert_many(ds.data)
        cfg = JanusConfig(k=64, sample_rate=0.01, catchup_rate=0.10,
                          check_every=10 ** 9, seed=0)
        janus = JanusAQP(t1, ds.agg_attr, ds.predicate_attrs, config=cfg)
        janus.initialize()
        rs = ReservoirBaseline(t2, sample_rate=0.01, seed=0)
        queries = generate_workload(t1, AggFunc.SUM, ds.agg_attr,
                                    ds.predicate_attrs, n_queries=300,
                                    seed=11)
        err_janus = median_err(janus, queries, t1)
        err_rs = median_err(rs, queries, t2)
        # The paper reports >60% error reduction; demand at least 2x here.
        assert err_janus < err_rs / 2


class TestSkewedInsertions:
    def test_repartition_recovers_from_skew(self):
        """Figure 10 (left): static DPT degrades, re-partitioning helps."""
        ds = nyc_taxi(n=40_000, seed=1)
        order = np.argsort(ds.data[:, 0])         # sort by pickup_time
        sorted_rows = ds.data[order]

        def build(auto):
            t = Table(ds.schema, capacity=ds.n + 16)
            t.insert_many(sorted_rows[:8000])
            cfg = JanusConfig(k=32, sample_rate=0.02, catchup_rate=0.10,
                              check_every=10 ** 9, seed=2)
            j = JanusAQP(t, ds.agg_attr, ds.predicate_attrs, config=cfg)
            j.initialize()
            return j, t

        static, t_static = build(False)
        dynamic, t_dyn = build(True)
        # stream skewed arrivals; the dynamic system re-optimizes per chunk
        chunks = np.array_split(sorted_rows[8000:32_000], 3)
        for chunk in chunks:
            for row in chunk:
                static.insert(row)
                dynamic.insert(row)
            dynamic.reoptimize()
        queries = generate_workload(t_dyn, AggFunc.SUM, ds.agg_attr,
                                    ds.predicate_attrs, n_queries=200,
                                    seed=13)
        err_static = median_err(static, queries, t_static)
        err_dynamic = median_err(dynamic, queries, t_dyn)
        assert err_dynamic < err_static

    def test_trigger_fires_under_skew(self):
        """The automatic trigger should notice skewed arrivals."""
        ds = nyc_taxi(n=20_000, seed=3)
        order = np.argsort(ds.data[:, 0])
        rows = ds.data[order]
        t = Table(ds.schema, capacity=ds.n + 16)
        t.insert_many(rows[:5000])
        cfg = JanusConfig(k=16, sample_rate=0.03, catchup_rate=0.05,
                          check_every=200, beta=2.0, seed=4,
                          auto_repartition=True)
        j = JanusAQP(t, ds.agg_attr, ds.predicate_attrs, config=cfg)
        j.initialize()
        for row in rows[5000:15_000]:
            j.insert(row)
        assert j.trigger.state.n_candidates + j.n_repartitions > 0


class TestDeletions:
    def test_uniform_deletions_stable_error(self):
        """Figure 6: uniformly spread deletions keep error stable."""
        ds = nyc_taxi(n=30_000, seed=5)
        t = Table(ds.schema, capacity=ds.n + 16)
        t.insert_many(ds.data[:20_000])
        cfg = JanusConfig(k=32, sample_rate=0.02, catchup_rate=0.10,
                          check_every=10 ** 9, seed=6)
        j = JanusAQP(t, ds.agg_attr, ds.predicate_attrs, config=cfg)
        j.initialize()
        queries = generate_workload(t, AggFunc.SUM, ds.agg_attr,
                                    ds.predicate_attrs, n_queries=150,
                                    seed=17)
        err_before = median_err(j, queries, t)
        rng = np.random.default_rng(7)
        victims = rng.choice(t.live_tids(), size=1500, replace=False)
        for tid in victims:
            j.delete(int(tid))
        err_after = median_err(j, queries, t)
        assert err_after < max(3 * err_before, 0.08)

    def test_heavy_deletion_resamples_reservoir(self):
        ds = nyc_taxi(n=10_000, seed=8)
        t = Table(ds.schema, capacity=ds.n + 16)
        t.insert_many(ds.data[:8000])
        cfg = JanusConfig(k=8, sample_rate=0.05, catchup_rate=0.05,
                          check_every=10 ** 9, seed=9)
        j = JanusAQP(t, ds.agg_attr, ds.predicate_attrs, config=cfg)
        j.initialize()
        rng = np.random.default_rng(10)
        victims = rng.choice(t.live_tids(), size=6000, replace=False)
        for tid in victims:
            j.delete(int(tid))
        # pool must stay within bounds and consistent with the table
        assert j.reservoir.min_size <= j.pool_size
        for tid in j.reservoir.tids():
            assert tid in t
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        assert j.query(q).estimate == pytest.approx(2000, rel=0.02)


class TestCatchupKnob:
    def test_more_catchup_less_error(self):
        """Figure 7 (left): accuracy improves with the catch-up goal."""
        ds = nyc_taxi(n=30_000, seed=11)
        errors = {}
        for goal_rate in (0.01, 0.20):
            t = Table(ds.schema, capacity=ds.n + 16)
            t.insert_many(ds.data)
            cfg = JanusConfig(k=32, sample_rate=0.005,
                              catchup_rate=goal_rate,
                              check_every=10 ** 9, seed=12)
            j = JanusAQP(t, ds.agg_attr, ds.predicate_attrs, config=cfg)
            j.initialize()
            queries = generate_workload(t, AggFunc.SUM, ds.agg_attr,
                                        ds.predicate_attrs,
                                        n_queries=150, seed=19)
            errors[goal_rate] = median_err(j, queries, t)
        assert errors[0.20] <= errors[0.01]


class TestQueryNeverTouchesTable:
    def test_query_reads_no_base_rows(self, monkeypatch):
        """Section 4.4: 'the query procedure does not access the entire
        data' - verify no Table.row / ground-truth access during query."""
        ds = nyc_taxi(n=8000, seed=13)
        t = Table(ds.schema, capacity=ds.n + 16)
        t.insert_many(ds.data)
        cfg = JanusConfig(k=16, sample_rate=0.02, check_every=10 ** 9,
                          seed=14)
        j = JanusAQP(t, ds.agg_attr, ds.predicate_attrs, config=cfg)
        j.initialize()

        def forbidden(*a, **k):
            raise AssertionError("query touched the base table")
        monkeypatch.setattr(t, "row", forbidden)
        monkeypatch.setattr(t, "ground_truth", forbidden)
        monkeypatch.setattr(t, "sample_tids", forbidden)
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((100.0,), (500.0,)))
        j.query(q)                                # must not raise
