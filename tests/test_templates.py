"""Tests for multi-template support (Section 5.5, both methods)."""

import math

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.core.templates import HeuristicRouter, SynopsisManager
from repro.datasets.synthetic import nyc_taxi


@pytest.fixture(scope="module")
def world():
    ds = nyc_taxi(n=10_000, seed=1)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:8000])
    return table, ds


CFG = JanusConfig(k=16, sample_rate=0.03, catchup_rate=0.10,
                  check_every=10 ** 9, seed=0)


class TestSynopsisManager:
    def test_multiple_templates(self, world):
        table, ds = world
        mgr = SynopsisManager(table, config=CFG)
        mgr.add_template("trip_distance", ("pickup_time",))
        mgr.add_template("fare", ("dropoff_time",))
        assert len(mgr.templates()) == 2

    def test_add_template_idempotent(self, world):
        table, ds = world
        mgr = SynopsisManager(table, config=CFG)
        a = mgr.add_template("trip_distance", ("pickup_time",))
        b = mgr.add_template("trip_distance", ("pickup_time",))
        assert a is b

    def test_query_routes_to_matching_tree(self, world):
        table, ds = world
        mgr = SynopsisManager(table, config=CFG)
        mgr.add_template("trip_distance", ("pickup_time",))
        q = Query(AggFunc.SUM, "trip_distance", ("pickup_time",),
                  Rectangle((-math.inf,), (math.inf,)))
        truth = table.ground_truth(q)
        est = mgr.query(q).estimate
        assert abs(est - truth) / truth < 0.05

    def test_lazy_template_on_new_query(self, world):
        table, ds = world
        mgr = SynopsisManager(table, config=CFG)
        q = Query(AggFunc.SUM, "fare", ("pickup_time_of_day",),
                  Rectangle((0.0,), (12.0,)))
        res = mgr.query(q)                       # builds a new tree
        assert len(mgr.templates()) == 1
        truth = table.ground_truth(q)
        assert abs(res.estimate - truth) / truth < 0.25


class TestSynopsisManagerUpdates:
    def test_insert_updates_all_trees(self):
        ds = nyc_taxi(n=6000, seed=2)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:4000])
        mgr = SynopsisManager(table, config=CFG)
        s1 = mgr.add_template("trip_distance", ("pickup_time",))
        s2 = mgr.add_template("fare", ("dropoff_time",))
        q1 = Query(AggFunc.COUNT, "trip_distance", ("pickup_time",),
                   Rectangle((-math.inf,), (math.inf,)))
        q2 = Query(AggFunc.COUNT, "fare", ("dropoff_time",),
                   Rectangle((-math.inf,), (math.inf,)))
        c1, c2 = mgr.query(q1).estimate, mgr.query(q2).estimate
        for row in ds.data[4000:4400]:
            mgr.insert(row)
        assert mgr.query(q1).estimate == pytest.approx(c1 + 400, rel=0.01)
        assert mgr.query(q2).estimate == pytest.approx(c2 + 400, rel=0.01)

    def test_delete_updates_all_trees(self):
        ds = nyc_taxi(n=5000, seed=3)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:4000])
        mgr = SynopsisManager(table, config=CFG)
        mgr.add_template("trip_distance", ("pickup_time",))
        mgr.add_template("fare", ("dropoff_time",))
        q = Query(AggFunc.COUNT, "fare", ("dropoff_time",),
                  Rectangle((-math.inf,), (math.inf,)))
        before = mgr.query(q).estimate
        for tid in table.live_tids()[:200]:
            mgr.delete(int(tid))
        assert mgr.query(q).estimate == pytest.approx(before - 200,
                                                      rel=0.01)


    def test_every_template_gets_the_whole_ingest_body(self):
        """Growth, sketches and the delete-side trigger pass reach the
        templates after the first (they used to get a hand-copied half
        of the engine's ingest: a pool stuck at its 4k-row target and
        sketch banks that never saw an insert)."""
        ds = nyc_taxi(n=40_000, seed=4)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:4000])
        mgr = SynopsisManager(table, config=JanusConfig(
            k=16, sample_rate=0.03, check_every=64, auto_repartition=False,
            sketch_attrs=("fare",), seed=0))
        first = mgr.add_template("trip_distance", ("pickup_time",))
        second = mgr.add_template("fare", ("dropoff_time",))
        tids = mgr.insert_many(ds.data[4000:])
        assert first.reservoir.target_size == second.reservoir.target_size \
            == 2400
        assert first.pool_size == second.pool_size
        full = Rectangle((-math.inf,), (math.inf,))
        distinct = [mgr.query(Query(AggFunc.COUNT_DISTINCT, "fare", pred,
                                    full)).estimate
                    for pred in (("pickup_time",), ("dropoff_time",))]
        assert distinct[0] == distinct[1]
        truth = len(np.unique(table.column("fare")))
        assert distinct[1] == pytest.approx(truth, rel=0.1)
        # deletes: sketches follow, and the trigger counts them too
        checks = second.trigger.state.n_checks
        mgr.delete_many(tids[:20_000])
        assert second.trigger.state.n_checks > checks
        assert first.trigger.state.n_checks == second.trigger.state.n_checks
        median = [mgr.query(Query(AggFunc.PERCENTILE, "fare", pred, full,
                                  param=0.5)).estimate
                  for pred in (("pickup_time",), ("dropoff_time",))]
        assert median[0] == median[1]


class TestHeuristicRouter:
    @pytest.fixture(scope="class")
    def router(self, world):
        table, ds = world
        janus = JanusAQP(table, "trip_distance", ("pickup_time",),
                         config=CFG)
        janus.initialize()
        return HeuristicRouter(janus), table

    def test_same_template_uses_tree(self, router):
        r, table = router
        q = Query(AggFunc.SUM, "trip_distance", ("pickup_time",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = r.query(q)
        assert "fallback" not in res.details

    def test_different_agg_function_uses_tree(self, router):
        """SUM-optimized tree answers COUNT/AVG from the same stats."""
        r, table = router
        for agg in (AggFunc.COUNT, AggFunc.AVG):
            q = Query(agg, "trip_distance", ("pickup_time",),
                      Rectangle((-math.inf,), (math.inf,)))
            res = r.query(q)
            truth = table.ground_truth(q)
            assert abs(res.estimate - truth) / abs(truth) < 0.05
            assert "fallback" not in res.details

    def test_different_agg_attr_uses_tree(self, router):
        """Stats are tracked for all attributes by default."""
        r, table = router
        q = Query(AggFunc.SUM, "fare", ("pickup_time",),
                  Rectangle((-math.inf,), (math.inf,)))
        res = r.query(q)
        truth = table.ground_truth(q)
        assert abs(res.estimate - truth) / truth < 0.05
        assert "fallback" not in res.details

    def test_different_predicate_falls_back(self, router):
        r, table = router
        q = Query(AggFunc.SUM, "trip_distance", ("dropoff_time",),
                  Rectangle((100.0,), (400.0,)))
        res = r.query(q)
        assert res.details.get("fallback") == "uniform"
        truth = table.ground_truth(q)
        assert abs(res.estimate - truth) / truth < 0.35

    def test_repartition_for_new_predicate(self, router):
        r, table = router
        r.repartition_for(("dropoff_time",))
        q = Query(AggFunc.SUM, "trip_distance", ("dropoff_time",),
                  Rectangle((100.0,), (400.0,)))
        res = r.query(q)
        assert "fallback" not in res.details
