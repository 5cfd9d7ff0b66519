"""End-to-end tests for the JanusAQP system facade."""

import math

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table, table_from_array
from repro.datasets.synthetic import nyc_taxi
from repro.datasets.workload import generate_workload


@pytest.fixture(scope="module")
def world():
    ds = nyc_taxi(n=20_000, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:12_000])
    cfg = JanusConfig(k=32, sample_rate=0.03, catchup_rate=0.10,
                      check_every=10 ** 9, seed=0)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    return janus, table, ds


def full_query(ds, agg=AggFunc.SUM):
    return Query(agg, ds.agg_attr, ds.predicate_attrs,
                 Rectangle((-math.inf,), (math.inf,)))


class TestInitialization:
    def test_init_reports_phases(self, world):
        janus, _, _ = world
        rep = janus.last_reopt
        assert rep.optimize_seconds > 0
        assert rep.blocking_seconds > 0
        assert rep.catchup.n_processed == 1200    # 10% of 12000

    def test_pool_bounds(self, world):
        janus, _, _ = world
        assert janus.reservoir.min_size <= janus.pool_size \
            <= janus.reservoir.target_size

    def test_tree_built(self, world):
        janus, _, _ = world
        assert janus.dpt is not None
        assert janus.dpt.k <= 32

    def test_query_before_init_raises(self):
        t = table_from_array(("x", "a"), np.ones((10, 2)))
        j = JanusAQP(t, "a", ("x",))
        with pytest.raises(RuntimeError):
            j.query(Query(AggFunc.SUM, "a", ("x",),
                          Rectangle((0.0,), (1.0,))))

    def test_agg_attr_must_be_tracked(self):
        t = table_from_array(("x", "a"), np.ones((10, 2)))
        with pytest.raises(ValueError):
            JanusAQP(t, "a", ("x",), stat_attrs=("x",))


class TestAccuracy:
    def test_workload_median_error_small(self, world):
        janus, table, ds = world
        queries = generate_workload(table, AggFunc.SUM, ds.agg_attr,
                                    ds.predicate_attrs, n_queries=200,
                                    seed=3)
        errs = []
        for q in queries:
            truth = table.ground_truth(q)
            if truth == 0:
                continue
            est = janus.query(q).estimate
            errs.append(abs(est - truth) / abs(truth))
        assert np.median(errs) < 0.10

    @pytest.mark.parametrize("agg", [AggFunc.SUM, AggFunc.COUNT,
                                     AggFunc.AVG])
    def test_full_domain_close(self, world, agg):
        janus, table, ds = world
        q = full_query(ds, agg)
        truth = table.ground_truth(q)
        est = janus.query(q).estimate
        assert abs(est - truth) / abs(truth) < 0.05

    def test_count_full_domain_tracks_population(self, world):
        """COUNT over everything = n0 + exact deltas: near-exact."""
        janus, table, ds = world
        q = full_query(ds, AggFunc.COUNT)
        est = janus.query(q).estimate
        assert est == pytest.approx(len(table), rel=0.01)

    def test_minmax_bounds(self, world):
        janus, table, ds = world
        q = full_query(ds, AggFunc.MAX)
        est = janus.query(q).estimate
        truth = table.ground_truth(q)
        assert est <= truth + 1e-9               # sampled max: inner approx
        assert est > 0.3 * truth


class TestDynamics:
    def test_insert_visible_in_estimates(self, world):
        janus, table, ds = world
        q = full_query(ds, AggFunc.COUNT)
        before = janus.query(q).estimate
        for _ in range(500):
            janus.insert(ds.data[15_000])
        after = janus.query(q).estimate
        assert after == pytest.approx(before + 500, rel=0.01)

    def test_delete_visible_in_estimates(self, world):
        janus, table, ds = world
        q = full_query(ds, AggFunc.COUNT)
        before = janus.query(q).estimate
        victims = table.live_tids()[:300]
        for tid in victims:
            janus.delete(int(tid))
        after = janus.query(q).estimate
        assert after == pytest.approx(before - 300, rel=0.01)

    def test_sum_tracks_inserts_exactly(self, world):
        janus, table, ds = world
        q = full_query(ds, AggFunc.SUM)
        before = janus.query(q).estimate
        add = ds.data[16_000]
        agg_idx = list(ds.schema).index(ds.agg_attr)
        janus.insert(add)
        after = janus.query(q).estimate
        assert after - before == pytest.approx(add[agg_idx], abs=1e-6)

    def test_reservoir_membership_consistent(self, world):
        janus, table, ds = world
        for tid in janus.reservoir.tids():
            assert tid in table
            assert tid in janus.pool
            assert tid in janus.sample_index


class TestReoptimize:
    def test_reoptimize_preserves_accuracy(self, world):
        janus, table, ds = world
        q = full_query(ds, AggFunc.SUM)
        truth = table.ground_truth(q)
        rep = janus.reoptimize()
        assert rep.total_seconds > 0
        est = janus.query(q).estimate
        assert abs(est - truth) / abs(truth) < 0.05
        assert janus.n_repartitions >= 1

    def test_storage_cost_reported(self, world):
        janus, _, _ = world
        assert janus.storage_cost_bytes() > 0


class TestOutOfDomainArrivals:
    def test_inserts_beyond_domain_are_routable(self):
        """Skewed arrivals past the build-time domain must not be lost."""
        rng = np.random.default_rng(5)
        data = np.column_stack([rng.uniform(0, 10, 3000),
                                rng.normal(5, 1, 3000)])
        table = table_from_array(("x", "a"), data)
        cfg = JanusConfig(k=8, sample_rate=0.05, check_every=10 ** 9,
                          seed=1)
        janus = JanusAQP(table, "a", ("x",), config=cfg)
        janus.initialize()
        # arrivals far beyond the old max of 10
        for x in np.linspace(20, 30, 500):
            janus.insert((float(x), 1.0))
        q = Query(AggFunc.COUNT, "a", ("x",),
                  Rectangle((15.0,), (math.inf,)))
        res = janus.query(q)
        # the boundary leaf is partially covered: sample-estimate noise
        assert res.estimate == pytest.approx(500, rel=0.3)


class TestMemoryBudget:
    def test_parameters_fit_budget(self):
        cfg = JanusConfig.from_memory_budget(200_000, n_rows=100_000,
                                             n_attrs=6)
        # 2m sample rows must fit in the budget
        m = cfg.sample_rate * 100_000
        assert 2 * m * 6 * 8 <= 200_000 * 1.05
        # the paper's ratio k ~ 0.5/100 m
        assert cfg.k == pytest.approx(m * 0.005, abs=2)

    def test_small_budget_floors(self):
        cfg = JanusConfig.from_memory_budget(1_000, n_rows=1000,
                                             n_attrs=4)
        assert cfg.k >= 2

    def test_overrides(self):
        cfg = JanusConfig.from_memory_budget(100_000, n_rows=10_000,
                                             n_attrs=4, beta=5.0)
        assert cfg.beta == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            JanusConfig.from_memory_budget(0, 10, 10)

    def test_budget_usable_end_to_end(self):
        ds = nyc_taxi(n=8_000, seed=1)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        cfg = JanusConfig.from_memory_budget(
            150_000, n_rows=len(table), n_attrs=len(ds.schema),
            check_every=10 ** 9, seed=3)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        assert janus.storage_cost_bytes() <= 150_000 * 1.5
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        truth = table.ground_truth(q)
        assert abs(janus.query(q).estimate - truth) / truth < 0.1
