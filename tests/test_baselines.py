"""Tests for the RS / SRS / DeepDB baselines."""

import math
import os
import sys

import numpy as np
import pytest

from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi

# the paper-figure benchmarks' library (benchmarks/lib) imports as ``lib``
sys.path.insert(0, os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks")))

from lib.deepdb import DeepDBBaseline  # noqa: E402
from lib.rs import ReservoirBaseline  # noqa: E402
from lib.srs import StratifiedReservoirBaseline  # noqa: E402


@pytest.fixture(scope="module")
def world():
    ds = nyc_taxi(n=15_000, seed=0)
    return ds


def fresh_table(ds, n=10_000):
    t = Table(ds.schema, capacity=ds.n + 16)
    t.insert_many(ds.data[:n])
    return t


def q_sum(ds, lo=-math.inf, hi=math.inf):
    return Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                 Rectangle((lo,), (hi,)))


class TestReservoirBaseline:
    def test_estimates_reasonable(self, world):
        t = fresh_table(world)
        rs = ReservoirBaseline(t, sample_rate=0.05, seed=0)
        q = q_sum(world)
        truth = t.ground_truth(q)
        assert abs(rs.query(q).estimate - truth) / truth < 0.15

    def test_all_aggregates(self, world):
        t = fresh_table(world)
        rs = ReservoirBaseline(t, sample_rate=0.05, seed=1)
        for agg in (AggFunc.COUNT, AggFunc.AVG):
            q = q_sum(world).with_agg(agg)
            truth = t.ground_truth(q)
            assert abs(rs.query(q).estimate - truth) / abs(truth) < 0.15

    def test_insert_delete_flow(self, world):
        t = fresh_table(world, n=5000)
        rs = ReservoirBaseline(t, sample_rate=0.05, seed=2)
        for row in world.data[5000:5500]:
            rs.insert(row)
        for tid in t.live_tids()[:200]:
            rs.delete(int(tid))
        q = q_sum(world).with_agg(AggFunc.COUNT)
        truth = t.ground_truth(q)
        assert abs(rs.query(q).estimate - truth) / truth < 0.15

    def test_variance_reported(self, world):
        t = fresh_table(world)
        rs = ReservoirBaseline(t, sample_rate=0.05, seed=0)
        res = rs.query(q_sum(world, 100.0, 300.0))
        assert res.variance_sample > 0


class TestStratifiedBaseline:
    def test_estimates_reasonable(self, world):
        t = fresh_table(world)
        srs = StratifiedReservoirBaseline(
            t, world.predicate_attrs[0], n_strata=32, sample_rate=0.05,
            seed=0)
        q = q_sum(world)
        truth = t.ground_truth(q)
        assert abs(srs.query(q).estimate - truth) / truth < 0.15

    def test_stratum_populations_exact(self, world):
        t = fresh_table(world, n=5000)
        srs = StratifiedReservoirBaseline(
            t, world.predicate_attrs[0], n_strata=16, sample_rate=0.05,
            seed=0)
        assert srs._populations.sum() == 5000
        for row in world.data[5000:5300]:
            srs.insert(row)
        assert srs._populations.sum() == 5300
        for tid in t.live_tids()[:100]:
            srs.delete(int(tid))
        assert srs._populations.sum() == 5200

    def test_wrong_predicate_attr_raises(self, world):
        t = fresh_table(world)
        srs = StratifiedReservoirBaseline(t, world.predicate_attrs[0],
                                          seed=0)
        q = Query(AggFunc.SUM, world.agg_attr, ("dropoff_time",),
                  Rectangle((0.0,), (1.0,)))
        with pytest.raises(ValueError):
            srs.query(q)

    def test_avg(self, world):
        t = fresh_table(world)
        srs = StratifiedReservoirBaseline(
            t, world.predicate_attrs[0], n_strata=32, sample_rate=0.05,
            seed=3)
        q = q_sum(world, 100.0, 500.0).with_agg(AggFunc.AVG)
        truth = t.ground_truth(q)
        assert abs(srs.query(q).estimate - truth) / abs(truth) < 0.2


class TestDeepDB:
    def test_fit_and_query(self, world):
        t = fresh_table(world)
        db = DeepDBBaseline(t, training_rate=0.2, seed=0)
        secs = db.fit()
        assert secs > 0
        q = q_sum(world)
        truth = t.ground_truth(q)
        assert abs(db.query(q).estimate - truth) / truth < 0.25

    def test_count_reasonable(self, world):
        t = fresh_table(world)
        db = DeepDBBaseline(t, training_rate=0.2, seed=1)
        db.fit()
        q = q_sum(world, 200.0, 500.0).with_agg(AggFunc.COUNT)
        truth = t.ground_truth(q)
        assert abs(db.query(q).estimate - truth) / truth < 0.3

    def test_query_before_fit_raises(self, world):
        t = fresh_table(world)
        db = DeepDBBaseline(t)
        with pytest.raises(RuntimeError):
            db.query(q_sum(world))

    def test_model_frozen_until_retrain(self, world):
        """Inserts do not change the model's answers (fixed resolution)."""
        t = fresh_table(world, n=8000)
        db = DeepDBBaseline(t, training_rate=0.2, seed=2)
        db.fit()
        q = q_sum(world).with_agg(AggFunc.COUNT)
        before = db.query(q).estimate
        for row in world.data[8000:9000]:
            db.insert(row)
        assert db.query(q).estimate == before
        db.fit()
        after = db.query(q).estimate
        assert after > before                     # retrain sees new rows

    def test_training_cost_grows_with_data(self, world):
        """Re-training cost scales with the training-set size."""
        small = fresh_table(world, n=2000)
        big = fresh_table(world, n=14_000)
        t_small = DeepDBBaseline(small, training_rate=0.5, seed=3).fit()
        t_big = DeepDBBaseline(big, training_rate=0.5, seed=3).fit()
        assert t_big > t_small

    def test_model_size(self, world):
        t = fresh_table(world)
        db = DeepDBBaseline(t, training_rate=0.2, seed=4)
        db.fit()
        assert db.model_size() >= 1
