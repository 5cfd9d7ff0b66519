"""The ingest lane: what a write costs beyond its own rows.

* One NaN predicate value must not collapse the synopsis: the root
  rectangle comes from :meth:`Table.domain`, which ignores NaN.
* The pool files a batch's accepted rows under the leaves the tree's
  descent already found - those strata must be exactly where the router
  puts the rows, for both router walks, NaN coordinates and a growth
  resample.
* A write that does not commit reads neither the table's columns nor
  the router a second time, and in 1-D never masks the pool: its oracle
  calls and its candidate read slices of the key-ordered view, built
  once per pool version (counted by monkeypatching).
"""

import math

import numpy as np
import pytest

from repro.core.dpt import LEVELWISE_MIN_ROWS, DynamicPartitionTree
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.index.range_index import RangeIndex
from repro.sampling.pool import SamplePool


@pytest.fixture(scope="module")
def taxi():
    return nyc_taxi(n=24_000, seed=0)


def taxi_engine(ds, data, **knobs):
    table = Table(ds.schema)
    table.insert_many(data)
    engine = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                      config=JanusConfig(k=64, sample_rate=0.02, seed=7,
                                         **knobs))
    engine.initialize()
    return engine


def sum_query(ds):
    return Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                 Rectangle((100.0,), (400.0,)))


class TestNanPredicateValue:
    def test_initialize_over_a_nan_row_keeps_its_leaves(self, taxi):
        data = taxi.data[:19_000].copy()
        data[100, 0] = math.nan
        engine = taxi_engine(taxi, data)
        assert engine.table.domain("pickup_time") == (
            np.nanmin(data[:, 0]), np.nanmax(data[:, 0]))
        assert engine.dpt.k == 64
        q = sum_query(taxi)
        truth = engine.table.ground_truth(q)
        got = engine.query(q)
        assert got.variance > 0
        assert abs(got.estimate - truth) / truth < 0.1

    def test_drift_check_after_a_nan_insert_keeps_the_tree(self, taxi):
        engine = taxi_engine(taxi, taxi.data[:19_000], check_every=80)
        row = taxi.data[19_000:19_001].copy()
        row[0, 0] = math.nan
        engine.insert_many(row)
        q = sum_query(taxi)
        checks = engine.trigger.state.n_checks
        for i in range(8):
            engine.insert_many(
                taxi.data[19_001 + 80 * i:19_001 + 80 * (i + 1)])
            assert engine.dpt.k > 1
            truth = engine.table.ground_truth(q)
            assert abs(engine.query(q).estimate - truth) / truth < 0.1
        assert engine.trigger.state.n_checks > checks


def assert_filed_where_routed(engine):
    """Every pooled tid sits in the stratum the router gives its row."""
    n = 0
    for key in engine.pool.sizes():
        tids = engine.pool.tids(key)
        rows = engine.table.rows_for(tids)
        np.testing.assert_array_equal(engine.pool.matrix(key), rows)
        assert (engine.dpt.leaf_ids_of(rows) == key).all()
        n += len(tids)
    assert n == engine.pool_size


@pytest.mark.parametrize("dims", [1, 2])
def test_pool_strata_match_the_router(dims):
    rng = np.random.default_rng(dims)
    table = Table(("x", "y", "a"))
    table.insert_many(rng.uniform(0, 100, (2000, 3)))
    engine = JanusAQP(table, "a", ("x", "y")[:dims], config=JanusConfig(
        k=16, sample_rate=0.05, min_pool=64, check_every=10 ** 9,
        seed=dims))
    engine.initialize()
    assert_filed_where_routed(engine)
    sizes = (1, LEVELWISE_MIN_ROWS - 1, LEVELWISE_MIN_ROWS, 80)
    grown = 0
    for step in range(32):
        n = sizes[step % len(sizes)]
        rows = rng.uniform(0, 100, (n, 3))
        if step % 5 == 0:
            # Below target the pool takes the next rows as they come,
            # so the NaN row is certainly filed by the batch's descent.
            engine.delete_many(engine.reservoir.tids()[:2])
            rows[0, 0] = math.nan
        target = engine.reservoir.target_size
        before = set(engine.reservoir.tids())
        tids = engine.insert_many(rows)
        grown += engine.reservoir.target_size != target
        if step % 5 == 0 and engine.reservoir.target_size == target:
            assert tids[0] in set(engine.reservoir.tids()) - before
        assert_filed_where_routed(engine)
    # the 80-row batches take the table past the 25% growth hysteresis
    assert grown >= 1


def test_a_write_that_does_not_commit_rereads_nothing(monkeypatch, taxi):
    # beta so high no candidate can commit: every check is evaluated
    # in full and rejected.
    engine = taxi_engine(taxi, taxi.data[:19_000], check_every=80,
                         beta=1e12)
    lo, hi = engine.table.domain("pickup_time")
    calls = {"column": 0, "live_rows": 0, "leaf_ids_of": 0, "report": 0}
    for cls, name in ((Table, "column"), (Table, "live_rows"),
                      (DynamicPartitionTree, "leaf_ids_of"),
                      (RangeIndex, "report")):
        def counted(self, *args, _name=name, _orig=getattr(cls, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(cls, name, counted)
    # The pool orders its members by key (patched or sorted) once per
    # view it builds; the index it hands them to never sorts again.
    builds, sorts, key_ordered = [], [], SamplePool._key_ordered
    key_order = RangeIndex.key_order

    def counted_key_ordered(self):
        builds.append(engine.pool.version)
        return key_ordered(self)

    def counted_key_order(self):
        if self._view is None:
            sorts.append(engine.pool.version)
        return key_order(self)
    monkeypatch.setattr(SamplePool, "_key_ordered", counted_key_ordered)
    monkeypatch.setattr(RangeIndex, "key_order", counted_key_order)
    rejected = engine._c_checks["rejected"].value
    rng = np.random.default_rng(3)
    inner = taxi.data[19_000:]
    inner = inner[(inner[:, 0] > lo) & (inner[:, 0] < hi)]
    for i in range(30):
        engine.insert_many(inner[80 * i:80 * (i + 1)])
        live = engine.table.live_tids()
        keys = engine.table.rows_for(live)[:, 0]
        interior = live[(keys > lo) & (keys < hi)]
        engine.delete_many(rng.choice(interior, 20, replace=False))
    assert engine._c_checks["rejected"].value - rejected >= 10
    assert engine.n_repartitions == 0
    assert calls == {"column": 0, "live_rows": 0, "leaf_ids_of": 0,
                     "report": 0}
    # one view, sorted once, serves every oracle call and candidate of a
    # pool version
    assert len(builds) >= 10
    assert len(set(builds)) == len(builds)
    assert sorts == []
    assert engine.table.domain("pickup_time") == (lo, hi)
