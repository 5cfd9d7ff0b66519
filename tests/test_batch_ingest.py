"""Batch ingestion path equivalence tests (ISSUE 1 tentpole).

Two JanusAQP systems built with identical seeds must end up in the same
state whether the stream is applied row-by-row or through
``insert_many`` / ``delete_many``: same table, same reservoir, same DPT
node statistics (within FP reassociation tolerance) and the same query
answers.  The configs use a huge ``min_pool`` so the reservoir stays in
its deterministic fill phase - reservoir randomness is covered
separately by invariant tests, because the batch path legitimately
consumes the RNG stream in a different order at n > 1.
"""

import math

import numpy as np
import pytest

from repro.broker.broker import Broker
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.stream import StreamClient, StreamDriver
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.sampling.reservoir import DynamicReservoir

BATCH = 256


def build_janus(ds, n0, **cfg_overrides):
    params = dict(k=16, sample_rate=0.02, catchup_rate=0.10,
                  check_every=10 ** 9, min_pool=10 ** 6, seed=0)
    params.update(cfg_overrides)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:n0])
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                     config=JanusConfig(**params))
    janus.initialize()
    return janus


def assert_same_state(a: JanusAQP, b: JanusAQP):
    assert len(a.table) == len(b.table)
    assert list(a.table.live_tids()) == list(b.table.live_tids())
    np.testing.assert_array_equal(a.table.live_rows(), b.table.live_rows())
    assert a.reservoir.tids() == b.reservoir.tids()
    ta, tb = a.dpt.table, b.dpt.table
    np.testing.assert_array_equal(ta.node_id, tb.node_id)
    np.testing.assert_array_equal(ta.delta_count, tb.delta_count)
    np.testing.assert_array_equal(ta.h, tb.h)
    np.testing.assert_allclose(ta.dsum, tb.dsum, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(ta.dsumsq, tb.dsumsq, rtol=1e-9, atol=1e-6)
    np.testing.assert_allclose(ta.csum, tb.csum, rtol=1e-9, atol=1e-6)


def assert_same_answers(a: JanusAQP, b: JanusAQP, ds):
    rects = [Rectangle((-math.inf,), (math.inf,)),
             Rectangle((100.0,), (400.0,)),
             Rectangle((0.0,), (250.0,))]
    for rect in rects:
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG,
                    AggFunc.MIN, AggFunc.MAX):
            q = Query(agg, ds.agg_attr, ds.predicate_attrs, rect)
            ra, rb = a.query(q), b.query(q)
            assert ra.estimate == pytest.approx(rb.estimate, rel=1e-9,
                                                abs=1e-9), (agg, rect)
            assert ra.variance == pytest.approx(rb.variance, rel=1e-6,
                                                abs=1e-9)


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=16_000, seed=0)


class TestInsertEquivalence:
    def test_insert_many_matches_per_row(self, ds):
        a = build_janus(ds, 8_000)
        b = build_janus(ds, 8_000)
        stream = ds.data[8_000:12_000]
        tids_a = [a.insert(row) for row in stream]
        tids_b = []
        for start in range(0, len(stream), BATCH):
            tids_b.extend(b.insert_many(stream[start:start + BATCH]))
        assert tids_a == tids_b
        assert_same_state(a, b)
        assert_same_answers(a, b, ds)

    def test_single_row_batch_is_identical(self, ds):
        a = build_janus(ds, 4_000)
        b = build_janus(ds, 4_000)
        for row in ds.data[4_000:4_200]:
            a.insert(row)
            b.insert_many(row[None, :])
        assert_same_state(a, b)

    def test_insert_many_through_table_grow(self, ds):
        """The batch spans several Table._grow boundaries."""
        a_table = Table(ds.schema, capacity=16)
        b_table = Table(ds.schema, capacity=16)
        rows = ds.data[:3_000]
        tids_a = [a_table.insert(r) for r in rows]
        tids_b = b_table.insert_many(rows)
        assert tids_a == tids_b
        np.testing.assert_array_equal(a_table.live_rows(),
                                      b_table.live_rows())

    def test_empty_and_bad_batches(self, ds):
        janus = build_janus(ds, 1_000)
        assert janus.insert_many(np.empty((0, len(ds.schema)))) == []
        with pytest.raises(ValueError):
            janus.insert_many(np.ones(len(ds.schema)))  # 1-D
        with pytest.raises(ValueError):
            janus.insert_many(np.ones((4, len(ds.schema) + 1)))


class TestDeleteEquivalence:
    def test_delete_many_matches_per_row(self, ds):
        a = build_janus(ds, 12_000)
        b = build_janus(ds, 12_000)
        rng = np.random.default_rng(7)
        victims = rng.choice(a.table.live_tids(), size=3_000,
                             replace=False)
        for tid in victims:
            a.delete(int(tid))
        for start in range(0, victims.size, BATCH):
            b.delete_many(victims[start:start + BATCH])
        assert_same_state(a, b)
        assert_same_answers(a, b, ds)

    def test_delete_many_rejects_bad_tid_atomically(self, ds):
        janus = build_janus(ds, 2_000)
        live = [int(t) for t in janus.table.live_tids()[:5]]
        with pytest.raises(KeyError):
            janus.delete_many(live + [10 ** 9])
        # nothing was deleted
        assert all(t in janus.table for t in live)
        with pytest.raises(KeyError):
            janus.delete_many([live[0], live[0]])
        assert live[0] in janus.table

    def test_mixed_insert_delete_batches(self, ds):
        a = build_janus(ds, 8_000)
        b = build_janus(ds, 8_000)
        stream = ds.data[8_000:10_000]
        for row in stream:
            a.insert(row)
        doomed_a = [int(t) for t in a.table.live_tids()[1000:1600]]
        for tid in doomed_a:
            a.delete(tid)
        b.insert_many(stream)
        b.delete_many(doomed_a)
        assert_same_state(a, b)
        assert_same_answers(a, b, ds)


class TestDptBatchRouting:
    def test_batch_routes_match_per_row_routes(self, ds):
        janus = build_janus(ds, 6_000)
        dpt = janus.dpt
        rows = ds.data[6_000:7_000]
        expected = [dpt.route_leaf(r[dpt._pred_idx]).node_id
                    for r in rows]
        leaf_of = dpt.insert_rows(rows)
        got = [dpt.leaves[int(i)].node_id for i in leaf_of]
        assert got == expected

    def test_out_of_domain_rows_route(self, ds):
        """Edge inflation means far-out rows still land on a leaf."""
        janus = build_janus(ds, 6_000)
        far = np.tile(ds.data[0], (4, 1))
        far[:, janus._pred_idx[0]] = [-1e12, 1e12, -1e6, 1e6]
        leaf_of = janus.dpt.insert_rows(far)
        assert leaf_of.shape == (4,)
        assert janus.dpt.table.delta_count[0] == 4

    def test_catchup_rows_match_per_row(self, ds):
        a = build_janus(ds, 6_000)
        b = build_janus(ds, 6_000)
        rows = ds.data[6_000:6_500]
        for row in rows:
            a.dpt.add_catchup_rows(row[None])
        b.dpt.add_catchup_rows(rows)
        ta, tb = a.dpt.table, b.dpt.table
        np.testing.assert_array_equal(ta.h, tb.h)
        np.testing.assert_allclose(ta.csum, tb.csum, rtol=1e-9)
        np.testing.assert_array_equal(ta.cmin, tb.cmin)
        np.testing.assert_array_equal(ta.cmax, tb.cmax)


class TestReservoirBatch:
    def test_saturated_pool_invariants(self, ds):
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:2_000])
        res = DynamicReservoir(table, target_size=200, seed=1)
        members = set(res.initialize().added)
        for start in range(2_000, 10_000, 512):
            rows = ds.data[start:start + 512]
            tids = table.insert_many(rows)
            change = res.on_insert_many(tids)
            # the returned net change mirrors membership exactly
            assert set(change.removed) <= members
            assert not set(change.added) & members
            members = (members - set(change.removed)) | set(change.added)
            assert len(res) == 200
            assert members == set(res.tids())

    def test_fill_phase_is_deterministic(self, ds):
        table = Table(ds.schema, capacity=4_096)
        res = DynamicReservoir(table, target_size=1_000, seed=1)
        tids = table.insert_many(ds.data[:600])
        res.on_insert_many(tids)
        assert res.tids() == tids

    def test_delete_many_triggers_one_resample(self, ds):
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:4_000])
        res = DynamicReservoir(table, target_size=100, seed=2)
        res.initialize()
        victims = res.tids()[:80]   # shrink well below min_size=50
        res.on_delete_many(victims)
        assert res.n_resamples == 1
        assert len(res) == 100      # refilled to the target in one redraw


class TestTriggerBatchAccounting:
    def test_check_every_counts_batch_rows(self, ds):
        janus = build_janus(ds, 4_000, check_every=10 ** 9)
        before = janus.trigger.state.updates_since_repartition
        janus.insert_many(ds.data[4_000:4_300])
        assert janus.trigger.state.updates_since_repartition == before + 300

    def test_check_cadence_keeps_remainder_across_batches(self, ds):
        """A 300-row batch at check_every=256 leaves 44 on the counter,
        so the next check comes due after 212 more updates - the same
        one-check-per-256-updates cadence as the per-row path."""
        janus = build_janus(ds, 4_000, check_every=256,
                            auto_repartition=False)
        janus.insert_many(ds.data[4_000:4_300])
        assert janus.trigger.state.updates_since_check == 300 % 256

    def test_forced_repartition_fires_mid_stream(self, ds):
        """A repartition_every threshold crossed inside a batch fires."""
        janus = build_janus(ds, 4_000, repartition_every=500,
                            check_every=10 ** 9)
        assert janus.n_repartitions == 0
        janus.insert_many(ds.data[4_000:4_700])   # crosses 500
        assert janus.n_repartitions >= 1
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        assert janus.query(q).estimate == pytest.approx(len(janus.table),
                                                        rel=0.05)


class TestStreamBatchPath:
    @pytest.fixture()
    def world(self, ds):
        janus = build_janus(ds, 8_000)
        broker = Broker()
        return broker, janus

    def test_bulk_produce_and_drain(self, ds, world):
        broker, janus = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        keys = client.insert_many(ds.data[8_000:9_000])
        assert keys == list(range(1_000))
        stats = driver.drain()
        assert stats.n_inserts == 1_000
        assert len(janus.table) == 9_000
        client.delete_many(keys[:400])
        stats = driver.drain()
        assert stats.n_deletes == 400
        assert len(janus.table) == 8_600

    def test_batch_matches_per_row_driver(self, ds):
        a = build_janus(ds, 8_000)
        b = build_janus(ds, 8_000)
        rows = ds.data[8_000:9_000]

        broker_a = Broker()
        client_a = StreamClient(broker_a)
        driver_a = StreamDriver(broker_a, a)
        for row in rows:                # one record per drain
            client_a.insert(row)
            driver_a.drain()

        broker_b = Broker()
        client_b = StreamClient(broker_b)
        driver_b = StreamDriver(broker_b, b)
        client_b.insert_many(rows)
        driver_b.drain()
        assert_same_state(a, b)
        assert_same_answers(a, b, ds)

    def test_bad_records_mid_batch_preserve_order(self, ds, world):
        broker, janus = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        topic = broker.topic(Broker.INSERT)
        client.insert_many(ds.data[8_000:8_010])
        topic.produce("garbage record")
        client.insert_many(ds.data[8_010:8_020])
        stats = driver.drain()
        assert stats.n_inserts == 20
        assert stats.n_bad_requests == 1
        assert len(janus.table) == 8_020
        # delete-topic: unknown keys counted bad, live ones applied
        client.delete_many(list(range(5)) + [10 ** 6])
        stats = driver.drain()
        assert stats.n_deletes == 5
        assert stats.n_bad_requests == 2
