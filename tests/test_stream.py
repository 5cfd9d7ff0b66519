"""Tests for the PSoup-style request stream (Section 3.2)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.broker.broker import Broker
from repro.broker.requests import (DeleteRequest, InsertRequest,
                                   QueryRequest, QueryResponse, decode,
                                   decode_result, encode_delete,
                                   encode_insert, encode_query,
                                   encode_result)
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.stream import StreamClient, StreamDriver
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi


class TestRequestCodec:
    def test_insert_roundtrip(self):
        req = decode(encode_insert(7, [1.5, -2.0, 3.25]))
        assert isinstance(req, InsertRequest)
        assert req.key == 7
        assert req.values == (1.5, -2.0, 3.25)

    def test_delete_roundtrip(self):
        req = decode(encode_delete(42))
        assert isinstance(req, DeleteRequest) and req.key == 42

    def test_query_roundtrip(self):
        q = Query(AggFunc.AVG, "light", ("time", "humidity"),
                  Rectangle((0.0, 10.0), (5.0, 20.0)))
        req = decode(encode_query(3, q))
        assert isinstance(req, QueryRequest)
        assert req.query_id == 3
        assert req.query == q

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            decode("X|1|2")


@pytest.fixture
def world():
    ds = nyc_taxi(n=12_000, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:8000])
    cfg = JanusConfig(k=32, sample_rate=0.02, catchup_rate=0.10,
                      check_every=10 ** 9, seed=0)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    broker = Broker()
    return broker, janus, table, ds


class TestStreamDriver:
    def test_insert_stream(self, world):
        broker, janus, table, ds = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        for row in ds.data[8000:8500]:
            client.insert(row)
        stats = driver.drain()
        assert stats.n_inserts == 500
        assert len(table) == 8500

    def test_delete_by_client_key(self, world):
        broker, janus, table, ds = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        keys = [client.insert(row) for row in ds.data[8000:8100]]
        driver.drain()
        for key in keys[:40]:
            client.delete(key)
        stats = driver.drain()
        assert stats.n_deletes == 40
        assert len(table) == 8060

    def test_query_reflects_arrived_data(self, world):
        broker, janus, table, ds = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        qid_before = client.execute(q)
        for row in ds.data[8000:8200]:
            client.insert(row)
        qid_after = client.execute(q)
        driver.drain()
        # data topics drain before queries, so both queries see all the
        # arrived data (Kafka gives no cross-topic ordering)
        assert driver.results[qid_after].estimate == pytest.approx(
            8200, rel=0.01)
        assert qid_before in driver.results

    def test_results_topic_populated(self, world):
        broker, janus, table, ds = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((0.0,), (500.0,)))
        client.execute(q)
        driver.drain()
        results_topic = broker.topic(StreamDriver.RESULTS)
        assert len(results_topic) == 1
        response = decode_result(results_topic.poll(0, 1)[0])
        result = driver.results[0]
        assert isinstance(response, QueryResponse)
        assert response.query_id == 0
        # the record carries the whole envelope, floats by repr: exact
        assert response.result == dataclasses.replace(result, details={})

    def test_bad_requests_counted(self, world):
        broker, janus, table, ds = world
        driver = StreamDriver(broker, janus)
        broker.topic(Broker.INSERT).produce("garbage")
        broker.topic(Broker.DELETE).produce(encode_delete(999_999))
        stats = driver.drain()
        assert stats.n_bad_requests == 2

    def test_wrong_width_insert_costs_only_itself(self, world):
        """A well-formed insert of the wrong width between two valid
        ones in one poll: it is one bad request and both valid rows
        are inserted."""
        broker, janus, table, ds = world
        driver = StreamDriver(broker, janus)
        n_before = len(table)
        topic = broker.topic(Broker.INSERT)
        topic.produce_many([encode_insert(0, ds.data[8000]),
                            encode_insert(1, [0.3]),
                            encode_insert(2, ds.data[8001])])
        stats = driver.drain()
        assert (stats.n_inserts, stats.n_bad_requests) == (2, 1)
        assert len(table) == n_before + 2
        assert np.array_equal(table.row(driver._tid_of_key[2]),
                              ds.data[8001])

    def test_mixed_workload_consistency(self, world):
        broker, janus, table, ds = world
        client = StreamClient(broker)
        driver = StreamDriver(broker, janus)
        rng = np.random.default_rng(3)
        live_keys = []
        for row in ds.data[8000:9000]:
            live_keys.append(client.insert(row))
            if live_keys and rng.random() < 0.2:
                idx = int(rng.integers(len(live_keys)))
                client.delete(live_keys.pop(idx))
        driver.drain()
        q = Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((-math.inf,), (math.inf,)))
        qid = client.execute(q)
        driver.drain()
        assert driver.results[qid].estimate == pytest.approx(
            len(table), rel=0.01)

    def test_off_template_query_costs_only_itself(self, world):
        """good, bad, good in one execute poll: the untracked column is
        one bad request and its neighbours (already consumed) are still
        answered - on the batch path and on the per-record path an
        off-topic record takes."""
        broker, janus, table, ds = world
        client, driver = StreamClient(broker), StreamDriver(broker, janus)
        good = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                     Rectangle((0.0,), (500.0,)))
        bad = good.with_agg(AggFunc.SUM, "not_a_tracked_column")
        ids = client.execute_many([good, bad, good])
        broker.topic(Broker.INSERT).produce(encode_query(99, bad))
        broker.topic(Broker.INSERT).produce(encode_query(100, good))
        stats = driver.drain()
        assert sorted(driver.results) == [ids[0], ids[2], 100]
        assert (stats.n_queries, stats.n_bad_requests) == (3, 2)
        assert driver.results[ids[0]].estimate == \
            driver.results[ids[2]].estimate == janus.query(good).estimate
        assert len(broker.topic(StreamDriver.RESULTS)) == 3
