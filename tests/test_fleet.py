"""Tests for the process-per-shard serving fleet (ISSUE 8).

Five layers, matching the acceptance criteria:

* the binary frame protocol and the ``RESULT_DTYPE`` answer codec
  round-trip exactly (pure unit tests, no processes);
* a :class:`~repro.service.fleet.FleetCoordinator` answers **bit
  identically** to ``load_sharded`` of the same snapshot for all seven
  aggregates, routed and broadcast, through interleaved
  insert/delete/reoptimize, and again over a two-column template (the
  query block's ``(d,)`` sub-arrays at d = 2, plus PERCENTILE / TOPK);
* a corrupt OP_QUERY frame comes back as a ``ValueError`` naming the
  query block, and the worker keeps serving;
* a worker killed mid-life never yields a wrong or torn answer:
  mutations keep committing (journaled), queries needing the dead
  shard refuse explicitly, one supervision sweep restores the worker
  from the snapshot + journal and post-recovery answers match an
  unharmed control fleet;
* the HTTP tier surfaces the fleet: degraded ``/health``, per-worker
  ``/stats`` and ``/metrics`` counters, and a 503 (not a 500, not a
  wrong answer) while a needed worker is down.
"""

import math
import socket

import numpy as np
import pytest

from repro.broker.frames import (HEADER, MAX_PAYLOAD, OP_INSERT, OP_OK,
                                 OP_QUERY, decode_result_block,
                                 encode_query_block, encode_result_block,
                                 pack_reply, recv_frame, send_frame,
                                 split_reply)
from repro.core.janus import JanusConfig
from repro.core.merge import MOMENTS_KEY, N_Q_KEY
from repro.core.persist import load_sharded, save_sharded
from repro.core.queries import AggFunc, Query, QueryResult, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.datasets.synthetic import nasdaq_etf, nyc_taxi
from repro.service import ServiceError, serve_background
from repro.service.fleet import FleetCoordinator, FleetUnavailableError

N_ROWS = 8_000
N_SEED = 6_000
ALL_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
            AggFunc.MAX, AggFunc.VARIANCE, AggFunc.STDDEV)
FULL_1D = Rectangle((-math.inf,), (math.inf,))


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=N_ROWS, seed=3)


@pytest.fixture(scope="module")
def snapshot(ds, tmp_path_factory):
    """A 3-shard attr-placed snapshot every fleet warm-starts from."""
    engine = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=3,
        sharding="attr",
        config=JanusConfig(k=16, sample_rate=0.05,
                           repartition_every=2000, seed=0))
    engine.insert_many(ds.data[:N_SEED])
    engine.initialize()
    path = tmp_path_factory.mktemp("fleet-snap")
    save_sharded(engine, path)
    engine.close()
    return path


def all_agg_queries(ds):
    queries = []
    for agg in ALL_AGGS:
        for lo, hi in ((100.0, 400.0), (0.0, 50.0), (250.0, 900.0)):
            queries.append(Query(agg, ds.agg_attr, ds.predicate_attrs,
                                 Rectangle((lo,), (hi,))))
    return queries


def assert_same(got: QueryResult, want: QueryResult, tag=""):
    """Bit-identity: every answer field, NaN-aware, plus details keys."""
    if math.isnan(want.estimate):
        assert math.isnan(got.estimate), (tag, got, want)
    else:
        assert got.estimate == want.estimate, (tag, got, want)
    assert got.variance_catchup == want.variance_catchup, (tag,)
    assert got.variance_sample == want.variance_sample, (tag,)
    assert got.exact == want.exact, (tag,)
    assert got.n_covered == want.n_covered, (tag,)
    assert got.n_partial == want.n_partial, (tag,)
    assert sorted(got.details) == sorted(want.details), (tag,)


class TestFrameProtocol:
    """The wire layer in isolation: no worker processes involved."""

    def test_frame_round_trip_with_raw_numpy_payload(self):
        a, b = socket.socketpair()
        try:
            rows = np.arange(12, dtype=np.float64).reshape(4, 3)
            sent = send_frame(a, OP_INSERT, meta=3, bufs=[rows])
            assert sent == HEADER.size + rows.nbytes
            opcode, meta, payload, trace_id, span = recv_frame(b)
            assert (opcode, meta) == (OP_INSERT, 3)
            assert (trace_id, span) == (0, 0)   # untraced frame
            back = np.frombuffer(payload, dtype=np.float64).reshape(4, 3)
            assert np.array_equal(back, rows)
        finally:
            a.close()
            b.close()

    def test_empty_frame_and_multi_buffer_payload(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, OP_OK)
            opcode, meta, payload, _, _ = recv_frame(b)
            assert (opcode, meta, len(payload)) == (OP_OK, 0, 0)
            send_frame(a, OP_OK, 0, [b"head", b"tail"])
            _, _, payload, _, _ = recv_frame(b)
            assert bytes(payload) == b"headtail"
        finally:
            a.close()
            b.close()

    def test_peer_close_raises_eof_not_garbage(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_length_prefix_fails_fast(self):
        a, b = socket.socketpair()
        try:
            a.sendall(HEADER.pack(OP_OK, 0, 0, 0, MAX_PAYLOAD + 1))
            with pytest.raises(ValueError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_reply_epoch_prefix_round_trip(self):
        bufs = pack_reply(41, [b"body"])
        epoch, body = split_reply(memoryview(b"".join(
            bytes(memoryview(c)) for c in bufs)))
        assert epoch == 41
        assert bytes(body) == b"body"

    def test_result_block_round_trips_every_field(self):
        plain = QueryResult(estimate=1.5, variance_catchup=0.25,
                            variance_sample=0.75, exact=False,
                            n_covered=3, n_partial=2)
        avg = QueryResult(estimate=2.0, variance_catchup=0.0,
                          variance_sample=0.125, exact=True,
                          n_covered=1, n_partial=0)
        avg.details[N_Q_KEY] = 17.0
        varr = QueryResult(estimate=float("nan"), variance_catchup=0.0,
                           variance_sample=0.0, exact=False,
                           n_covered=0, n_partial=1)
        varr.details["ci"] = "unavailable"
        varr.details[MOMENTS_KEY] = (5.0, 12.5, 40.25)
        block = encode_result_block([plain, avg, varr])
        decoded = decode_result_block(block.tobytes())
        assert len(decoded) == 3
        assert_same(decoded[0], plain, "plain")
        assert_same(decoded[1], avg, "avg")
        assert_same(decoded[2], varr, "variance")
        assert decoded[1].details[N_Q_KEY] == 17.0
        assert decoded[2].details[MOMENTS_KEY] == (5.0, 12.5, 40.25)
        assert decoded[2].details["ci"] == "unavailable"

    def test_zero_valued_details_distinct_from_absent(self):
        """has_* flags carry 'present but 0.0' across the wire."""
        zeroed = QueryResult(estimate=0.0, variance_catchup=0.0,
                             variance_sample=0.0, exact=False,
                             n_covered=0, n_partial=0)
        zeroed.details[N_Q_KEY] = 0.0
        absent = QueryResult(estimate=0.0, variance_catchup=0.0,
                             variance_sample=0.0, exact=False,
                             n_covered=0, n_partial=0)
        got = decode_result_block(
            encode_result_block([zeroed, absent]).tobytes())
        assert N_Q_KEY in got[0].details
        assert N_Q_KEY not in got[1].details


class TestBitIdentity:
    """Fleet answers == load_sharded twin of the same snapshot."""

    def _check(self, fleet, twin, ds, tag):
        queries = all_agg_queries(ds)
        for route in (True, False):
            fa = fleet.query_many(queries, route=route)
            ta = twin.query_many(queries, route=route)
            for q, got, want in zip(queries, fa, ta):
                assert_same(got, want, (tag, route, q.agg))
        assert len(fleet) == len(twin)
        assert fleet.shard_sizes() == twin.shard_sizes()

    def test_identical_through_insert_delete_reoptimize(self, ds,
                                                        snapshot):
        with FleetCoordinator(snapshot, supervise=False) as fleet:
            twin = load_sharded(snapshot)
            try:
                self._check(fleet, twin, ds, "warm")
                t1 = fleet.insert_many(ds.data[N_SEED:N_SEED + 1000])
                t2 = twin.insert_many(ds.data[N_SEED:N_SEED + 1000])
                assert t1 == t2
                self._check(fleet, twin, ds, "insert")
                fleet.delete_many(t1[:300])
                twin.delete_many(t2[:300])
                self._check(fleet, twin, ds, "delete")
                fleet.reoptimize()
                twin.reoptimize()
                self._check(fleet, twin, ds, "reoptimize")
                fleet.insert_many(ds.data[N_SEED + 1000:])
                twin.insert_many(ds.data[N_SEED + 1000:])
                self._check(fleet, twin, ds, "insert2")
                assert fleet.data_epoch == twin.data_epoch
                assert (fleet.routing_stats()
                        == twin.routing_stats())
            finally:
                twin.close()

    def test_fleet_stats_expose_wire_counters(self, ds, snapshot):
        with FleetCoordinator(snapshot, supervise=False) as fleet:
            fleet.query_many(all_agg_queries(ds)[:3])
            stats = fleet.fleet_stats()
            assert stats["n_workers"] == 3
            for wid in ("0", "1", "2"):
                w = stats["workers"][wid]
                assert w["alive"] is True
                assert w["restarts"] == 0
                assert w["requests"] >= 1
                assert w["bytes_sent"] > 0
                assert w["bytes_received"] > 0
                assert w["p50_seconds"] >= 0.0


class TestQueryFrameFaults:
    """A corrupt OP_QUERY frame is refused, not fatal: the worker
    answers ERR, the coordinator re-raises ``ValueError``, and the
    next batch is still bit-identical to the twin."""

    def test_bad_frames_leave_the_worker_serving(self, ds, snapshot):
        queries = all_agg_queries(ds)
        d, good = encode_query_block(queries[:3])
        table_end = 4 + int.from_bytes(good[:4], "little")
        underscore = good.index(b"_", 4)        # inside a column name
        wide = Query(AggFunc.SUM, ds.agg_attr, ("a", "b"),
                     Rectangle((0.0, 0.0), (1.0, 1.0)))
        frames = {
            "table cut short": good[:table_end - 1],
            "partial record": good + b"\0",
            "index past the table": good[:table_end] + b"\xff\xff"
            + good[table_end + 2:],
            "mixed dimensionalities": good + encode_query_block(
                [wide])[1][-49:],
            "newline in a name": good[:underscore] + b"\n"
            + good[underscore + 1:]}
        with FleetCoordinator(snapshot, supervise=False) as fleet:
            twin = load_sharded(snapshot)
            try:
                worker = fleet.workers[0]
                for label, payload in frames.items():
                    with pytest.raises(ValueError,
                                       match="query block") as err:
                        worker.request(OP_QUERY, d, [payload])
                    assert type(err.value) is ValueError, label
                    assert worker.alive(), label
                for unencodable in ([queries[0], wide],
                                    [Query(AggFunc.SUM, "a\nb",
                                           ds.predicate_attrs, FULL_1D)]):
                    with pytest.raises(ValueError, match="query block"):
                        worker.query(unencodable)
                assert fleet.fleet_stats()["workers"]["0"]["restarts"] == 0
                for got, want in zip(fleet.query_many(queries),
                                     twin.query_many(queries)):
                    assert_same(got, want, "after faults")
            finally:
                twin.close()


# ------------------------------------------------------------------ #
# a two-column template: the query block's (d,) sub-arrays at d = 2
# ------------------------------------------------------------------ #
#: bench_fig9_multidim.py's aggregation column and the first two of
#: its predicate columns, from the nasdaq_etf schema; "close" is
#: sketched for PERCENTILE / TOPK.
ETF_AGG, ETF_PREDS, ETF_SKETCH = "volume", ("date", "open"), "close"
ETF_ROWS, ETF_SEED = 6_000, 4_000


@pytest.fixture(scope="module")
def etf():
    return nasdaq_etf(n=ETF_ROWS, seed=0)


@pytest.fixture(scope="module")
def snapshot_2d(etf, tmp_path_factory):
    """A 2-shard snapshot over the two-column template."""
    engine = ShardedJanusAQP(
        etf.schema, ETF_AGG, ETF_PREDS, n_shards=2, sharding="attr",
        config=JanusConfig(k=16, sample_rate=0.05, seed=0,
                           repartition_every=1500,
                           sketch_attrs=(ETF_SKETCH,)))
    engine.insert_many(etf.data[:ETF_SEED])
    engine.initialize()
    path = tmp_path_factory.mktemp("fleet-snap-2d")
    save_sharded(engine, path)
    engine.close()
    return path


def two_column_queries(etf):
    cols = [etf.column(attr) for attr in ETF_PREDS]
    queries = []
    for agg in ALL_AGGS:
        for a, b in ((0.1, 0.6), (0.0, 0.3), (0.4, 1.0)):
            lo, hi = zip(*(np.quantile(col, (a, b)) for col in cols))
            queries.append(Query(agg, ETF_AGG, ETF_PREDS,
                                 Rectangle(tuple(map(float, lo)),
                                           tuple(map(float, hi)))))
    full = Rectangle.unbounded(2)
    queries += [Query(AggFunc.PERCENTILE, ETF_SKETCH, ETF_PREDS, full, 0.9),
                Query(AggFunc.TOPK, ETF_SKETCH, ETF_PREDS, full, 3)]
    return queries


class TestTwoColumnTemplate:
    def _check(self, fleet, twin, queries, tag):
        for route in (True, False):
            fa = fleet.query_many(queries, route=route)
            ta = twin.query_many(queries, route=route)
            for q, got, want in zip(queries, fa, ta):
                assert_same(got, want, (tag, route, q.agg))
                assert repr(got.details) == repr(want.details), \
                    (tag, route, q.agg)

    def test_identical_through_insert_delete_reoptimize(self, etf,
                                                        snapshot_2d):
        queries = two_column_queries(etf)
        with FleetCoordinator(snapshot_2d, supervise=False) as fleet:
            twin = load_sharded(snapshot_2d)
            try:
                self._check(fleet, twin, queries, "warm")
                rows = etf.data[ETF_SEED:ETF_SEED + 1500]
                tids = fleet.insert_many(rows)
                assert tids == twin.insert_many(rows)
                self._check(fleet, twin, queries, "insert")
                fleet.delete_many(tids[:400])
                twin.delete_many(tids[:400])
                self._check(fleet, twin, queries, "delete")
                fleet.reoptimize()
                twin.reoptimize()
                self._check(fleet, twin, queries, "reoptimize")
                assert fleet.data_epoch == twin.data_epoch
            finally:
                twin.close()


class TestCrashRecovery:
    """Kill a worker mid-life: no wrong answers, one-sweep self-heal."""

    def test_crash_degrade_refuse_heal_bit_identical(self, ds,
                                                     snapshot):
        fleet = FleetCoordinator(snapshot, supervise=False)
        ghost = FleetCoordinator(snapshot, supervise=False)
        try:
            wide = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                         Rectangle((-math.inf,), (math.inf,)))
            tids = fleet.insert_many(ds.data[N_SEED:N_SEED + 1000])
            ghost.insert_many(ds.data[N_SEED:N_SEED + 1000])
            fleet.delete_many(tids[:200])
            ghost.delete_many(tids[:200])

            fleet.workers[1]._proc.kill()
            fleet.workers[1]._proc.wait()

            # Mutations while down commit identically (journaled).
            t2 = fleet.insert_many(ds.data[N_SEED + 1000:N_SEED + 1500])
            g2 = ghost.insert_many(ds.data[N_SEED + 1000:N_SEED + 1500])
            assert t2 == g2
            fleet.delete_many(t2[:50])
            ghost.delete_many(t2[:50])

            health = fleet.fleet_health()
            assert health["status"] == "degraded"
            assert health["n_alive"] == 2
            assert health["workers"]["1"]["alive"] is False

            # Needing the dead shard -> explicit refusal, never a
            # wrong or torn answer.
            with pytest.raises(FleetUnavailableError):
                fleet.query_many([wide], route=False)

            # One supervision sweep heals it from snapshot + journal.
            assert fleet.check_workers() == 1
            assert fleet.fleet_health()["status"] == "ok"
            assert fleet.fleet_stats()["workers"]["1"]["restarts"] == 1

            # Post-recovery: bit-identical to the unharmed control.
            assert_same(fleet.query(wide), ghost.query(wide), "wide")
            for q in all_agg_queries(ds):
                assert_same(fleet.query(q), ghost.query(q), q.agg)
            assert fleet.data_epoch == ghost.data_epoch
            assert len(fleet) == len(ghost)
        finally:
            fleet.close()
            ghost.close()

    def test_routable_queries_survive_a_dead_shard(self, ds, snapshot):
        """Attr placement proves narrow queries avoid shard 2."""
        fleet = FleetCoordinator(snapshot, supervise=False)
        ghost = FleetCoordinator(snapshot, supervise=False)
        try:
            bounds = fleet._placement.attr_bounds
            assert bounds is not None
            narrow = Query(AggFunc.SUM, ds.agg_attr,
                           ds.predicate_attrs,
                           Rectangle((-math.inf,),
                                     (float(bounds[0]) - 1.0,)))
            fleet.workers[2]._proc.kill()
            fleet.workers[2]._proc.wait()
            got = fleet.query(narrow)
            assert_same(got, ghost.query(narrow), "narrow")
        finally:
            fleet.close()
            ghost.close()

    def test_supervisor_thread_restarts_automatically(self, ds, snapshot,
                                                      monkeypatch):
        import time
        from repro.service import fleet as fleet_module
        monkeypatch.setattr(fleet_module, "SUPERVISE_INTERVAL", 0.1)
        with FleetCoordinator(snapshot) as fleet:
            fleet.workers[0]._proc.kill()
            fleet.workers[0]._proc.wait()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if fleet.fleet_health()["status"] == "ok":
                    break
                time.sleep(0.05)
            assert fleet.fleet_health()["status"] == "ok"
            assert fleet.fleet_stats()["workers"]["0"]["restarts"] >= 1
            assert_same(
                fleet.query(all_agg_queries(ds)[0]),
                fleet.query(all_agg_queries(ds)[0]), "stable")


class TestServedFleet:
    """The HTTP tier over a FleetCoordinator."""

    def test_health_stats_metrics_and_503(self, ds, snapshot):
        from repro.service import ServiceClient
        fleet = FleetCoordinator(snapshot, supervise=False)
        queries = all_agg_queries(ds)[:5]
        with serve_background(fleet, port=0,
                              cache_enabled=False) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.query_many(queries)

                health = client._json("GET", "/health")
                assert health["mode"] == "fleet"
                assert health["status"] == "ok"
                assert health["n_workers"] == 3

                stats = client.stats()
                workers = stats["engine"]["fleet"]["workers"]
                assert set(workers) == {"0", "1", "2"}
                assert all(w["requests"] >= 1
                           for w in workers.values())

                text = client.metrics()
                assert "janus_service_workers 3" in text
                assert "janus_service_workers_alive 3" in text
                for wid in ("0", "1", "2"):
                    assert (f'janus_fleet_worker_requests_total'
                            f'{{worker="{wid}"}}') in text
                    assert (f'janus_fleet_worker_bytes_sent_total'
                            f'{{worker="{wid}"}}') in text
                    assert (f'janus_fleet_worker_restarts_total'
                            f'{{worker="{wid}"}} 0') in text
                    assert (f'janus_fleet_worker_request_seconds_count'
                            f'{{worker="{wid}"}}') in text

                # Kill a worker: wide queries 503, health degrades,
                # and after a manual sweep everything recovers.
                fleet.workers[1]._proc.kill()
                fleet.workers[1]._proc.wait()
                wide = Query(AggFunc.SUM, ds.agg_attr,
                             ds.predicate_attrs,
                             Rectangle((-math.inf,), (math.inf,)))
                with pytest.raises(ServiceError) as excinfo:
                    client.query(wide)
                assert excinfo.value.status == 503
                assert client._json("GET",
                                    "/health")["status"] == "degraded"
                assert fleet.check_workers() == 1
                assert client.health()
                result = client.query(wide)
                assert result.n_covered + result.n_partial >= 0
                text = client.metrics()
                assert ('janus_fleet_worker_restarts_total'
                        '{worker="1"} 1') in text
                assert "janus_service_worker_" not in text
