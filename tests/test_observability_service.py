"""End-to-end observability tests: EXPLAIN, tracing, slow-query log.

The acceptance spine of the observability issue: a routed ``/sql``
request with ``"explain": true`` against a four-shard engine (both
in-process and as a process-per-shard fleet) returns per-stage timings
and the shard-pruning decision while answering with exactly the same
bits as the non-explain path; client-supplied ``X-Janus-Trace`` ids
survive concurrent fan-out through a fleet as connected span trees;
``/debug/traces`` never serves a torn trace; and the slow-query /
worker-restart events come out as one-line JSON.
"""

import io
import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.persist import save_sharded
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.obs.metrics import parse_exposition
from repro.obs.trace import TRACE_CAPACITY
from repro.service import ServiceClient, serve_background
from repro.service.fleet import FleetCoordinator

N_ROWS = 8_000
N_SEED = 6_000

#: Predicate spans (pickup_time) picked against the 4-shard attr
#: placement: one range inside a single shard, one crossing several,
#: one covering everything.
NARROW = (0.0, 40.0)
MID = (100.0, 300.0)
WIDE = (float("-inf"), float("inf"))

STAGE_KEYS = ("parse", "admission", "cache_lookup", "plan", "execute",
              "merge")


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=N_ROWS, seed=3)


def build_sharded4(ds):
    engine = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=4,
        sharding="attr",
        config=JanusConfig(k=16, sample_rate=0.05,
                           check_every=10 ** 9, seed=0))
    engine.insert_many(ds.data[:N_SEED])
    engine.initialize()
    return engine


@pytest.fixture(scope="module")
def snapshot4(ds, tmp_path_factory):
    engine = build_sharded4(ds)
    path = tmp_path_factory.mktemp("obs-snap4")
    save_sharded(engine, path)
    engine.close()
    return path


def sql_between(ds, lo, hi):
    col = ds.predicate_attrs[0]
    return (f"SELECT SUM({ds.agg_attr}) FROM t "
            f"WHERE {col} BETWEEN {lo!r} AND {hi!r}")


def post(handle, path, payload, headers=None):
    conn = HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        body = json.dumps(payload).encode()
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json",
                              **(headers or {})})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def get(handle, path):
    conn = HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def get_text(handle, path):
    conn = HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


def assert_connected(trace):
    """Every span's parent resolves inside the same trace (no orphans),
    and ids are unique."""
    spans = trace["spans"]
    assert trace["n_spans"] == len(spans)
    ids = [s["id"] for s in spans]
    assert len(ids) == len(set(ids))
    id_set = set(ids)
    for span in spans:
        assert span["parent"] is None or span["parent"] in id_set, \
            f"orphan span {span['name']} -> {span['parent']}"


def span_names(trace):
    return [s["name"] for s in trace["spans"]]


# ---------------------------------------------------------------------- #
# EXPLAIN
# ---------------------------------------------------------------------- #


def check_explain_against_engine(handle, ds, n_shards):
    """The acceptance walk shared by the in-process and fleet engines."""
    narrow = sql_between(ds, *NARROW)
    wide = sql_between(ds, *MID)

    status, plain = post(handle, "/sql", {"sql": [narrow, wide]})
    assert status == 200
    status, explained = post(handle, "/sql",
                             {"sql": [narrow, wide], "explain": True})
    assert status == 200

    # Identity: explain (traced, batcher-bypassing) answers with the
    # same bits as the plain batched path.
    assert explained["results"] == plain["results"]

    report = explained["explain"]
    assert report["duration_us"] > 0
    assert int(report["trace_id"], 16) > 0

    # Per-stage timings: every stage of the pipeline is present.
    stages = report["stages_us"]
    assert set(STAGE_KEYS) <= set(stages)
    assert all(v >= 0 for v in stages.values())

    # Per-shard execute timings, tagged with real shard ids.
    touched = {e["shard"] for e in report["shard_execute"]}
    assert touched and touched <= set(range(n_shards))
    assert all(e["dur_us"] >= 0 for e in report["shard_execute"])

    # Routing decision: the narrow query prunes shards (with a named
    # reason), the wide one touches more; together they cover exactly
    # the shard set that actually executed.
    narrow_q, wide_q = report["queries"]
    for entry in (narrow_q, wide_q):
        assert entry["tier"] in ("estimate", "exact")
        assert entry["shards"]
    assert len(narrow_q["shards"]) < n_shards
    assert narrow_q["pruned"]
    for pruned in narrow_q["pruned"]:
        assert pruned["shard"] not in narrow_q["shards"]
        assert pruned["reason"] in ("no-live-rows", "unsummarized",
                                    "bounds-disjoint", "histogram-empty")
    assert set(narrow_q["shards"]) | set(wide_q["shards"]) == touched

    # The forced trace landed in the ring, connected.
    status, debug = get(handle, "/debug/traces")
    assert status == 200
    trace = [t for t in debug["traces"]
             if t["trace_id"] == report["trace_id"]][0]
    assert trace["route"] == "/sql"
    assert_connected(trace)
    return trace


def test_explain_sql_in_process_sharded(ds):
    engine = build_sharded4(ds)
    with serve_background(engine, port=0, cache_enabled=False) as handle:
        trace = check_explain_against_engine(handle, ds, n_shards=4)
    # In-process shards nest an engine span under each shard_execute.
    names = span_names(trace)
    assert "engine_execute" in names
    engine.close()


def test_explain_sql_fleet(ds, snapshot4):
    with FleetCoordinator(snapshot4, supervise=False) as fleet:
        with serve_background(fleet, port=0,
                              cache_enabled=False) as handle:
            trace = check_explain_against_engine(handle, ds, n_shards=4)
    # Worker processes shipped their spans back over the wire, and
    # each one is grafted under the coordinator's shard_execute span.
    spans = {s["id"]: s for s in trace["spans"]}
    worker_spans = [s for s in trace["spans"]
                    if s["name"] == "worker_execute"]
    assert worker_spans
    for span in worker_spans:
        assert spans[span["parent"]]["name"] == "shard_execute"


def test_explain_reports_cache_tier(ds):
    engine = build_sharded4(ds)
    with serve_background(engine, port=0) as handle:
        stmt = sql_between(ds, *NARROW)
        post(handle, "/sql", {"sql": stmt})
        status, explained = post(handle, "/sql",
                                 {"sql": stmt, "explain": True})
    assert status == 200
    assert explained["cached"] is True
    assert explained["explain"]["queries"] == [{"tier": "cache"}]
    assert explained["explain"]["shard_execute"] == []
    engine.close()


# ---------------------------------------------------------------------- #
# trace propagation under concurrency (2-worker fleet)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def snapshot2(ds, tmp_path_factory):
    engine = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=2,
        sharding="attr",
        config=JanusConfig(k=16, sample_rate=0.05,
                           check_every=10 ** 9, seed=0))
    engine.insert_many(ds.data[:N_SEED])
    engine.initialize()
    path = tmp_path_factory.mktemp("obs-snap2")
    save_sharded(engine, path)
    engine.close()
    return path


def query_payload(ds, lo, hi):
    query = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((lo,), (hi,)))
    from repro.broker.requests import query_to_dict
    return {"query": query_to_dict(query)}


def test_client_trace_ids_survive_concurrent_fleet_fanout(ds, snapshot2):
    n_clients = 8
    payload = query_payload(ds, *WIDE)     # broadcast: both workers
    errors = []

    with FleetCoordinator(snapshot2, supervise=False) as fleet:
        with serve_background(fleet, port=0, cache_enabled=False,
                              trace_sample=0) as handle:

            def client(i):
                try:
                    status, body = post(
                        handle, "/query", payload,
                        headers={"X-Janus-Trace": f"{0xBEE0 + i:x}"})
                    assert status == 200 and "result" in body
                except Exception as exc:        # surfaced after join
                    errors.append((i, exc))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors

            status, debug = get(handle, "/debug/traces")
    assert status == 200
    assert debug["sample_every"] == 0
    traces = {int(t["trace_id"], 16): t for t in debug["traces"]}
    # Every client-minted id came back; nothing else was traced.
    assert set(traces) == {0xBEE0 + i for i in range(n_clients)}
    for trace in traces.values():
        assert_connected(trace)
        names = span_names(trace)
        # Both workers executed and reported spans under the
        # coordinator's shard_execute spans.
        assert names.count("worker_execute") == 2
        spans = {s["id"]: s for s in trace["spans"]}
        for span in trace["spans"]:
            if span["name"] == "worker_execute":
                assert spans[span["parent"]]["name"] == "shard_execute"


def test_trace_ids_past_64_bits_are_a_400_on_a_fleet(ds, snapshot2):
    """A fleet's frame header carries the trace id as a u64, so a
    longer id is refused up front (as on every engine), and the fleet
    keeps serving: the largest 64-bit id still traces."""
    stmt = {"sql": sql_between(ds, *WIDE)}
    with FleetCoordinator(snapshot2, supervise=False) as fleet:
        with serve_background(fleet, port=0, cache_enabled=False,
                              trace_sample=0) as handle:
            status, body = post(handle, "/sql", stmt,
                                headers={"X-Janus-Trace": "1" + "0" * 16})
            assert status == 400, body
            assert "64 bits" in body["error"]
            status, body = post(handle, "/sql", stmt,
                                headers={"X-Janus-Trace": "f" * 16})
            assert status == 200, body
            status, health = get(handle, "/health")
            assert status == 200 and health["status"] == "ok", health
            status, debug = get(handle, "/debug/traces")
    assert [t["trace_id"] for t in debug["traces"]] == ["f" * 16]


def test_debug_traces_never_tears_under_load(ds):
    engine = build_sharded4(ds)
    stop = threading.Event()
    failures = []

    with serve_background(engine, port=0,
                          cache_enabled=False) as handle:

        def writer():
            stmt = sql_between(ds, *MID)
            while not stop.is_set():
                post(handle, "/sql", {"sql": stmt, "explain": True})

        def reader():
            while not stop.is_set():
                try:
                    status, debug = get(handle, "/debug/traces")
                    assert status == 200
                    for trace in debug["traces"]:
                        assert_connected(trace)
                except Exception as exc:
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(1.5)
        stop.set()
        for t in threads:
            t.join()
        assert not failures

        status, debug = get(handle, "/debug/traces")
        # Ring stayed bounded at its capacity.
        assert debug["n"] <= debug["capacity"] == TRACE_CAPACITY
    engine.close()


# ---------------------------------------------------------------------- #
# slow-query log, restart log, CLI flags
# ---------------------------------------------------------------------- #


def test_slow_query_threshold_logs_one_json_line(ds):
    engine = build_sharded4(ds)
    stream = io.StringIO()
    with serve_background(engine, port=0, cache_enabled=False,
                          slow_query_ms=0.0,
                          log_stream=stream) as handle:
        status, body = post(handle, "/sql",
                            {"sql": sql_between(ds, *MID)})
        assert status == 200
        get(handle, "/health")              # not a read: never logged
        status, metrics = get_text(handle, "/metrics")
        assert status == 200
    events = [json.loads(line) for line in
              stream.getvalue().splitlines()]
    slow = [e for e in events if e["event"] == "slow_query"]
    assert len(slow) == 1
    assert slow[0]["route"] == "/sql"
    assert slow[0]["n_queries"] == 1
    assert slow[0]["duration_ms"] > 0
    assert slow[0]["trace_id"] is None         # untraced request
    assert "janus_service_slow_queries_total 1" in metrics
    engine.close()


def test_worker_restart_emits_log_event(ds, snapshot2):
    stream = io.StringIO()
    with FleetCoordinator(snapshot2, supervise=False,
                          log_stream=stream) as fleet:
        fleet.workers[1]._proc.kill()
        fleet.workers[1]._proc.wait()
        assert fleet.check_workers() == 1
    events = [json.loads(line) for line in
              stream.getvalue().splitlines()]
    restarts = [e for e in events if e["event"] == "worker_restart"]
    assert len(restarts) == 1
    assert restarts[0]["shard"] == 1


# ---------------------------------------------------------------------- #
# /stats batcher and cache sections == their /metrics series
# ---------------------------------------------------------------------- #

#: ``/stats`` key -> the ``janus_service_*`` series that holds its count.
BATCHER_SERIES = {
    "n_batches": "janus_service_batches_total",
    "n_queries": "janus_service_batched_queries_total",
    "max_batch_size": "janus_service_batch_max_size",
    "n_flush_full": "janus_service_batch_flush_full_total",
    "n_flush_linger": "janus_service_batch_flush_linger_total",
    "n_flush_idle": "janus_service_batch_flush_idle_total",
    "n_flush_drain": "janus_service_batch_flush_drain_total",
    "n_isolated": "janus_service_batch_isolated_total",
}
CACHE_SERIES = {
    "hits": "janus_service_cache_hits_total",
    "misses": "janus_service_cache_misses_total",
    "stores": "janus_service_cache_stores_total",
    "rejected_stores": "janus_service_cache_rejected_stores_total",
    "evictions": "janus_service_cache_evictions_total",
}


class ScriptedEngine:
    """A ``JanusAQP`` whose next ``query_many`` can be made to fail
    once (a poisoned batch) or to move the data epoch while it runs (a
    write racing the query, so its cache store is rejected)."""

    def __init__(self, engine):
        self._engine = engine
        self._epoch_shift = 0
        self.poison_next = False
        self.race_next = False

    def __getattr__(self, name):
        return getattr(self._engine, name)

    @property
    def data_epoch(self):
        return self._engine.data_epoch + self._epoch_shift

    def query_many(self, queries, obs=None):
        if self.poison_next:
            self.poison_next = False
            raise RuntimeError("poisoned batch")
        results = self._engine.query_many(queries, obs=obs)
        if self.race_next:
            self.race_next = False
            self._epoch_shift += 1
        return results


def test_stats_sections_equal_their_metrics_series(ds):
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:N_SEED])
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                     config=JanusConfig(k=16, sample_rate=0.04,
                                        check_every=10 ** 9, seed=0))
    janus.initialize()
    engine = ScriptedEngine(janus)

    def q(lo, hi):
        return Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                     Rectangle((float(lo),), (float(hi),)))

    # cache_size=2: the third distinct range evicts; max_batch=2 and a
    # linger no test waits out: a 3-query request leaves as one full
    # flush plus one drain flush when it lands.
    with serve_background(engine, port=0, cache_size=2, max_batch=2,
                          max_linger_ms=60_000.0) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            client.query(q(0, 100))                     # miss, idle
            client.query(q(0, 100))                     # hit
            client.query(q(0, 200))
            client.query(q(0, 300))                     # evicts
            client.query_many([q(1, 10), q(2, 20), q(3, 30)])
            engine.poison_next = True
            client.query(q(4, 40))                      # isolated
            engine.race_next = True
            client.query(q(5, 50))                      # rejected
            stats = client.stats()
        status, text = get_text(handle, "/metrics")
    assert status == 200
    families = parse_exposition(text)

    def series(name):
        (value,) = [v for sample, _, v in families[name]["samples"]
                    if sample in (name, f"{name}_count")]
        return value

    batcher, cache = stats["batcher"], stats["cache"]
    assert list(batcher) == ["n_batches", "n_queries", "max_batch_size",
                             "avg_batch_size", "n_flush_full",
                             "n_flush_linger", "n_flush_idle",
                             "n_flush_drain", "n_isolated"]
    assert list(cache) == ["hits", "misses", "stores", "rejected_stores",
                           "evictions", "hit_ratio", "enabled",
                           "entries"]
    for key, name in BATCHER_SERIES.items():
        assert batcher[key] == series(name), key
    for key, name in CACHE_SERIES.items():
        assert cache[key] == series(name), key
    assert series("janus_service_batch_wait_seconds") == \
        batcher["n_queries"]
    # every event the script set out to produce happened
    assert batcher == {"n_batches": 7, "n_queries": 8,
                       "max_batch_size": 2, "avg_batch_size": 8 / 7,
                       "n_flush_full": 1, "n_flush_linger": 0,
                       "n_flush_idle": 4, "n_flush_drain": 1,
                       "n_isolated": 1}
    assert cache == {"hits": 1, "misses": 8, "stores": 7,
                     "rejected_stores": 1, "evictions": 5,
                     "hit_ratio": 1 / 9, "enabled": True, "entries": 2}


def test_cli_exposes_observability_flags():
    from repro.service.__main__ import build_parser
    args = build_parser().parse_args(
        ["--slow-query-ms", "12.5", "--trace-sample", "8"])
    assert args.slow_query_ms == 12.5
    assert args.trace_sample == 8
    defaults = build_parser().parse_args([])
    assert defaults.slow_query_ms is None
    assert defaults.trace_sample == 64
