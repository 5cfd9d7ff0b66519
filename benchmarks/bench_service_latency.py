"""Service latency: the HTTP serving tier under concurrent clients.

The ISSUE 5 acceptance benchmark for :mod:`repro.service`.  A
:class:`~repro.core.sharded.ShardedJanusAQP` fleet is served by
:class:`~repro.service.server.AQPServer` on an ephemeral port and
driven by 1 / 8 / 64 concurrent keep-alive clients
(:class:`~repro.service.client.ServiceClient`, one per thread), each
issuing a stream drawn from a fixed pool of distinct SQL/structured
queries.  Each concurrency level runs twice:

* **cache disabled** - every request reaches the engine, measuring the
  micro-batcher + ``query_many`` path itself.  The acceptance gate
  lives here: at 64 clients the admission layer must demonstrably
  group **>= 8** concurrent requests into one ``query_many`` call
  (asserted in smoke mode too; grouping only improves on slower
  runners).
* **cache enabled** - the same streams with the epoch result cache on.
  The hit ratio is *measured from the server's own counters* and the
  workload's repeat structure is reported next to it
  (``n_distinct_queries`` vs. queries issued), so the number is
  honest: hits exist because the streams repeat, not by construction
  of the metric.

Per series the artifact records client-observed p50/p99 latency and
aggregate QPS; correctness is gated by a quiescent bit-identity check
of served answers against in-process ``query_many``.

The ISSUE 8 **fleet series** serves the same workload through a
:class:`~repro.service.fleet.FleetCoordinator` at 1 / 2 / 4 worker
processes: each fleet warm-starts from a ``save_sharded`` snapshot,
its served answers are gated bit-identical against ``load_sharded``
of the *same* snapshot (the in-process sharded engine), and the
artifact records per-worker wire bytes next to QPS.  Scaling numbers
are recorded, **never gated** - a 1-core CI box cannot demonstrate
multi-process speedup; the gate is identity plus a full protocol
round trip.

Emits ``BENCH_service_latency.json``.  Set ``JANUS_BENCH_SMOKE=1``
(the CI default) for a reduced run that still writes the artifact and
still asserts grouping and correctness; wall-clock numbers are
recorded, never gated, since shared runners flake.
"""

import math
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from conftest import emit, emit_json
from repro.core.janus import JanusConfig
from repro.core.persist import load_sharded, save_sharded
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.datasets import synthetic
from repro.service import ServiceClient, serve_background
from repro.service.fleet import FleetCoordinator

SMOKE = os.environ.get("JANUS_BENCH_SMOKE", "") not in ("", "0")

N_ROWS = 20_000 if SMOKE else 60_000
N_SHARDS = 2
K_LEAVES = 16 if SMOKE else 64
RATE = 0.03
N_DISTINCT = 48 if SMOKE else 128       # distinct queries in the pool
PER_CLIENT = 24 if SMOKE else 96        # queries per client per series
CLIENT_COUNTS = (1, 8, 64)
MAX_BATCH = 64
LINGER_MS = 2.0
MIN_GROUPED = 8                         # ISSUE 5 acceptance floor
QUERY_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)
FLEET_WORKERS = (1, 2, 4)               # ISSUE 8 fleet sweep
FLEET_CLIENTS = (1, 8) if SMOKE else (1, 8, 64)


@lru_cache(maxsize=None)
def build_world():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=0)
    engine = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=N_SHARDS,
        config=JanusConfig(k=K_LEAVES, sample_rate=RATE,
                           check_every=10 ** 9, seed=0))
    engine.insert_many(ds.data)
    engine.initialize()
    return ds, engine


def query_pool(ds):
    rng = np.random.default_rng(1)
    queries = []
    for i in range(N_DISTINCT):
        lo, hi = sorted(rng.uniform(0, 500, 2))
        queries.append(Query(QUERY_AGGS[i % len(QUERY_AGGS)],
                             ds.agg_attr, ds.predicate_attrs,
                             Rectangle((float(lo),), (float(hi),))))
    return queries


def client_streams(pool, n_clients):
    rng = np.random.default_rng(2 + n_clients)
    return [[pool[j] for j in rng.integers(0, len(pool), PER_CLIENT)]
            for _ in range(n_clients)]


def drive_series(handle, pool, n_clients):
    """One concurrency level: per-request latencies + server deltas."""
    streams = client_streams(pool, n_clients)
    barrier = threading.Barrier(n_clients)
    stats0 = handle.server.batcher.stats()
    batches0, queries0 = stats0["n_batches"], stats0["n_queries"]
    # per-series high-water mark
    handle.server.metrics.gauge("janus_service_batch_max_size").set(0)
    cache0 = handle.server.cache.stats()
    hits0, misses0 = cache0["hits"], cache0["misses"]

    def run_client(stream):
        latencies = []
        with ServiceClient(handle.host, handle.port) as client:
            barrier.wait(timeout=60)
            for query in stream:
                t0 = time.perf_counter()
                client.query(query)
                latencies.append(time.perf_counter() - t0)
        return latencies

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=n_clients) as executor:
        latency_runs = list(executor.map(run_client, streams))
    wall = time.perf_counter() - t0

    latencies = np.array([l for run in latency_runs for l in run])
    stats = handle.server.batcher.stats()
    cache = handle.server.cache.stats()
    hits = cache["hits"] - hits0
    misses = cache["misses"] - misses0
    batches = stats["n_batches"] - batches0
    engine_queries = stats["n_queries"] - queries0
    return {
        "clients": n_clients,
        "queries_issued": int(latencies.size),
        "p50_ms": float(np.percentile(latencies, 50) * 1000),
        "p99_ms": float(np.percentile(latencies, 99) * 1000),
        "qps": float(latencies.size / wall),
        "engine_batches": batches,
        "engine_queries": engine_queries,
        "avg_batch_size": engine_queries / batches if batches else 0.0,
        "max_batch_size": stats["max_batch_size"],
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": hits / (hits + misses)
                           if hits + misses else 0.0,
    }


def check_bit_identity(handle, engine, pool):
    """Quiescent served answers must equal in-process query_many."""
    expected = engine.query_many(pool)
    with ServiceClient(handle.host, handle.port) as client:
        served = client.query_many(pool)
    failures = 0
    for got, want in zip(served, expected):
        same = (got.estimate == want.estimate or
                (math.isnan(got.estimate) and math.isnan(want.estimate)))
        failures += int(not (same and
                             got.variance == want.variance and
                             got.exact == want.exact))
    return failures


def run_fleet_sweep(ds, pool):
    """ISSUE 8 series: the fleet at 1/2/4 worker processes.

    Per worker count a fresh snapshot is built, the fleet serves it
    and a ``load_sharded`` twin of the *same* snapshot provides the
    bit-identity reference - the strongest in-bench gate available
    (identity plus a full binary-protocol round trip per request);
    wall-clock scaling is recorded but never asserted.
    """
    rows = []
    bit_failures = 0
    wire_bytes = 0
    for n_workers in FLEET_WORKERS:
        seed_engine = ShardedJanusAQP(
            ds.schema, ds.agg_attr, ds.predicate_attrs,
            n_shards=n_workers,
            config=JanusConfig(k=K_LEAVES, sample_rate=RATE,
                               check_every=10 ** 9, seed=0))
        seed_engine.insert_many(ds.data)
        seed_engine.initialize()
        snapdir = tempfile.mkdtemp(prefix=f"janus-fleet{n_workers}-")
        save_sharded(seed_engine, snapdir)
        seed_engine.close()
        fleet = FleetCoordinator(snapdir)
        twin = load_sharded(snapdir)
        try:
            with serve_background(fleet, port=0, max_batch=MAX_BATCH,
                                  max_linger_ms=LINGER_MS,
                                  cache_enabled=False) as handle:
                bit_failures += check_bit_identity(handle, twin, pool)
                for n_clients in FLEET_CLIENTS:
                    row = drive_series(handle, pool, n_clients)
                    row["cache"] = False
                    row["workers"] = n_workers
                    rows.append(row)
                for w in fleet.fleet_stats()["workers"].values():
                    wire_bytes += w["bytes_sent"] + w["bytes_received"]
        finally:
            twin.close()
            fleet.close()
            shutil.rmtree(snapdir, ignore_errors=True)
    return rows, bit_failures, wire_bytes


@lru_cache(maxsize=None)
def run_service_latency():
    ds, engine = build_world()
    pool = query_pool(ds)
    series = []
    bit_failures = 0
    for cache_enabled in (False, True):
        with serve_background(engine, port=0, max_batch=MAX_BATCH,
                              max_linger_ms=LINGER_MS,
                              cache_enabled=cache_enabled) as handle:
            if not cache_enabled:
                bit_failures = check_bit_identity(handle, engine, pool)
            for n_clients in CLIENT_COUNTS:
                row = drive_series(handle, pool, n_clients)
                row["cache"] = cache_enabled
                series.append(row)
    fleet_series, fleet_failures, fleet_wire_bytes = \
        run_fleet_sweep(ds, pool)

    uncached_at_64 = next(r for r in series
                          if r["clients"] == 64 and not r["cache"])
    cached_at_64 = next(r for r in series
                        if r["clients"] == 64 and r["cache"])
    top = max(FLEET_CLIENTS)
    fleet_at_top = {r["workers"]: r for r in fleet_series
                    if r["clients"] == top}
    return {
        "smoke": SMOKE,
        "n_rows": N_ROWS,
        "n_shards": N_SHARDS,
        "n_distinct_queries": N_DISTINCT,
        "queries_per_client": PER_CLIENT,
        "max_batch": MAX_BATCH,
        "linger_ms": LINGER_MS,
        "series": series,
        "max_grouped_at_64": uncached_at_64["max_batch_size"],
        "cache_hit_ratio_at_64": cached_at_64["cache_hit_ratio"],
        "qps_speedup_from_cache_at_64":
            cached_at_64["qps"] / uncached_at_64["qps"],
        "n_bit_identity_failures": bit_failures,
        "fleet_series": fleet_series,
        "fleet_clients_max": top,
        # Recorded, never gated: meaningless on a 1-core runner.
        "fleet_qps_speedup_4v1":
            fleet_at_top[4]["qps"] / fleet_at_top[1]["qps"],
        "fleet_wire_bytes_total": fleet_wire_bytes,
        "n_fleet_bit_identity_failures": fleet_failures,
    }


def format_table(r) -> str:
    lines = [
        f"Service latency ({r['n_rows']} rows, {r['n_shards']} shards, "
        f"{r['n_distinct_queries']} distinct queries, "
        f"{r['queries_per_client']}/client"
        f"{', smoke' if r['smoke'] else ''})",
        f"{'clients':>8}{'cache':>7}{'p50 ms':>9}{'p99 ms':>9}"
        f"{'qps':>9}{'avg batch':>11}{'max batch':>11}{'hit ratio':>11}",
    ]
    for row in r["series"]:
        lines.append(
            f"{row['clients']:>8}{'on' if row['cache'] else 'off':>7}"
            f"{row['p50_ms']:>9.2f}{row['p99_ms']:>9.2f}"
            f"{row['qps']:>9,.0f}{row['avg_batch_size']:>11.1f}"
            f"{row['max_batch_size']:>11}"
            f"{row['cache_hit_ratio']:>11.0%}")
    lines.append(
        f"micro-batching grouped up to {r['max_grouped_at_64']} "
        f"requests/engine call at 64 clients; cache hit ratio "
        f"{r['cache_hit_ratio_at_64']:.0%} "
        f"({r['qps_speedup_from_cache_at_64']:.2f}x qps); "
        f"{r['n_bit_identity_failures']} bit-identity failures")
    lines.append(
        f"{'workers':>8}{'clients':>8}{'p50 ms':>9}{'p99 ms':>9}"
        f"{'qps':>9}{'avg batch':>11}")
    for row in r["fleet_series"]:
        lines.append(
            f"{row['workers']:>8}{row['clients']:>8}"
            f"{row['p50_ms']:>9.2f}{row['p99_ms']:>9.2f}"
            f"{row['qps']:>9,.0f}{row['avg_batch_size']:>11.1f}")
    lines.append(
        f"fleet 4-vs-1 worker qps at {r['fleet_clients_max']} clients: "
        f"{r['fleet_qps_speedup_4v1']:.2f}x (recorded, not gated); "
        f"{r['fleet_wire_bytes_total']:,} bytes on the wire; "
        f"{r['n_fleet_bit_identity_failures']} fleet bit-identity "
        f"failures")
    return "\n".join(lines)


def test_service_latency(benchmark):
    """ISSUE 5 acceptance: >= 8 requests grouped per engine call.

    ISSUE 8 adds the fleet gate: every served fleet answer must be
    bit-identical to ``load_sharded`` of the same snapshot.  Fleet
    QPS scaling is recorded in the artifact but never asserted.
    """
    result = benchmark.pedantic(run_service_latency, rounds=1,
                                iterations=1)
    emit("service_latency", format_table(result))
    emit_json("BENCH_service_latency", result)
    assert result["n_bit_identity_failures"] == 0
    assert result["max_grouped_at_64"] >= MIN_GROUPED
    assert result["cache_hit_ratio_at_64"] > 0.0
    assert result["n_fleet_bit_identity_failures"] == 0
