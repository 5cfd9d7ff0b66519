"""Concurrent ingest + query against the serving tier (ISSUE 5).

Threaded writers stream batches through ``/insert`` while reader
threads hammer ``/query``/``/sql`` on the same ShardedJanusAQP fleet,
with the result cache **enabled** - the adversarial setting for the
epoch machinery.  Pinned invariants:

* **no torn reads** - a full-range COUNT observed by one reader is
  non-decreasing over its lifetime under an insert-only stream (each
  shard answers under its lock, per-shard counts only grow, and a
  reader's next fan-out starts after its previous one finished);
* **no stale-epoch cache hits** - a stale hit would replay an older
  (smaller) count after a newer one, breaking the same monotonicity,
  and the quiesced end-state must answer bit-identically to in-process
  ``query_many`` even though the cache is warm;
* bounds: every observed count lies in ``[seed, final]``, and
  mutation epochs strictly increase.
"""

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

# tools/ (janus-lint's runtime lock-order recorder) lives at the repo
# root, which PYTHONPATH=src does not cover.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from tools.analysis.runtime import LockOrderRecorder

from repro.core.janus import JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.datasets.synthetic import nyc_taxi
from repro.service import ServiceClient, serve_background

N_ROWS = 14_000
N_SEED = 6_000
N_WRITERS = 2
N_READERS = 3
BATCH = 250
QUERIES_PER_READER = 40


@pytest.fixture(scope="module")
def ds():
    return nyc_taxi(n=N_ROWS, seed=9)


def build_engine(ds):
    sharded = ShardedJanusAQP(
        ds.schema, ds.agg_attr, ds.predicate_attrs, n_shards=3,
        config=JanusConfig(k=8, sample_rate=0.03, check_every=10 ** 9,
                           seed=0))
    sharded.insert_many(ds.data[:N_SEED])
    sharded.initialize()
    return sharded


def count_all(ds) -> Query:
    return Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                 Rectangle((-math.inf,), (math.inf,)))


def test_threaded_writers_never_tear_reads_or_serve_stale_hits(ds):
    # Every lock the fleet allocates is traced: any held->acquired
    # inversion during the threaded workload below becomes a cycle.
    recorder = LockOrderRecorder()
    with recorder.wrapping():
        engine = build_engine(ds)
    stream = ds.data[N_SEED:]
    per_writer = len(stream) // N_WRITERS
    query = count_all(ds)
    sql = (f"SELECT COUNT(*) FROM t")
    start = threading.Barrier(N_WRITERS + N_READERS)

    with serve_background(engine, port=0, cache_enabled=True,
                          max_linger_ms=1.0) as handle:
        def writer(w: int):
            chunk = stream[w * per_writer:(w + 1) * per_writer]
            with ServiceClient(handle.host, handle.port) as client:
                start.wait(timeout=30)
                epochs = []
                for lo in range(0, len(chunk), BATCH):
                    payload = client._json("POST", "/insert", {
                        "rows": chunk[lo:lo + BATCH].tolist()})
                    epochs.append(payload["epoch"])
                return epochs

        def reader(r: int):
            with ServiceClient(handle.host, handle.port) as client:
                start.wait(timeout=30)
                counts = []
                for i in range(QUERIES_PER_READER):
                    if i % 2:
                        result = client.sql(sql)
                    else:
                        result = client.query(query)
                    counts.append(result.estimate)
                return counts

        with ThreadPoolExecutor(N_WRITERS + N_READERS) as pool:
            writer_futs = [pool.submit(writer, w)
                           for w in range(N_WRITERS)]
            reader_futs = [pool.submit(reader, r)
                           for r in range(N_READERS)]
            epoch_runs = [f.result(timeout=120) for f in writer_futs]
            count_runs = [f.result(timeout=120) for f in reader_futs]

        # every row arrived; nothing was lost to a race
        final = N_SEED + N_WRITERS * per_writer
        assert len(engine.table) == final

        # writer-observed epochs strictly increase per writer
        for epochs in epoch_runs:
            assert all(b > a for a, b in zip(epochs, epochs[1:]))

        # reader-observed counts: monotone, within [seed, final]
        for counts in count_runs:
            assert all(math.isfinite(c) for c in counts)
            assert all(b >= a - 1e-6 for a, b in
                       zip(counts, counts[1:])), \
                "torn read or stale cache hit: count went backwards"
            assert min(counts) >= N_SEED - 1e-6
            assert max(counts) <= final + 1e-6

        # quiesced: served answers (warm cache) == in-process answers
        rng = np.random.default_rng(4)
        checks = [query]
        for _ in range(10):
            lo, hi = sorted(rng.uniform(0, 500, 2))
            checks.append(Query(AggFunc.SUM, ds.agg_attr,
                                ds.predicate_attrs,
                                Rectangle((lo,), (hi,))))
        expected = engine.query_many(checks)
        with ServiceClient(handle.host, handle.port) as client:
            served_cold = client.query_many(checks)
            served_warm = client.query_many(checks)   # cache hits
        for got, warm, want in zip(served_cold, served_warm, expected):
            assert got.estimate == want.estimate
            assert warm.estimate == want.estimate
            assert warm.variance == want.variance

        stats = handle.server.cache.stats()
        assert stats["hits"] >= len(checks)     # the warm pass hit

    # the observed runtime lock-order graph must be deadlock-free
    assert recorder.cycles() == [], recorder.edges
    engine.close()


def test_interleaved_deletes_keep_epochs_and_answers_consistent(ds):
    """Writers that also delete: epochs strictly increase and the
    quiesced state matches in-process answers bit-identically."""
    recorder = LockOrderRecorder()
    with recorder.wrapping():
        engine = build_engine(ds)
    stream = ds.data[N_SEED:N_SEED + 2_000]
    query = count_all(ds)

    with serve_background(engine, port=0, cache_enabled=True,
                          max_linger_ms=1.0) as handle:
        def churn():
            with ServiceClient(handle.host, handle.port) as client:
                for lo in range(0, len(stream), BATCH):
                    tids = client.insert_many(stream[lo:lo + BATCH])
                    client.delete_many(tids[::2])

        def read():
            with ServiceClient(handle.host, handle.port) as client:
                return [client.query(query).estimate
                        for _ in range(30)]

        with ThreadPoolExecutor(2) as pool:
            churn_fut = pool.submit(churn)
            counts = pool.submit(read).result(timeout=120)
            churn_fut.result(timeout=120)

        assert all(math.isfinite(c) for c in counts)
        expected = engine.query(query)
        with ServiceClient(handle.host, handle.port) as client:
            got = client.query(query)
        assert got.estimate == expected.estimate

    assert recorder.cycles() == [], recorder.edges
    engine.close()
