"""Figure 5: update throughput and re-optimization cost.

Left plot: insertion/deletion throughput (requests/s) as a function of
the existing-data ratio (0.1 .. 0.9 of the NYC dataset already loaded).
Expected shape: flat - each update touches one root-to-leaf path and the
reservoir, independent of how much data exists.

Right plot: re-optimization cost (seconds) vs progress for JanusAQP
(partitioning + catch-up) and DeepDB (full retrain).  Expected shape:
both grow with data volume, JanusAQP much cheaper than DeepDB.

Note: the paper uses a 12-thread pool; CPython's GIL makes threads
useless for CPU-bound updates, so we report single-process throughput
(DESIGN.md substitution 4).  The *flatness* across existing-data ratio
is the property under test.
"""

import time
from functools import lru_cache

import numpy as np

from conftest import emit, emit_json
from lib.deepdb import DeepDBBaseline
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.table import Table
from repro.datasets import synthetic

N_ROWS = 50_000
RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)
N_UPDATES = 3_000

# batched-ingest comparison (the ISSUE 1 acceptance workload)
BATCH_SIZE = 1024
N_BATCH_STREAM = 100_000
N_PER_ROW_SAMPLE = 20_000


@lru_cache(maxsize=None)
def run_throughput():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=0)
    results = []
    for ratio in RATIOS:
        n0 = int(ratio * ds.n)
        table = Table(ds.schema, capacity=ds.n + N_UPDATES + 16)
        table.insert_many(ds.data[:n0])
        cfg = JanusConfig(k=64, sample_rate=0.01, catchup_rate=0.05,
                          check_every=10 ** 9, seed=0)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        # insertion throughput
        rows = ds.data[n0:n0 + N_UPDATES] if n0 + N_UPDATES <= ds.n \
            else ds.data[:N_UPDATES]
        t0 = time.perf_counter()
        tids = [janus.insert(row) for row in rows]
        ins_tput = len(rows) / (time.perf_counter() - t0)
        # deletion throughput
        t0 = time.perf_counter()
        for tid in tids:
            janus.delete(tid)
        del_tput = len(tids) / (time.perf_counter() - t0)
        results.append((ratio, ins_tput, del_tput))
    return results


@lru_cache(maxsize=None)
def run_reopt_cost():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=1)
    results = []
    for ratio in RATIOS:
        n0 = int(ratio * ds.n)
        t1 = Table(ds.schema, capacity=ds.n + 16)
        t1.insert_many(ds.data[:n0])
        cfg = JanusConfig(k=64, sample_rate=0.01, catchup_rate=0.10,
                          check_every=10 ** 9, seed=1)
        janus = JanusAQP(t1, ds.agg_attr, ds.predicate_attrs, config=cfg)
        rep = janus.initialize()
        t2 = Table(ds.schema, capacity=ds.n + 16)
        t2.insert_many(ds.data[:n0])
        deepdb = DeepDBBaseline(t2, training_rate=0.10, seed=1)
        deepdb_cost = deepdb.fit()
        results.append((ratio, rep.total_seconds, deepdb_cost))
    return results


@lru_cache(maxsize=None)
def run_batched_vs_per_row():
    """Rows/sec of the per-row loop vs insert_many/delete_many at 1024.

    A 100k-row synthetic stream over a 20k-row base; the per-row loop is
    timed on a 20k prefix (it is ~7x slower, timing all 100k would just
    burn benchmark minutes) and both are reported as rows/sec.
    """
    ds = synthetic.load("nyc_taxi", n=20_000 + N_BATCH_STREAM, seed=3)
    n0 = 20_000
    stream = ds.data[n0:]

    def build():
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:n0])
        cfg = JanusConfig(k=64, sample_rate=0.01, check_every=10 ** 9,
                          seed=3)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        return janus

    janus = build()
    t0 = time.perf_counter()
    for row in stream[:N_PER_ROW_SAMPLE]:
        janus.insert(row)
    per_row_ins = N_PER_ROW_SAMPLE / (time.perf_counter() - t0)
    tids = list(range(n0, n0 + N_PER_ROW_SAMPLE))
    t0 = time.perf_counter()
    for tid in tids:
        janus.delete(tid)
    per_row_del = N_PER_ROW_SAMPLE / (time.perf_counter() - t0)

    janus = build()
    t0 = time.perf_counter()
    for start in range(0, N_BATCH_STREAM, BATCH_SIZE):
        janus.insert_many(stream[start:start + BATCH_SIZE])
    batched_ins = N_BATCH_STREAM / (time.perf_counter() - t0)
    tids = list(range(n0, n0 + N_BATCH_STREAM))
    t0 = time.perf_counter()
    for start in range(0, N_BATCH_STREAM, BATCH_SIZE):
        janus.delete_many(tids[start:start + BATCH_SIZE])
    batched_del = N_BATCH_STREAM / (time.perf_counter() - t0)
    return {
        "batch_size": BATCH_SIZE,
        "stream_rows": N_BATCH_STREAM,
        "per_row_insert_rows_per_sec": per_row_ins,
        "per_row_delete_rows_per_sec": per_row_del,
        "batched_insert_rows_per_sec": batched_ins,
        "batched_delete_rows_per_sec": batched_del,
        "insert_speedup": batched_ins / per_row_ins,
        "delete_speedup": batched_del / per_row_del,
    }


def format_tables(tput, reopt) -> str:
    lines = ["Throughput (requests/s) vs existing-data ratio",
             f"{'ratio':>7}{'insert/s':>12}{'delete/s':>12}"]
    for ratio, ins, dele in tput:
        lines.append(f"{ratio:>7.1f}{ins:>12.0f}{dele:>12.0f}")
    lines.append("")
    lines.append("Re-optimization cost (s) vs progress")
    lines.append(f"{'ratio':>7}{'JanusAQP':>12}{'DeepDB':>12}")
    for ratio, janus_s, deepdb_s in reopt:
        lines.append(f"{ratio:>7.1f}{janus_s:>12.3f}{deepdb_s:>12.3f}")
    return "\n".join(lines)


def format_batch_table(batch) -> str:
    lines = ["Batched vs per-row ingest (rows/s, batch size "
             f"{batch['batch_size']})",
             f"{'path':>10}{'insert/s':>12}{'delete/s':>12}"]
    lines.append(f"{'per-row':>10}"
                 f"{batch['per_row_insert_rows_per_sec']:>12.0f}"
                 f"{batch['per_row_delete_rows_per_sec']:>12.0f}")
    lines.append(f"{'batched':>10}"
                 f"{batch['batched_insert_rows_per_sec']:>12.0f}"
                 f"{batch['batched_delete_rows_per_sec']:>12.0f}")
    lines.append(f"insert speedup: {batch['insert_speedup']:.1f}x, "
                 f"delete speedup: {batch['delete_speedup']:.1f}x")
    return "\n".join(lines)


def test_fig5_throughput_flat(benchmark):
    tput = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    reopt = run_reopt_cost()
    emit("fig5_throughput", format_tables(tput, reopt))
    ins = [r[1] for r in tput]
    dels = [r[2] for r in tput]
    # Shape 1: throughput roughly flat across existing-data ratio
    # (within 3x band; the paper's Figure 5 is flat within noise).
    assert max(ins) < 3 * min(ins)
    assert max(dels) < 3 * min(dels)
    # Shape 2: the paper claims >100K requests/s on native code; demand
    # a sane floor for pure Python.
    assert min(ins) > 2_000
    # Shape 3: JanusAQP re-optimization beats DeepDB retraining at
    # every progress point, and both grow with data volume.
    for _, janus_s, deepdb_s in reopt:
        assert janus_s < deepdb_s
    assert reopt[-1][2] > reopt[0][2]


def test_fig5_batched_ingest(benchmark):
    """ISSUE 1 acceptance: insert_many at 1024 is >=5x the per-row loop.

    Emits ``BENCH_fig5_throughput.json`` so the ingest-performance
    trajectory is tracked across PRs.
    """
    batch = benchmark.pedantic(run_batched_vs_per_row, rounds=1,
                               iterations=1)
    tput = run_throughput()
    emit("fig5_batched_ingest", format_batch_table(batch))
    emit_json("BENCH_fig5_throughput", {
        **batch,
        "per_ratio_throughput": [
            {"ratio": r, "insert_rows_per_sec": ins,
             "delete_rows_per_sec": dele} for r, ins, dele in tput],
    })
    assert batch["insert_speedup"] >= 5.0


def test_fig5_single_insert(benchmark):
    """Microbenchmark: one insert through table+tree+reservoir."""
    ds = synthetic.load("nyc_taxi", n=20_000, seed=2)
    table = Table(ds.schema, capacity=10 ** 6)
    table.insert_many(ds.data)
    cfg = JanusConfig(k=64, sample_rate=0.01, check_every=10 ** 9, seed=2)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    row = ds.data[0]
    benchmark(lambda: janus.insert(row))
