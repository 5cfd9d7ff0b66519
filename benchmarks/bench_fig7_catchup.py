"""Figure 7: the catch-up phase's accuracy/cost trade-off.

Left plot: P95 relative error of JanusAQP as the catch-up goal varies
from 1% to 10% of the data (Intel dataset, 128-leaf tree, 1% sample),
with a 1%-sample RS baseline as reference.  Expected shape: at a 1%
catch-up goal JanusAQP has no advantage over RS; the error drops
steadily as the goal grows.

Right plot: catch-up overhead split into data *loading* (broker polls,
transfer, string parsing) and *processing* (tree statistic updates).
Expected shape: both grow linearly with the goal.  (In the paper loading
dominates because Kafka transfer/ETL is expensive relative to native
tree updates; in this pure-Python substrate the ratio inverts - tree
updates are interpreter-bound - but both growth curves hold.  See
EXPERIMENTS.md.)
"""

from functools import lru_cache

import numpy as np

from conftest import emit
from repro.baselines.rs import ReservoirBaseline
from repro.bench.harness import evaluate, make_workload
from repro.broker.broker import Topic, encode_rows
from repro.core.catchup import CatchupRunner
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc
from repro.core.table import Table
from repro.datasets import synthetic

N_ROWS = 40_000
N_QUERIES = 250
CATCHUP_RATES = (0.01, 0.02, 0.04, 0.06, 0.08, 0.10)


@lru_cache(maxsize=None)
def run_accuracy():
    ds = synthetic.load("intel_wireless", n=N_ROWS, seed=0)
    results = []
    for rate in CATCHUP_RATES:
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        cfg = JanusConfig(k=128, sample_rate=0.01, catchup_rate=rate,
                          check_every=10 ** 9, seed=0)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        queries = make_workload(table, ds, AggFunc.SUM,
                                n_queries=N_QUERIES, seed=11,
                                min_count=20)
        ev = evaluate(janus, queries, table)
        results.append((rate, ev.p95_re))
    # RS reference at the same 1% sample rate
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    rs = ReservoirBaseline(table, sample_rate=0.01, seed=0)
    queries = make_workload(table, ds, AggFunc.SUM, n_queries=N_QUERIES,
                            seed=11, min_count=20)
    rs_p95 = evaluate(rs, queries, table).p95_re
    return results, rs_p95


@lru_cache(maxsize=None)
def run_overhead():
    """Catch-up fed from a broker topic: loading vs processing time."""
    ds = synthetic.load("intel_wireless", n=N_ROWS, seed=1)
    topic = Topic("data")
    topic.produce_many(encode_rows(ds.data))
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    out = []
    for rate in CATCHUP_RATES:
        cfg = JanusConfig(k=128, sample_rate=0.01, catchup_rate=0.0,
                          check_every=10 ** 9, seed=1)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize(catchup_goal=0)
        runner = CatchupRunner(janus.dpt, seed=2)
        report = runner.run_from_topic(topic, goal=int(rate * ds.n))
        out.append((rate, report.loading_seconds,
                    report.processing_seconds))
    return out


def format_tables(accuracy, rs_p95, overhead) -> str:
    lines = ["P95 relative error vs catch-up goal (RS reference: "
             f"{100 * rs_p95:.3f}%)",
             f"{'catchup%':>10}{'JanusAQP p95%':>15}"]
    for rate, p95 in accuracy:
        lines.append(f"{100 * rate:>10.0f}{100 * p95:>15.3f}")
    lines.append("")
    lines.append("Catch-up overhead: loading vs processing (seconds)")
    lines.append(f"{'catchup%':>10}{'loading':>10}{'processing':>12}")
    for rate, load_s, proc_s in overhead:
        lines.append(f"{100 * rate:>10.0f}{load_s:>10.3f}{proc_s:>12.3f}")
    return "\n".join(lines)


def test_fig7_catchup_accuracy(benchmark):
    (accuracy, rs_p95) = benchmark.pedantic(run_accuracy, rounds=1,
                                            iterations=1)
    overhead = run_overhead()
    emit("fig7_catchup", format_tables(accuracy, rs_p95, overhead))
    errs = [p95 for _, p95 in accuracy]
    # Shape 1: more catch-up, less error (allowing sampling noise at the
    # adjacent points: compare the ends).
    assert errs[-1] < errs[0]
    # Shape 2: at a 1% catch-up goal JanusAQP has little or no advantage
    # over the 1% RS baseline (paper: the curves touch).
    assert errs[0] > 0.5 * rs_p95
    # Shape 3: by 10% catch-up JanusAQP clearly beats the RS reference.
    assert errs[-1] < rs_p95
    # Shape 4: overhead grows with the goal on both components.
    loads = [l for _, l, _ in overhead]
    procs = [p for _, _, p in overhead]
    assert loads[-1] > loads[0]
    assert procs[-1] > procs[0]


def test_fig7_catchup_processing_rate(benchmark):
    """Microbenchmark: tree-update processing rate (tuples/s)."""
    ds = synthetic.load("intel_wireless", n=10_000, seed=3)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    cfg = JanusConfig(k=128, sample_rate=0.01, catchup_rate=0.0,
                      check_every=10 ** 9, seed=3)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize(catchup_goal=0)
    row = ds.data[:1]
    benchmark(lambda: janus.dpt.add_catchup_rows(row))
