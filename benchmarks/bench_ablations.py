"""Ablations over JanusAQP's design choices (beyond the paper's tables).

Four studies isolating decisions the paper motivates but does not sweep
explicitly:

* **partitioner** - the max-variance objective (BS/DP) vs structure-blind
  equi-depth and the greedy k-d tree, at fixed k, on the skewed Intel
  workload.  Expected: variance-aware partitioning wins on SUM error.
* **min/max heap size** - Section 4.1's top-k/bottom-k under deletion
  churn: the fraction of leaves whose MAX is still exact grows with k.
* **sample rate** - error scales ~1/sqrt(pool size) while the synopsis
  footprint grows linearly: the storage/accuracy knob of Section 5.5.
* **partial vs full re-partitioning** - Appendix E's claim: partial is
  faster and leaves estimates outside the region untouched.
"""

import math
import time
from functools import lru_cache

import numpy as np

from conftest import emit
from lib.harness import evaluate, make_workload
from lib.spt import build_spt
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.repartition import partial_repartition
from repro.core.table import Table
from repro.datasets import synthetic
from repro.index.topk import TopK

N_ROWS = 40_000
N_QUERIES = 250


# ---------------------------------------------------------------------- #
# ablation 1: partitioner choice
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def run_partitioner_ablation():
    from repro.index.range_index import RangeIndex
    from repro.partitioning.maxvar import MaxVarOracle

    ds = synthetic.load("intel_wireless", n=N_ROWS, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    queries = make_workload(table, ds, AggFunc.SUM, n_queries=N_QUERIES,
                            seed=51, min_count=20)
    # a held-out sample for measuring the realized minimax objective
    rng = np.random.default_rng(99)
    pick = rng.choice(ds.n, size=2000, replace=False)
    pred = list(ds.schema).index(ds.predicate_attrs[0])
    agg = list(ds.schema).index(ds.agg_attr)
    held_out = RangeIndex(1)
    held_out.add_many(np.arange(pick.size), ds.data[pick, pred],
                      ds.data[pick, agg])
    oracle = MaxVarOracle(held_out, AggFunc.SUM, pop_ratio=ds.n / 2000)
    out = {}
    for partitioner in ("equidepth", "bs", "dp", "kd"):
        spt = build_spt(ds.data, ds.schema, ds.agg_attr,
                        ds.predicate_attrs, k=64, sample_rate=0.01,
                        partitioner=partitioner, seed=1,
                        max_partition_samples=1200)
        ev = evaluate(spt, queries, table)
        worst = max(oracle.max_variance(leaf.rect).error
                    for leaf in spt.tree.leaves)
        out[partitioner] = (ev.median_re, ev.p95_re, worst)
    return out


def test_ablation_partitioner(benchmark):
    out = benchmark.pedantic(run_partitioner_ablation, rounds=1,
                             iterations=1)
    text = ("Partitioner ablation, k=64, SUM, Intel-like data\n"
            f"{'':12}{'median RE%':>12}{'p95 RE%':>10}"
            f"{'max-leaf err':>14}\n"
            + "\n".join(
                f"{name:<12}{100 * m:>12.3f}{100 * p:>10.3f}{w:>14.1f}"
                for name, (m, p, w) in out.items()))
    emit("ablation_partitioner", text)
    # The variance-aware partitioners minimize the worst-case CI length
    # (their actual objective): DP - which searches the objective
    # exhaustively - achieves a lower realized max-leaf error than the
    # structure-blind equi-depth split.  (On relative-error medians at
    # this scale equi-depth is competitive; see EXPERIMENTS.md.)
    assert out["dp"][2] < out["equidepth"][2]
    assert out["bs"][2] < 1.1 * out["equidepth"][2]


# ---------------------------------------------------------------------- #
# ablation 2: MIN/MAX heap size under deletion churn
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def run_heap_ablation():
    rng = np.random.default_rng(0)
    values = rng.lognormal(0, 1, 4000)
    results = {}
    for k in (1, 4, 16, 64):
        trials_exact = 0
        trials = 40
        for trial in range(trials):
            top = TopK(k, largest=True)
            local_rng = np.random.default_rng(trial)
            vals = list(local_rng.choice(values, size=200, replace=False))
            for v in vals:
                top.insert(float(v))
            # adversarial churn: delete the largest 30% of values
            for v in sorted(vals, reverse=True)[:60]:
                top.delete(float(v))
            trials_exact += top.exact
        results[k] = trials_exact / trials
    return results


def test_ablation_minmax_heap_size(benchmark):
    results = benchmark.pedantic(run_heap_ablation, rounds=1, iterations=1)
    text = "Fraction of nodes with exact MAX after deleting top 30%\n" + \
        "\n".join(f"k={k:<4}{frac:>8.2f}" for k, frac in results.items())
    emit("ablation_minmax", text)
    ks = sorted(results)
    # exactness is monotone in the heap size and k=64 survives churn
    assert results[ks[-1]] >= results[ks[0]]
    assert results[64] == 1.0
    assert results[1] < 1.0


# ---------------------------------------------------------------------- #
# ablation 3: sample rate (storage/accuracy knob)
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def run_sample_rate_ablation():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=1)
    out = []
    for rate in (0.005, 0.01, 0.02, 0.04):
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data)
        cfg = JanusConfig(k=64, sample_rate=rate, catchup_rate=0.05,
                          check_every=10 ** 9, seed=2)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        queries = make_workload(table, ds, AggFunc.SUM,
                                n_queries=N_QUERIES, seed=53,
                                min_count=20)
        ev = evaluate(janus, queries, table)
        out.append((rate, ev.median_re, janus.storage_cost_bytes()))
    return out


def test_ablation_sample_rate(benchmark):
    out = benchmark.pedantic(run_sample_rate_ablation, rounds=1,
                             iterations=1)
    text = ("Sample-rate knob: error vs synopsis footprint\n"
            + f"{'rate':>7}{'median RE%':>12}{'bytes':>12}\n"
            + "\n".join(f"{r:>7.3f}{100 * e:>12.3f}{b:>12,}"
                        for r, e, b in out))
    emit("ablation_sample_rate", text)
    # more samples, more bytes, less error (compare the extremes)
    assert out[-1][1] < out[0][1]
    assert out[-1][2] > out[0][2]


# ---------------------------------------------------------------------- #
# ablation 4: partial vs full re-partitioning
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def run_partial_vs_full():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=2)

    def build():
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:32_000])
        cfg = JanusConfig(k=64, sample_rate=0.02, catchup_rate=0.10,
                          check_every=10 ** 9, seed=3)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        return table, janus

    # partial
    table_p, janus_p = build()
    leaf = janus_p.dpt.leaves[len(janus_p.dpt.leaves) // 2]
    report = partial_repartition(janus_p, leaf, psi=2)
    partial_seconds = report.seconds
    # full
    table_f, janus_f = build()
    t0 = time.perf_counter()
    janus_f.reoptimize()
    full_seconds = time.perf_counter() - t0
    # error comparison on a shared workload
    queries = make_workload(table_p, ds, AggFunc.SUM,
                            n_queries=N_QUERIES, seed=55, min_count=20)
    err_partial = evaluate(janus_p, queries, table_p).median_re
    err_full = evaluate(janus_f, queries, table_f).median_re
    return partial_seconds, full_seconds, err_partial, err_full


def test_ablation_partial_vs_full(benchmark):
    partial_s, full_s, err_p, err_f = benchmark.pedantic(
        run_partial_vs_full, rounds=1, iterations=1)
    text = ("Partial vs full re-partitioning\n"
            f"partial: {partial_s:.3f} s, median RE {100 * err_p:.3f}%\n"
            f"full:    {full_s:.3f} s, median RE {100 * err_f:.3f}%")
    emit("ablation_partial_vs_full", text)
    # Appendix E: partial is faster...
    assert partial_s < full_s
    # ...and does not blow up the error (most nodes keep their stats)
    assert err_p < max(3 * err_f, 0.08)
