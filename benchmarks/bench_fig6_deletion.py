"""Figure 6: accuracy under uniform deletions.

Protocol (Section 6.4): load the first 50% of each dataset, delete the
last p% of what was loaded (p = 1..9), then evaluate 2000 random SUM
queries against the post-deletion ground truth.

Expected shape (paper): the median relative error stays roughly flat as
the deletion percentage grows, because deletions spread uniformly over
the predicate domain hit every leaf with about the same probability.
(The last-p% rows of our generators are not sorted by the predicate
attribute, matching the paper's setting; the skewed-deletion case is
Figure 10's second scenario.)
"""

from functools import lru_cache

import numpy as np

from conftest import emit
from lib.harness import evaluate, make_workload
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc
from repro.core.table import Table
from repro.datasets import synthetic

N_ROWS = 40_000
N_QUERIES = 250
DELETE_PCTS = (0.01, 0.03, 0.05, 0.07, 0.09)
DATASETS = ("intel_wireless", "nyc_taxi", "nasdaq_etf")


def run_dataset(name: str):
    ds = synthetic.load(name, n=N_ROWS, seed=0)
    half = ds.n // 2
    out = []
    for pct in DELETE_PCTS:
        table = Table(ds.schema, capacity=ds.n + 16)
        tids = table.insert_many(ds.data[:half])
        cfg = JanusConfig(k=64, sample_rate=0.02, catchup_rate=0.10,
                          check_every=10 ** 9, seed=0)
        janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                         config=cfg)
        janus.initialize()
        n_delete = int(pct * half)
        for tid in tids[half - n_delete:]:
            janus.delete(tid)
        queries = make_workload(table, ds, AggFunc.SUM,
                                n_queries=N_QUERIES, seed=9,
                                min_count=20)
        ev = evaluate(janus, queries, table)
        out.append((pct, ev.median_re))
    return out


@lru_cache(maxsize=None)
def run_all():
    return {name: run_dataset(name) for name in DATASETS}


def format_table(all_results) -> str:
    lines = ["Median relative error (%) vs deletion percentage",
             f"{'dataset':<16}" + "".join(f"{int(p * 100)}%:>8".replace(
                 ":>8", "").rjust(8) for p in DELETE_PCTS)]
    for name in DATASETS:
        errs = [100 * e for _, e in all_results[name]]
        lines.append(f"{name:<16}" + "".join(f"{e:>8.3f}" for e in errs))
    return "\n".join(lines)


def test_fig6_deletions_stable(benchmark):
    all_results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("fig6_deletion", format_table(all_results))
    for name in DATASETS:
        errs = [e for _, e in all_results[name]]
        # Shape: flat-ish across deletion percentages - the worst point
        # stays within a small factor of the best (paper Figure 6).
        assert max(errs) < 4 * max(min(errs), 0.005), name
        # and the error never becomes catastrophic
        assert max(errs) < 0.25, name


def test_fig6_single_delete(benchmark):
    ds = synthetic.load("nyc_taxi", n=10_000, seed=1)
    table = Table(ds.schema, capacity=ds.n + 16)
    tids = table.insert_many(ds.data)
    cfg = JanusConfig(k=32, sample_rate=0.02, check_every=10 ** 9, seed=1)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    it = iter(tids)
    benchmark.pedantic(lambda: janus.delete(next(it)),
                       rounds=min(3000, len(tids) - 10), iterations=1)
