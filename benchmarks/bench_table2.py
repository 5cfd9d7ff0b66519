"""Table 2: median relative error and query latency across systems.

Paper protocol (Section 6.2): start with 10% of each dataset as
historical data, add 10% increments; at 20%, 50% and 90% progress
re-initialize JanusAQP / retrain DeepDB and evaluate 2000 random SUM
queries.  Reported: median relative error (%) and average query latency
(ms) for JanusAQP, DeepDB, RS and SRS over the Intel-, NYC- and
ETF-shaped datasets.

Expected shape (paper): JanusAQP has the lowest error at tree-level
latency; DeepDB's error is flat across progress; RS/SRS improve with
progress only because their pools grow, paying higher latency.
"""

from functools import lru_cache

import numpy as np

from conftest import emit
from lib.deepdb import DeepDBBaseline
from lib.harness import evaluate, make_workload
from lib.rs import ReservoirBaseline
from lib.srs import StratifiedReservoirBaseline
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc
from repro.core.table import Table
from repro.datasets import synthetic

N_ROWS = 36_000
N_QUERIES = 300
CHECKPOINTS = (0.2, 0.5, 0.9)
DATASETS = ("intel_wireless", "nyc_taxi", "nasdaq_etf")


def run_dataset(name: str, seed: int = 0):
    ds = synthetic.load(name, n=N_ROWS, seed=seed)
    tables = {sys: Table(ds.schema, capacity=ds.n + 16)
              for sys in ("janus", "deepdb", "rs", "srs")}
    n0 = int(0.1 * ds.n)
    for t in tables.values():
        t.insert_many(ds.data[:n0])

    cfg = JanusConfig(k=64, sample_rate=0.01, catchup_rate=0.10,
                      check_every=10 ** 9, seed=seed)
    janus = JanusAQP(tables["janus"], ds.agg_attr, ds.predicate_attrs,
                     config=cfg)
    janus.initialize()
    deepdb = DeepDBBaseline(tables["deepdb"], training_rate=0.10,
                            seed=seed)
    deepdb.fit()
    rs = ReservoirBaseline(tables["rs"], sample_rate=0.01, seed=seed)
    srs = StratifiedReservoirBaseline(tables["srs"],
                                      ds.predicate_attrs[0],
                                      n_strata=64, sample_rate=0.01,
                                      seed=seed)
    systems = {"JanusAQP": janus, "DeepDB": deepdb, "RS": rs, "SRS": srs}

    results = {}
    cursor = n0
    for progress in CHECKPOINTS:
        end = int(progress * ds.n)
        for row in ds.data[cursor:end]:
            for system in systems.values():
                system.insert(row)
        cursor = end
        # per-increment re-initialization (Section 6.2)
        janus.reoptimize()
        deepdb.fit()
        # Heavy-tailed predicate domains (ETF volume) leave most uniform
        # rectangles empty; require a minimum support like the paper does
        # for its selective templates.
        queries = make_workload(tables["janus"], ds, AggFunc.SUM,
                                n_queries=N_QUERIES, seed=7,
                                min_count=20, endpoints="data")
        for label, system in systems.items():
            table = tables[{"JanusAQP": "janus", "DeepDB": "deepdb",
                            "RS": "rs", "SRS": "srs"}[label]]
            results[(label, progress)] = evaluate(system, queries, table)
    return results


@lru_cache(maxsize=None)
def run_all():
    return {name: run_dataset(name) for name in DATASETS}


def format_table(all_results) -> str:
    lines = ["Median relative error (%) of SUM queries / "
             "avg latency (ms), by progress"]
    for name in DATASETS:
        results = all_results[name]
        lines.append(f"\n--- {name} ---")
        header = f"{'Approach':<10}" + "".join(
            f"{f'{int(p * 100)}% err':>10}" for p in CHECKPOINTS) + \
            "".join(f"{f'{int(p * 100)}% ms':>10}" for p in CHECKPOINTS)
        lines.append(header)
        for label in ("JanusAQP", "DeepDB", "RS", "SRS"):
            errs = [100 * results[(label, p)].median_re
                    for p in CHECKPOINTS]
            lats = [results[(label, p)].mean_latency_ms
                    for p in CHECKPOINTS]
            lines.append(f"{label:<10}"
                         + "".join(f"{e:>10.3f}" for e in errs)
                         + "".join(f"{m:>10.3f}" for m in lats))
    return "\n".join(lines)


def test_table2_accuracy_and_latency(benchmark):
    all_results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit("table2", format_table(all_results))
    for name in DATASETS:
        results = all_results[name]
        for p in CHECKPOINTS:
            janus_err = results[("JanusAQP", p)].median_re
            rs_err = results[("RS", p)].median_re
            # Headline claim: JanusAQP reduces the baseline error
            assert janus_err < rs_err, (name, p)
    # DeepDB error is roughly flat with progress (fixed model resolution)
    for name in ("intel_wireless", "nyc_taxi"):
        errs = [all_results[name][("DeepDB", p)].median_re
                for p in CHECKPOINTS]
        assert max(errs) < 10 * max(min(errs), 1e-4)


def test_table2_janus_query_latency(benchmark):
    """Microbenchmark: one JanusAQP query (the paper's ms-level claim)."""
    ds = synthetic.load("nyc_taxi", n=20_000, seed=1)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    cfg = JanusConfig(k=64, sample_rate=0.01, check_every=10 ** 9, seed=1)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    queries = make_workload(table, ds, AggFunc.SUM, n_queries=50, seed=3)
    it = iter(range(10 ** 9))

    def one_query():
        return janus.query(queries[next(it) % len(queries)])
    result = benchmark(one_query)
    assert result.estimate is not None
