"""Figure 8: robustness to query-template changes (Section 6.6).

Three scenarios on the NYC dataset, all with the heuristic single-tree
method of Section 5.5:

* **left** - predicate-attribute change: queries over PickupTime on a
  PickupTime-built tree (PickupOverPickup), queries over DropoffTime on
  the same tree via the uniform-sampling fallback (DropoffOverPickup),
  and queries over DropoffTime after re-partitioning for it
  (DropoffOverDropoff).  Expected: the mismatched case has the highest
  error but stays competitive; re-partitioning restores accuracy.
* **middle** - aggregation-attribute change: same tree answering SUM
  over the attribute it was optimized for vs a different attribute.
  Expected: close to each other.
* **right** - aggregation-function change: SUM / CNT / AVG on one tree.
  Expected: all three low.
"""

from functools import lru_cache

import numpy as np

from conftest import emit
from lib.harness import evaluate, make_workload
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc
from repro.core.table import Table
from repro.core.templates import HeuristicRouter
from repro.datasets import synthetic

N_ROWS = 40_000
N_QUERIES = 250
PROGRESS = (0.3, 0.6, 0.9)


def build(table, ds, predicate_attr, seed=0):
    cfg = JanusConfig(k=64, sample_rate=0.01, catchup_rate=0.10,
                      check_every=10 ** 9, seed=seed)
    janus = JanusAQP(table, ds.agg_attr, (predicate_attr,), config=cfg)
    janus.initialize()
    return janus


@lru_cache(maxsize=None)
def run_experiment():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=0)
    results = {"predicate": [], "agg_attr": [], "agg_func": []}
    for progress in PROGRESS:
        n = int(progress * ds.n)
        table = Table(ds.schema, capacity=ds.n + 16)
        table.insert_many(ds.data[:n])
        pickup_router = HeuristicRouter(build(table, ds, "pickup_time"))

        # left panel: predicate-attribute scenarios
        q_pp = make_workload(table, ds, AggFunc.SUM, N_QUERIES, seed=21,
                             min_count=50,
                             predicate_attrs=("pickup_time",))
        q_dd = make_workload(table, ds, AggFunc.SUM, N_QUERIES, seed=22,
                             min_count=50,
                             predicate_attrs=("dropoff_time",))
        pp = evaluate(pickup_router, q_pp, table).p95_re
        dp = evaluate(pickup_router, q_dd, table).p95_re  # fallback path
        table_d = Table(ds.schema, capacity=ds.n + 16)
        table_d.insert_many(ds.data[:n])
        dropoff_router = HeuristicRouter(build(table_d, ds,
                                               "dropoff_time"))
        dd = evaluate(dropoff_router, q_dd, table_d).p95_re
        results["predicate"].append((progress, pp, dd, dp))

        # middle panel: same vs different aggregation attribute
        q_same = q_pp
        q_diff = make_workload(table, ds, AggFunc.SUM, N_QUERIES,
                               seed=23, min_count=50,
                               predicate_attrs=("pickup_time",),
                               agg_attr="fare")
        same = evaluate(pickup_router, q_same, table).p95_re
        diff = evaluate(pickup_router, q_diff, table).p95_re
        results["agg_attr"].append((progress, same, diff))

        # right panel: aggregation functions on one tree
        row = [progress]
        for agg in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG):
            q = make_workload(table, ds, agg, N_QUERIES, seed=24,
                              min_count=50,
                              predicate_attrs=("pickup_time",))
            row.append(evaluate(pickup_router, q, table).p95_re)
        results["agg_func"].append(tuple(row))
    return results


def format_tables(results) -> str:
    lines = ["P95 relative error (%), predicate-attribute scenarios",
             f"{'progress':>9}{'PickupOverPickup':>18}"
             f"{'DropoffOverDropoff':>20}{'DropoffOverPickup':>19}"]
    for progress, pp, dd, dp in results["predicate"]:
        lines.append(f"{progress:>9.1f}{100 * pp:>18.3f}"
                     f"{100 * dd:>20.3f}{100 * dp:>19.3f}")
    lines.append("")
    lines.append("P95 relative error (%), aggregation attribute")
    lines.append(f"{'progress':>9}{'Same':>10}{'Different':>12}")
    for progress, same, diff in results["agg_attr"]:
        lines.append(f"{progress:>9.1f}{100 * same:>10.3f}"
                     f"{100 * diff:>12.3f}")
    lines.append("")
    lines.append("P95 relative error (%), aggregation function")
    lines.append(f"{'progress':>9}{'SUM':>10}{'CNT':>10}{'AVG':>10}")
    for progress, s, c, a in results["agg_func"]:
        lines.append(f"{progress:>9.1f}{100 * s:>10.3f}"
                     f"{100 * c:>10.3f}{100 * a:>10.3f}")
    return "\n".join(lines)


def test_fig8_dynamic_templates(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit("fig8_templates", format_tables(results))
    for progress, pp, dd, dp in results["predicate"]:
        # Shape 1: the mismatched template (uniform fallback) still
        # answers and stays bounded ("it happens to be quite
        # competitive" - Section 6.6).
        assert dp < 1.0
    # Shape 2: once the system has matured (final progress point),
    # re-partitioning for the new attribute beats the fallback.
    final_pp, final_dd, final_dp = results["predicate"][-1][1:]
    assert final_dd < final_dp
    for progress, same, diff in results["agg_attr"]:
        # Shape 3: aggregation-attribute change stays accurate
        # (statistics are maintained for all attributes).
        assert diff < max(4 * same, 0.25)
    for progress, s, c, a in results["agg_func"]:
        # Shape 4: all three aggregate functions stay bounded; COUNT
        # (no value variance) is typically best.
        assert max(s, c, a) < 0.60


def test_fig8_fallback_query(benchmark):
    """Microbenchmark: the uniform-sampling fallback query path."""
    ds = synthetic.load("nyc_taxi", n=15_000, seed=5)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    router = HeuristicRouter(build(table, ds, "pickup_time", seed=5))
    q = make_workload(table, ds, AggFunc.SUM, 10, seed=25,
                      predicate_attrs=("dropoff_time",))[0]
    result = benchmark(lambda: router.query(q))
    assert result.details.get("fallback") == "uniform"
