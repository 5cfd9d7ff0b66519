"""Figure 10: re-partitioning vs a static DPT (Section 6.8).

Left scenario: insertions deliberately skewed by sorting the NYC stream
on pickup time, so new arrivals pile into a few partitions.  JanusAQP
re-partitions after every 10% increment; the DPT baseline never does.
Expected shape: the static DPT's error climbs steadily with progress
while JanusAQP's stays controlled.

Right scenario: deletions skewed onto 10% of the leaves (half of their
population removed), then 10% more data inserted.  JanusAQP
re-partitions; the static DPT does not.  Expected shape: DPT error
rises, JanusAQP error drops after the re-partition.
"""

from functools import lru_cache

import numpy as np

from conftest import emit
from repro.bench.harness import evaluate, make_workload
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc
from repro.core.table import Table
from repro.datasets import synthetic

N_ROWS = 40_000
N_QUERIES = 200
PROGRESS = (0.3, 0.5, 0.7, 0.9)


def make_system(table, ds, predicate_attrs, seed=0):
    cfg = JanusConfig(k=64, sample_rate=0.02, catchup_rate=0.10,
                      check_every=10 ** 9, seed=seed)
    janus = JanusAQP(table, ds.agg_attr, predicate_attrs, config=cfg)
    janus.initialize()
    return janus


@lru_cache(maxsize=None)
def run_skewed_insertions():
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=0)
    order = np.argsort(ds.data[:, 0])            # sort by pickup_time
    rows = ds.data[order]
    n0 = int(0.1 * ds.n)

    def build():
        t = Table(ds.schema, capacity=ds.n + 16)
        t.insert_many(rows[:n0])
        return t

    t_static, t_janus = build(), build()
    static = make_system(t_static, ds, ds.predicate_attrs, seed=1)
    janus = make_system(t_janus, ds, ds.predicate_attrs, seed=1)
    results = []
    cursor = n0
    for progress in PROGRESS:
        end = int(progress * ds.n)
        for row in rows[cursor:end]:
            static.insert(row)
            janus.insert(row)
        cursor = end
        janus.reoptimize()                        # periodic re-partition
        queries = make_workload(t_janus, ds, AggFunc.SUM,
                                n_queries=N_QUERIES, seed=41,
                                min_count=20)
        results.append((progress,
                        evaluate(static, queries, t_static).p95_re,
                        evaluate(janus, queries, t_janus).p95_re))
    return results


@lru_cache(maxsize=None)
def run_skewed_deletions():
    """Section 6.8's second scenario: delete the *sampled tuples* of a
    subset of leaves (starving their strata) then insert 10% more data.
    JanusAQP re-partitions (with a fresh pooled sample, step 4 of the
    pipeline); the static DPT keeps its starved strata.  Evaluated on
    narrow queries (partial-leaf dominated) both overall and restricted
    to queries touching the depleted regions.
    """
    ds = synthetic.load("nyc_taxi", n=N_ROWS, seed=2)
    half = ds.n // 2

    def build(seed):
        t = Table(ds.schema, capacity=ds.n + 16)
        t.insert_many(ds.data[:half])
        cfg = JanusConfig(k=64, sample_rate=0.05, catchup_rate=0.10,
                          check_every=10 ** 9, seed=seed)
        j = JanusAQP(t, ds.agg_attr, ("pickup_time_of_day",), config=cfg)
        j.initialize()
        return t, j

    t_static, static = build(3)
    t_janus, janus = build(3)
    rng = np.random.default_rng(4)
    leaves = static.dpt.leaves
    chosen = rng.choice(len(leaves), size=max(1, int(0.3 * len(leaves))),
                        replace=False)
    chosen_rects = [leaves[li].rect for li in chosen]
    victims = []
    for li in chosen:
        members = sorted(static.pool.tids(leaves[li].node_id))
        if members:
            take = rng.choice(members, size=int(0.9 * len(members)),
                              replace=False)
            victims.extend(int(t) for t in take)
    for tid in victims:
        static.delete(tid)
        if tid in t_janus:
            janus.delete(tid)
    for row in ds.data[half:half + int(0.1 * ds.n)]:
        static.insert(row)
        janus.insert(row)
    janus.reoptimize()                            # triggered re-partition
    from repro.datasets.workload import generate_workload
    queries = generate_workload(
        t_janus, AggFunc.SUM, ds.agg_attr, ("pickup_time_of_day",),
        n_queries=2 * N_QUERIES, seed=43, min_count=20,
        min_width_frac=0.01, max_width_frac=0.05, endpoints="domain")
    hit = [q for q in queries
           if any(q.rect.intersects(r) for r in chosen_rects)]
    return {
        "all": (evaluate(static, queries, t_static).p95_re,
                evaluate(janus, queries, t_janus).p95_re),
        "depleted": (evaluate(static, hit, t_static).p95_re,
                     evaluate(janus, hit, t_janus).p95_re),
    }


def format_tables(ins_results, del_results) -> str:
    lines = ["Skewed insertions: P95 relative error (%) vs progress",
             f"{'progress':>9}{'DPT':>10}{'JanusAQP':>11}"]
    for progress, dpt_err, janus_err in ins_results:
        lines.append(f"{progress:>9.1f}{100 * dpt_err:>10.3f}"
                     f"{100 * janus_err:>11.3f}")
    lines.append("")
    lines.append("Skewed deletions: P95 relative error (%)")
    lines.append(f"{'scope':>16}{'DPT':>10}{'JanusAQP':>11}")
    for scope in ("all", "depleted"):
        dpt_err, janus_err = del_results[scope]
        lines.append(f"{scope:>16}{100 * dpt_err:>10.3f}"
                     f"{100 * janus_err:>11.3f}")
    return "\n".join(lines)


def test_fig10_repartitioning(benchmark):
    ins_results = benchmark.pedantic(run_skewed_insertions, rounds=1,
                                     iterations=1)
    del_results = run_skewed_deletions()
    emit("fig10_repartition", format_tables(ins_results, del_results))
    # Shape 1: under skewed insertions the static DPT ends up much worse
    # than re-partitioning JanusAQP at the final progress point.
    final = ins_results[-1]
    assert final[1] > 1.5 * final[2], \
        "static DPT should be much worse at the end"
    # Shape 2: re-partitioning improves JanusAQP as skewed data arrives
    # while the static DPT does not improve materially (its online pool
    # growth can jitter its error either way, but it cannot adapt its
    # partitioning to the arrivals).
    assert ins_results[-1][2] < 0.75 * ins_results[0][2]
    assert ins_results[-1][1] > 0.6 * ins_results[0][1]
    # Shape 3: under sample-starving deletions, re-partitioning wins on
    # the depleted regions and does not lose overall.
    assert del_results["depleted"][1] < del_results["depleted"][0]
    assert del_results["all"][1] < 1.15 * del_results["all"][0]


def test_fig10_reoptimize_call(benchmark):
    """Microbenchmark: one full re-optimization (k=64, 20k rows)."""
    ds = synthetic.load("nyc_taxi", n=20_000, seed=5)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data)
    janus = make_system(table, ds, ds.predicate_attrs, seed=5)
    result = benchmark.pedantic(janus.reoptimize, rounds=3, iterations=1)
    assert result.total_seconds > 0
