"""Sketch-aggregate accuracy vs exact ground truth at 1/2/4 shards.

The ISSUE 9 acceptance benchmark for the sketch-backed aggregates
(``PERCENTILE`` / ``COUNT(DISTINCT)`` / ``TOPK``, :mod:`repro.sketch`).
One seeded workload - a continuous column for the quantile/distinct
sketches and a zipf-skewed discrete column for heavy hitters - is
streamed (insert + a delete wave, so delete-exactness is on the hook)
into a single engine and into 2- and 4-shard fleets, and every answer
is scored against the exact ground truth of the surviving rows.

Gates (asserted in **both** full and smoke modes - accuracy is
wall-clock independent, unlike the throughput benches):

* **PERCENTILE** - observed rank error at every probed fraction is
  within the sketch's own DKW bound ``rank_eps(delta)``; the bound
  itself must be non-vacuous (< 0.1).
* **COUNT(DISTINCT)** - relative error within ``rel_error_bound(3.0)``
  = ``3 * 1.04 / sqrt(2^HLL_BITS)`` (~6.9% at 11 bits).
* **TOPK** - ``exact`` on the capped-zipf column (its support fits
  ``TOPK_CAPACITY``) and the item list equals the true top-k.
* **Identity** - every sharded answer (estimate, exactness and the
  canonical blob) is bit-identical to the single engine's: sketch
  merging introduces no error whatsoever, at any shard count.

Emits ``BENCH_sketch_accuracy.json``.  Set ``JANUS_BENCH_SMOKE=1``
(the CI default) for a reduced run that still writes the artifact and
still asserts every gate.
"""

import math
import os
from functools import lru_cache

import numpy as np

from conftest import emit, emit_json
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.core.table import Table
from repro.sketch import SKETCH_KEY, sketch_from_bytes

SMOKE = os.environ.get("JANUS_BENCH_SMOKE", "") not in ("", "0")

N_TOTAL = 24_000 if SMOKE else 120_000
N_SEED = N_TOTAL // 2
SHARD_COUNTS = (2, 4)
FRACTIONS = (0.05, 0.25, 0.5, 0.75, 0.95)
TOP_K = 10
ZIPF_SUPPORT = 30            # < TOPK_CAPACITY: TOPK must stay exact
DKW_DELTA = 0.01             # quantile bound confidence 1 - delta
HLL_Z = 3.0                  # distinct bound at 3 standard errors
MAX_RANK_EPS = 0.10          # the DKW bound must be non-vacuous

SCHEMA = ("x", "v", "w")     # predicate key, continuous, zipf-skewed
UNBOUNDED = Rectangle((-math.inf,), (math.inf,))


def config(n_shards: int) -> JanusConfig:
    return JanusConfig(k=max(2, 32 // n_shards), sample_rate=0.02,
                       catchup_rate=0.05, check_every=10 ** 9,
                       auto_repartition=False, seed=0,
                       sketch_attrs=("v", "w"))


def make_rows(n: int) -> np.ndarray:
    rng = np.random.default_rng(9)
    return np.column_stack([
        rng.uniform(0.0, 1_000.0, n),
        rng.uniform(0.0, 1.0, n),
        np.minimum(rng.zipf(1.5, n), ZIPF_SUPPORT).astype(float),
    ])


def sketch_queries():
    queries = [Query(AggFunc.PERCENTILE, "v", ("x",), UNBOUNDED, p)
               for p in FRACTIONS]
    queries.append(Query(AggFunc.COUNT_DISTINCT, "v", ("x",), UNBOUNDED))
    queries.append(Query(AggFunc.TOPK, "w", ("x",), UNBOUNDED,
                         float(TOP_K)))
    return queries


def drive(engine, rows, dead_tids):
    """Seed, initialize, stream the rest, then the delete wave."""
    engine.insert_many(rows[:N_SEED])
    engine.initialize()
    engine.insert_many(rows[N_SEED:])
    engine.delete_many(dead_tids)
    return engine.query_many(sketch_queries())


def identical(x, y) -> bool:
    est_same = (x.estimate == y.estimate or
                (math.isnan(x.estimate) and math.isnan(y.estimate)))
    return (est_same and x.exact == y.exact and
            x.details.get(SKETCH_KEY) == y.details.get(SKETCH_KEY))


def score(results, live) -> dict:
    """Error vs the exact ground truth of the surviving rows."""
    ordered_v = np.sort(live[:, 1])
    n_live = ordered_v.size
    percentiles = []
    for i, p in enumerate(FRACTIONS):
        result = results[i]
        sketch = sketch_from_bytes(result.details[SKETCH_KEY])
        bound = sketch.rank_eps(DKW_DELTA)
        observed_rank = np.searchsorted(ordered_v, result.estimate,
                                        side="right") / n_live
        percentiles.append({
            "p": p,
            "estimate": result.estimate,
            "true_value": float(
                ordered_v[max(1, math.ceil(p * n_live)) - 1]),
            "rank_error": abs(observed_rank - p),
            "rank_eps_bound": bound,
            "within_bound": bool(abs(observed_rank - p)
                                 <= bound + 1e-12),
        })

    distinct_result = results[len(FRACTIONS)]
    true_distinct = int(np.unique(live[:, 1]).size)
    hll = sketch_from_bytes(distinct_result.details[SKETCH_KEY])
    hll_bound = hll.rel_error_bound(HLL_Z)
    rel_error = abs(distinct_result.estimate - true_distinct) \
        / max(true_distinct, 1)
    distinct = {
        "estimate": distinct_result.estimate,
        "true_distinct": true_distinct,
        "rel_error": rel_error,
        "rel_error_bound": hll_bound,
        "within_bound": bool(rel_error <= hll_bound),
    }

    topk_result = results[len(FRACTIONS) + 1]
    uniques, counts = np.unique(live[:, 2], return_counts=True)
    order = np.lexsort((uniques, -counts))
    true_items = [[float(uniques[i]), int(counts[i])]
                  for i in order[:TOP_K]]
    hh = sketch_from_bytes(topk_result.details[SKETCH_KEY])
    topk = {
        "estimate_mass": topk_result.estimate,
        "true_mass": float(counts[order[:TOP_K]].sum()),
        "exact": topk_result.exact,
        "items_match": [list(item) for item in hh.top(TOP_K)]
            == true_items,
    }
    return {"percentile": percentiles, "count_distinct": distinct,
            "topk": topk}


@lru_cache(maxsize=None)
def run_sketch_accuracy():
    rows = make_rows(N_TOTAL)
    # Delete every third seeded row: tids are dense insertion order in
    # every engine, and ShardedJanusAQP hands back the same global tids.
    dead = list(range(0, N_SEED, 3))
    live = np.delete(rows, dead, axis=0)

    table = Table(SCHEMA, capacity=N_TOTAL + 16)
    single = JanusAQP(table, "v", ("x",), config=config(1))
    want = drive(single, rows, dead)

    series = [dict(shards=1, identical_to_single=True,
                   **score(want, live))]
    all_identical = True
    for n_shards in SHARD_COUNTS:
        sharded = ShardedJanusAQP(SCHEMA, "v", ("x",),
                                  n_shards=n_shards,
                                  config=config(n_shards))
        got = drive(sharded, rows, dead)
        same = all(identical(g, w) for g, w in zip(got, want))
        all_identical &= same
        series.append(dict(shards=n_shards, identical_to_single=same,
                           **score(got, live)))
        sharded.close()

    return {
        "smoke": SMOKE,
        "n_rows_total": N_TOTAL,
        "n_rows_deleted": len(dead),
        "n_rows_live": int(live.shape[0]),
        "fractions": list(FRACTIONS),
        "top_k": TOP_K,
        "dkw_delta": DKW_DELTA,
        "hll_z": HLL_Z,
        "series": series,
        "all_identical_to_single": all_identical,
    }


def format_table(r) -> str:
    lines = [
        f"Sketch accuracy vs exact ground truth "
        f"({r['n_rows_live']} live rows after "
        f"{r['n_rows_deleted']} deletes"
        f"{', smoke' if r['smoke'] else ''})",
        f"{'shards':>7}{'agg':>18}{'error':>11}{'bound':>11}"
        f"{'ok':>5}{'==single':>10}",
    ]
    for row in r["series"]:
        worst = max(row["percentile"], key=lambda e: e["rank_error"])
        same = "yes" if row["identical_to_single"] else "NO"
        lines.append(
            f"{row['shards']:>7}{'PERCENTILE rank':>18}"
            f"{worst['rank_error']:>11.4f}"
            f"{worst['rank_eps_bound']:>11.4f}"
            f"{'y' if all(e['within_bound'] for e in row['percentile']) else 'N':>5}"
            f"{same:>10}")
        d = row["count_distinct"]
        lines.append(
            f"{row['shards']:>7}{'DISTINCT rel':>18}"
            f"{d['rel_error']:>11.4f}{d['rel_error_bound']:>11.4f}"
            f"{'y' if d['within_bound'] else 'N':>5}{same:>10}")
        t = row["topk"]
        lines.append(
            f"{row['shards']:>7}{'TOPK':>18}"
            f"{abs(t['estimate_mass'] - t['true_mass']):>11.1f}"
            f"{'exact':>11}"
            f"{'y' if t['exact'] and t['items_match'] else 'N':>5}"
            f"{same:>10}")
    lines.append(
        f"all sharded answers identical to single engine: "
        f"{r['all_identical_to_single']}")
    return "\n".join(lines)


def test_sketch_accuracy(benchmark):
    """ISSUE 9 acceptance: pinned accuracy bounds at 1/2/4 shards and
    bit-identical sharded answers, in full and smoke modes alike."""
    result = benchmark.pedantic(run_sketch_accuracy, rounds=1,
                                iterations=1)
    emit("sketch_accuracy", format_table(result))
    emit_json("BENCH_sketch_accuracy", result)
    assert result["all_identical_to_single"]
    for row in result["series"]:
        for entry in row["percentile"]:
            assert entry["within_bound"], (row["shards"], entry)
            assert entry["rank_eps_bound"] <= MAX_RANK_EPS, entry
        assert row["count_distinct"]["within_bound"], row["shards"]
        assert row["topk"]["exact"], row["shards"]
        assert row["topk"]["items_match"], row["shards"]
