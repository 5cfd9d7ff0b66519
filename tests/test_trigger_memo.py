"""The trigger's per-leaf ``M_i'`` memo: soundness and what it saves.

* Property: through any sequence of pool adds / removes / resets (and
  the re-partitions they trigger) a memoised value equals a fresh
  ``oracle.max_variance`` call bit for bit - checked on *every* read the
  engine makes, and for every leaf after every operation.  Rows land on
  cuts, outside the root, and at NaN, +-inf and -0.0 coordinates, where
  a point's stratum and the leaf rectangles holding it could part.
* Count guard (no wall clock): on a fixed 60-batch trace a rejected
  candidate builds no ``DynamicPartitionTree`` and calls
  ``index.report`` at most once per dirty leaf plus once per R' leaf the
  early-exit sweep visited; a committed one partitions exactly once.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dpt import DynamicPartitionTree, inflate_rect
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc
from repro.core.repartition import partial_repartition
from repro.core.table import Table
from repro.core.triggers import RepartitionTrigger
from repro.datasets.synthetic import nyc_taxi
from repro.index.range_index import RangeIndex

DS = nyc_taxi(n=12_000, seed=1)
FARE = DS.schema.index("fare")
#: Predicate values a write may carry that no comparison orders.
EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0]


def _same(a: float, b: float) -> bool:
    return repr(a) == repr(b)


class _CheckedTrigger(RepartitionTrigger):
    """Cross-checks the memo against the oracle on every read."""

    def leaf_variance(self, leaf):
        got = super().leaf_variance(leaf)
        fresh = self.oracle.max_variance(leaf.rect).variance
        assert _same(got, fresh), (leaf.node_id, got, fresh)
        return got


def _engine(pred_attrs, agg, n_seed, **cfg):
    table = Table(DS.schema)
    table.insert_many(DS.data[:n_seed])
    engine = JanusAQP(table, "fare", pred_attrs,
                      config=JanusConfig(focus_agg=agg, seed=2, **cfg))
    engine.initialize()
    return engine


# ---------------------------------------------------------------------- #
# soundness
# ---------------------------------------------------------------------- #
OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 40),
              st.sampled_from(["plain", "on_cut", "outside", "hot",
                               "edge"])),
    st.tuples(st.just("delete"), st.integers(1, 40), st.just("")),
    st.tuples(st.sampled_from(["reset", "partial", "reoptimize"]),
              st.just(0), st.just(""))),
    min_size=1, max_size=14)


@settings(max_examples=30, deadline=None)
@given(ops=OPS, seed=st.integers(0, 2 ** 16),
       case=st.sampled_from([(("pickup_time",), AggFunc.SUM),
                             (("pickup_time",), AggFunc.COUNT),
                             (("pickup_time",), AggFunc.AVG),
                             (("pickup_time", "trip_distance"),
                              AggFunc.SUM),
                             (("pickup_time", "trip_distance"),
                              AggFunc.COUNT)]))
def test_memo_equals_fresh_oracle(ops, seed, case):
    pred_attrs, agg = case
    # a small table under a large pool: every batch churns the pool
    engine = _engine(pred_attrs, agg, 600, k=12, sample_rate=0.15,
                     check_every=32)
    engine.trigger.__class__ = _CheckedTrigger
    pred_idx = [DS.schema.index(a) for a in pred_attrs]
    rng = np.random.default_rng(seed)
    live = list(range(600))
    cursor = 600
    for kind, n, where in ops:
        if kind == "insert":
            rows = DS.data[cursor:cursor + n].copy()
            cursor += n
            if where == "on_cut":   # closed bounds: dirties both sides
                leaf = engine.dpt.leaves[int(rng.integers(engine.dpt.k))]
                rows[:, pred_idx] = [h if np.isfinite(h) else l for l, h
                                     in zip(leaf.rect.lo, leaf.rect.hi)]
            elif where == "outside":
                rows[:, pred_idx] = rng.choice([-1e5, 1e7])
            elif where == "hot":
                rows[:, FARE] += 5000.0
            elif where == "edge":   # some coordinates, so NaN meets finite
                pred = rows[:, pred_idx]
                edge = rng.random(pred.shape) < 0.5
                pred[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
                rows[:, pred_idx] = pred
            live.extend(engine.insert_many(rows))
        elif kind == "delete" and len(live) > 200:
            picks = rng.choice(len(live), size=min(n, len(live) - 200),
                               replace=False)
            engine.delete_many([live[i] for i in picks])
            gone = set(picks.tolist())
            live = [t for i, t in enumerate(live) if i not in gone]
        elif kind == "reset":
            engine._pool_changed(
                engine.pool.initialize(engine.dpt.leaf_ids_of))
        elif kind == "partial":
            partial_repartition(engine, engine.dpt.leaves[-1], psi=1)
        elif kind == "reoptimize":
            engine.reoptimize()
        for leaf in engine.dpt.leaves:
            engine.trigger.leaf_variance(leaf)      # asserts inside


def test_unreported_pool_change_drops_the_memo():
    """A caller that changes the pool behind the trigger's back (no
    ``_pool_changed``) must not be served stale values: the pool's
    ``version`` ran ahead of the reports."""
    engine = _engine(("pickup_time",), AggFunc.SUM, 3000, k=8,
                     sample_rate=0.05)
    trigger, leaf = engine.trigger, engine.dpt.leaves[2]
    before = trigger.leaf_variance(leaf)
    row = DS.data[3000].copy()
    row[0], row[FARE] = (leaf.rect.lo[0] + leaf.rect.hi[0]) / 2, 1e6
    tids = engine.table.insert_many(row[None])
    engine.pool.delete_many(engine.reservoir.tids()[:1])
    engine.pool.insert_many(tids, np.array([leaf.node_id]))
    assert tids[0] in engine.pool       # below target: taken as it came
    after = trigger.leaf_variance(leaf)
    assert after != before
    assert _same(after, trigger.oracle.max_variance(leaf.rect).variance)


# ---------------------------------------------------------------------- #
# count guard
# ---------------------------------------------------------------------- #
def test_evaluation_cost_counts(monkeypatch):
    counts = {"dpt": 0, "report": 0, "partition": 0, "visited": 0}

    def counting(cls, name, key):
        orig = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    engine = _engine(("pickup_time",), AggFunc.SUM, 6000, k=48,
                     sample_rate=0.03)
    counting(DynamicPartitionTree, "__init__", "dpt")
    counting(RangeIndex, "report", "report")
    counting(JanusAQP, "_partition", "partition")
    trigger = engine.trigger
    confirm_rects = trigger.confirm_rects

    def counted_confirm(rects, old_m):
        def visiting():
            for rect in rects:
                counts["visited"] += 1
                yield rect
        return confirm_rects(visiting(), old_m)
    trigger.confirm_rects = counted_confirm

    after_update = engine._after_update
    log = []

    def logged_after_update(leaf_counts):
        dirty = sum(v is None for v in trigger._memo)
        start = dict(counts)
        reparts = engine.n_repartitions
        after_update(leaf_counts)
        delta = {k: counts[k] - start[k] for k in counts}
        log.append((dirty, delta, engine.n_repartitions - reparts))
    engine._after_update = logged_after_update

    for b in range(60):
        rows = DS.data[6000 + 72 * b:6000 + 72 * (b + 1)].copy()
        if b >= 30:
            rows[:40, 0] = rows[:40, 0] % 7 + 300
            rows[:40, FARE] += 3000.0
        engine.insert_many(rows)

    rejected = [(d, c) for d, c, commit in log
                if c["partition"] and not commit]
    committed = [c for _, c, commit in log if commit]
    assert len(rejected) >= 5 and len(committed) >= 1
    for dirty, c in rejected:
        assert c["dpt"] == 0
        assert c["partition"] == 1
        assert 1 <= c["visited"] <= 48
        assert c["report"] <= dirty + c["visited"]
    # the early exit and the memo both bite on this trace
    assert sum(c["visited"] for _, c in rejected) < 48 * len(rejected)
    assert sum(d for d, _ in rejected) < 48 * len(rejected)
    for c in committed:
        assert c["partition"] == 1      # the evaluation's spec is reused
        assert c["dpt"] == 1            # only the tree that is installed
    for _, c, _ in log:                 # a batch with no candidate: free
        if not c["partition"]:
            assert c["dpt"] == c["visited"] == 0


# ---------------------------------------------------------------------- #
# the commit test is order-free (so R' may be visited worst bucket first)
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _commit_world(pred_attrs, agg):
    """An engine, the inflated leaf rectangles of a candidate R' in the
    order the commit test visits them, and their variances."""
    engine = _engine(pred_attrs, agg, 6000, k=24, sample_rate=0.03)
    snapshot = engine._snapshot(None, False)
    rects = [inflate_rect(r, snapshot[4])
             for r in engine._partition(*snapshot).leaf_rects()]
    variances = [engine.trigger.oracle.max_variance(r).variance
                 for r in rects]
    return engine.trigger, rects, variances


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       case=st.sampled_from([(("pickup_time",), AggFunc.SUM),
                             (("pickup_time",), AggFunc.AVG),
                             (("pickup_time", "trip_distance"),
                              AggFunc.SUM)]))
def test_confirm_rects_is_order_free(data, case):
    trigger, rects, variances = _commit_world(*case)
    beta = trigger.config.beta
    # thresholds on both sides of every leaf's own decision
    pivot = data.draw(st.sampled_from(variances))
    old_m = data.draw(st.sampled_from(
        [0.0, pivot * beta, pivot * beta * (1 + 1e-9), 1e300]))
    shuffled = data.draw(st.permutations(rects))
    want = trigger.confirm(max(variances), old_m)
    assert trigger.confirm_rects(iter(rects), old_m) is want
    assert trigger.confirm_rects(iter(shuffled), old_m) is want
