"""Decision replay: the fast candidate evaluation decides what the old one did.

The write path evaluates a re-partitioning candidate with a per-leaf
``M_i'`` memo, a worst-bucket-first, early-exit commit test over the
leaf intervals of R' (no tree unless it commits) and, in the 1-D
partitioner, a vectorised fail-path table in front of a scalar, memoised
bucket-error kernel.  Every one of those is meant to be *exact*.  This file keeps a frozen copy of the
evaluation and of the 1-D partitioner as they were before (commit
885f11a: fresh oracle calls for every leaf, a throwaway
``DynamicPartitionTree`` for R', numpy-scalar prefix arithmetic, a second
partitioning on commit) and drives it beside the live code:

* the per-batch transcript ``(batch, action, M(R), committed)`` and every
  field of 128 probe answers must be identical (1-D SUM, 1-D AVG, 2-D);
* ``OneDimPartitioner.partition`` must return the reference's bounds,
  cuts, ``max_error`` and tree rectangles on random inputs with ties,
  heavy tails, overflow-scale values, infinities and NaNs, up to sizes
  whose bisections run 9 and more probes deep;
* every entry of the fail-path table must ``repr``-equal the scalar
  kernel at the same ``(i, j)``;
* on one recorded pool a candidate costs at most a quarter of the
  reference's ``bucket_error`` calls and no more commit-test oracle
  calls.
"""

import dataclasses
import math
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dpt import DynamicPartitionTree, inflate_rect
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.repartition import partial_repartition
from repro.core.table import Table
from repro.core.triggers import RepartitionTrigger, TriggerAction
from repro.datasets.synthetic import nyc_taxi
from repro.partitioning.maxvar import PrefixStats
from repro.partitioning.onedim import OneDimPartitioner
from repro.partitioning.spec import tree_from_intervals


# ---------------------------------------------------------------------- #
# frozen reference (as of 885f11a) - do not "modernise"
# ---------------------------------------------------------------------- #
def _ref_sum_query_variance(pop_ratio, m_bucket, q_sum, q_sumsq):
    if m_bucket <= 0:
        return 0.0
    n_bucket = pop_ratio * m_bucket
    val = m_bucket * q_sumsq - q_sum * q_sum
    return max(0.0, (n_bucket * n_bucket) / (m_bucket ** 3) * val)


def _ref_count_query_variance(pop_ratio, m_bucket):
    if m_bucket <= 1:
        return 0.0
    c = m_bucket // 2
    n_bucket = pop_ratio * m_bucket
    val = m_bucket * c - c * c
    return (n_bucket * n_bucket) / (m_bucket ** 3) * val


class _RefPrefixStats:
    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        self.m = values.shape[0]
        self.p1 = np.concatenate([[0.0], np.cumsum(values)])
        self.p2 = np.concatenate([[0.0], np.cumsum(values * values)])

    def stats(self, i, j):
        return j - i, float(self.p1[j] - self.p1[i]), \
            float(self.p2[j] - self.p2[i])

    def max_var_sum(self, i, j, pop_ratio):
        m_b = j - i
        if m_b <= 1:
            return 0.0
        mid = i + m_b // 2
        best = 0.0
        for lo, hi in ((i, mid), (mid, j)):
            _, s, s2 = self.stats(lo, hi)
            best = max(best, _ref_sum_query_variance(pop_ratio, m_b, s, s2))
        return best

    def max_var_avg(self, i, j, window):
        m_b = j - i
        if m_b <= 1:
            return 0.0
        w = max(1, min(window, m_b))
        seg1 = self.p1[i + w:j + 1] - self.p1[i:j + 1 - w]
        seg2 = self.p2[i + w:j + 1] - self.p2[i:j + 1 - w]
        vals = m_b * seg2 - seg1 * seg1
        best = float(vals.max()) if vals.size else 0.0
        return max(0.0, best / (m_b * w * w))

    def max_var(self, i, j, agg, pop_ratio, window):
        if agg is AggFunc.COUNT:
            return _ref_count_query_variance(pop_ratio, j - i)
        if agg is AggFunc.SUM:
            return self.max_var_sum(i, j, pop_ratio)
        if agg is AggFunc.AVG:
            return self.max_var_avg(i, j, window)
        raise ValueError(f"no max-variance oracle for {agg}")


@dataclasses.dataclass
class _RefResult:
    boundaries: List[float]
    bucket_index_bounds: List[int]
    max_error: float
    tree: object


class _RefOneDimPartitioner:
    def __init__(self, agg=AggFunc.SUM, rho=2.0, delta=0.05):
        self.agg, self.rho, self.delta = agg, rho, delta

    def partition(self, keys, values, k, n_population=None, domain=None):
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        m = keys.shape[0]
        if m == 0:
            raise ValueError("cannot partition an empty sample")
        k = max(1, min(k, m))
        n_population = n_population if n_population is not None else m
        pop_ratio = n_population / m
        prefix = _RefPrefixStats(values)
        window = max(4, int(self.delta * m))

        def bucket_error(i, j):
            var = prefix.max_var(i, j, self.agg, pop_ratio, window)
            return math.sqrt(max(var, 0.0))

        hi_err = bucket_error(0, m)
        if hi_err <= 0.0:
            bounds = self._equal_count_bounds(m, k)
        else:
            bounds = self._search_ladder(m, k, hi_err, bucket_error)
        cuts = self._cuts_from_bounds(keys, bounds)
        max_err = max((bucket_error(bounds[i], bounds[i + 1])
                       for i in range(len(bounds) - 1)), default=0.0)
        lo_d, hi_d = (domain if domain is not None
                      else (float(keys[0]), float(keys[-1])))
        tree = tree_from_intervals(cuts, Rectangle((lo_d,), (hi_d,)))
        return _RefResult(cuts, bounds, max_err, tree)

    def _search_ladder(self, m, k, hi_err, bucket_error):
        t_hi = math.ceil(math.log(hi_err, self.rho))
        t_lo = t_hi - 64
        best_bounds = None
        lo, hi = t_lo, t_hi
        while lo <= hi:
            mid = (lo + hi) // 2
            e = self.rho ** mid
            bounds = self._feasible(m, k, e, bucket_error)
            if bounds is not None:
                best_bounds = bounds
                hi = mid - 1
            else:
                lo = mid + 1
        if best_bounds is None:
            best_bounds = self._feasible(m, k, self.rho ** (t_hi + 1),
                                         bucket_error)
        if best_bounds is None:
            best_bounds = self._equal_count_bounds(m, k)
        return best_bounds

    @staticmethod
    def _equal_count_bounds(m, k):
        return [round(i * m / k) for i in range(k + 1)]

    def _feasible(self, m, k, e, bucket_error):
        bounds = [0]
        start = 0
        for _ in range(k):
            if start >= m:
                break
            lo, hi = start + 1, m
            best = start + 1
            while lo <= hi:
                mid = (lo + hi) // 2
                if bucket_error(start, mid) <= e:
                    best = mid
                    lo = mid + 1
                else:
                    hi = mid - 1
            bounds.append(best)
            start = best
        if bounds[-1] < m:
            return None
        while len(bounds) - 1 < k:
            sizes = [bounds[i + 1] - bounds[i]
                     for i in range(len(bounds) - 1)]
            widest = int(np.argmax(sizes))
            if sizes[widest] < 2:
                break
            mid = bounds[widest] + sizes[widest] // 2
            bounds.insert(widest + 1, mid)
        return bounds

    @staticmethod
    def _cuts_from_bounds(keys, bounds):
        cuts = [float(keys[b - 1]) for b in bounds[1:-1]]
        out: List[float] = []
        for c in cuts:
            if not out or c > out[-1]:
                out.append(c)
        return out


class _RefTrigger(RepartitionTrigger):
    """No memo: every ``M_i'`` is a fresh oracle call."""

    def leaf_variance(self, leaf):
        return self.oracle.max_variance(leaf.rect).variance


class _RefEngine(JanusAQP):
    """JanusAQP with the candidate evaluation frozen at 885f11a."""

    def _install_support_structures(self):
        super()._install_support_structures()
        self.trigger.__class__ = _RefTrigger

    def _compute_partitioning(self):
        if len(self.predicate_attrs) != 1:
            return super()._compute_partitioning()    # k-d: untouched
        coords, values, tids = self.sample_index.all_items()
        if coords.shape[0] == 0:
            raise RuntimeError("cannot partition: empty sample pool")
        order = np.argsort(tids, kind="stable")
        return _RefOneDimPartitioner(
            self.config.focus_agg, delta=self.config.delta).partition(
                coords[order, 0], values[order], self.config.k,
                n_population=max(len(self.table), 1),
                domain=self.table.domain(self.predicate_attrs[0])).tree

    def _after_update(self, leaf_counts):
        if self.trigger is None:
            return
        action = self.trigger.on_update_batch(self.dpt, leaf_counts)
        if action is TriggerAction.NONE:
            return
        if action is TriggerAction.FORCED:
            self.reoptimize()
            return
        if not self.config.auto_repartition:
            return
        old_m = self.trigger.current_max_variance(self.dpt)
        try:
            spec = self._compute_partitioning()
        except (RuntimeError, ValueError):
            return
        new_dpt = DynamicPartitionTree(
            spec, self.table.schema, self.predicate_attrs,
            stat_attrs=self.stat_attrs)
        new_m = max((self.trigger.oracle.max_variance(leaf.rect).variance
                     for leaf in new_dpt.leaves), default=0.0)
        if self.trigger.confirm(new_m, old_m):
            self.reoptimize()


# ---------------------------------------------------------------------- #
# the replay
# ---------------------------------------------------------------------- #
N_BATCHES = 220
BATCH = 72
N_SEED = 6000
DS = nyc_taxi(n=N_SEED + N_BATCHES * BATCH, seed=0)


class _Recorder:
    """Logs what the trigger returned and the M(R) it was given."""

    def __init__(self, engine):
        self.action: Optional[str] = None
        self.old_m: Optional[float] = None
        trigger = engine.trigger
        on_update_batch = trigger.on_update_batch
        current_max_variance = trigger.current_max_variance

        def logged_update(dpt, leaf_counts):
            act = on_update_batch(dpt, leaf_counts)
            self.action = act.value
            return act

        def logged_max(dpt):
            self.old_m = current_max_variance(dpt)
            return self.old_m

        trigger.on_update_batch = logged_update
        trigger.current_max_variance = logged_max


def _drive(cls, pred_attrs, agg, k):
    """One engine through the scripted trace; returns (transcript,
    probe answers, resample count)."""
    table = Table(DS.schema)
    table.insert_many(DS.data[:N_SEED])
    engine = cls(table, "fare", pred_attrs, config=JanusConfig(
        k=k, sample_rate=0.03, focus_agg=agg, seed=3))
    engine.initialize()
    trigger = engine.trigger
    rec = _Recorder(engine)
    rng = np.random.default_rng(11)
    pred_idx = [DS.schema.index(a) for a in pred_attrs]
    transcript = []
    live = list(range(N_SEED))
    target0 = engine.reservoir.target_size
    for b in range(N_BATCHES):
        rec.action = rec.old_m = None
        before = engine.n_repartitions
        if b % 5 == 4:                               # a delete batch
            picks = rng.choice(len(live), size=BATCH // 2, replace=False)
            gone = [live[i] for i in picks]
            for i in sorted(picks.tolist(), reverse=True):
                live[i] = live[-1]
                live.pop()
            engine.delete_many(gone)
        else:
            lo = N_SEED + b * BATCH
            rows = DS.data[lo:lo + BATCH].copy()
            if b % 7 == 3:       # keys far outside the build-time domain
                rows[:4, pred_idx] = -1e4 - b
                rows[4:8, pred_idx] = 1e6 + b
            if b % 9 == 2:       # duplicate keys exactly on a leaf cut
                edge = next(leaf.rect.hi for leaf in engine.dpt.leaves
                            if all(math.isfinite(h) for h in leaf.rect.hi))
                rows[8:14, pred_idx] = edge
            if b >= 120:         # drift: a hot region of large fares
                rows[20:60, pred_idx] = rows[20:60, pred_idx] % 7 + 300
                rows[20:60, DS.schema.index("fare")] += 3000.0
            live.extend(engine.insert_many(rows))
        if b == 60:
            partial_repartition(engine, engine.dpt.leaves[3], psi=2)
        transcript.append((b, rec.action, rec.old_m,
                           engine.n_repartitions - before))
    assert engine.trigger is trigger        # one trigger per engine life
    rect_rng = np.random.default_rng(5)
    lo_d = [table.domain(a)[0] for a in pred_attrs]
    hi_d = [table.domain(a)[1] for a in pred_attrs]
    queries = []
    for i in range(128):
        a = rect_rng.uniform(0, 700, len(pred_attrs))
        w = rect_rng.uniform(5, 400, len(pred_attrs))
        if i % 16 == 0:
            a, w = np.array(lo_d), np.array(hi_d) - np.array(lo_d)
        queries.append(Query(
            (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
             AggFunc.MAX)[i % 5], "fare", pred_attrs,
            Rectangle(tuple(a), tuple(a + w))))
    answers = [repr(dataclasses.astuple(r))
               for r in engine.query_many(queries)]
    grew = engine.reservoir.target_size > target0
    return transcript, answers, grew


@pytest.mark.parametrize("pred_attrs,agg,k", [
    (("pickup_time",), AggFunc.SUM, 48),
    (("pickup_time",), AggFunc.AVG, 48),
    (("pickup_time", "trip_distance"), AggFunc.SUM, 32),
], ids=["1d-sum", "1d-avg", "2d-sum"])
def test_decisions_and_answers_replay(pred_attrs, agg, k):
    ref_transcript, ref_answers, ref_grew = _drive(_RefEngine, pred_attrs,
                                                   agg, k)
    transcript, answers, grew = _drive(JanusAQP, pred_attrs, agg, k)
    # the trace exercised what it claims to
    actions = [t[1] for t in ref_transcript]
    assert actions.count("candidate") >= 10
    commits = sum(t[3] for t in ref_transcript)
    assert 1 <= commits < actions.count("candidate")
    assert ref_grew and grew          # _maybe_grow_pool resampled
    assert transcript == ref_transcript
    assert answers == ref_answers


# ---------------------------------------------------------------------- #
# partition() against the reference, bit for bit
# ---------------------------------------------------------------------- #
def _shaped_values(flavour, m, rng):
    """``m`` values of one stress shape (seeded: hypothesis only draws
    the shape, the size and the seed)."""
    if flavour == "ties":
        return rng.choice([0.0, 1.0, 7.5, -3.0], m)
    if flavour == "heavy":
        return rng.pareto(0.7, m) * rng.choice([-1.0, 1.0], m)
    values = rng.lognormal(0.0, 2.0, m)
    if flavour in ("1e150", "1e200"):       # squares near / past overflow
        values[rng.integers(0, m, max(1, m // 8))] *= float(flavour)
    elif flavour in ("inf", "nan"):
        values[rng.integers(0, m, 2)] = float(flavour)
        values[rng.integers(0, m)] = -float(flavour)
    return values


FLAVOURS = ["plain", "ties", "heavy", "1e150", "1e200", "inf", "nan"]


@st.composite
def samples(draw):
    if draw(st.booleans()):
        m = draw(st.integers(1, 120))
        # few distinct keys -> many ties, some of them on bucket edges
        keys = draw(st.lists(st.integers(0, 25), min_size=m, max_size=m))
        values = np.array(draw(st.lists(
            st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                      st.sampled_from([0.0, 1.0, 7.5])),
            min_size=m, max_size=m)))
    else:       # large and ill-conditioned: bisection depths >= 9
        m = draw(st.one_of(st.integers(121, 700), st.integers(512, 700)))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        keys = rng.integers(0, draw(st.sampled_from([25, 10 * m])), m)
        values = _shaped_values(draw(st.sampled_from(FLAVOURS)), m, rng)
    k = draw(st.integers(1, 20))
    agg = draw(st.sampled_from([AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG]))
    n_pop = draw(st.one_of(st.none(), st.integers(m, 50 * m)))
    domain = draw(st.sampled_from([None, (-5.0, 30.0)]))
    return np.array(keys, dtype=np.float64), values, k, agg, n_pop, domain


def _rects(tree):
    return [(n.rect.lo, n.rect.hi, len(n.children)) for n in tree.walk()]


def _partition_or_error(partitioner, *args):
    """The result, or the type of what an infinite one-bucket error makes
    ``math.ceil(math.log(...))`` raise."""
    try:
        with np.errstate(all="ignore"):
            return partitioner.partition(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(samples())
def test_partition_matches_reference(sample):
    keys, values, k, agg, n_pop, domain = sample
    ref = _partition_or_error(_RefOneDimPartitioner(agg), keys, values, k,
                              n_pop, domain)
    got = _partition_or_error(OneDimPartitioner(agg), keys, values, k,
                              n_pop, domain)
    if isinstance(ref, type) or isinstance(got, type):
        assert got is ref
        return
    assert got.bucket_index_bounds == ref.bucket_index_bounds
    assert got.boundaries == ref.boundaries
    assert repr(got.max_error) == repr(ref.max_error)
    assert _rects(got.tree) == _rects(ref.tree)
    # the commit test's view: the tree's leaves, in some order
    leaves = [n.rect for n in got.tree.leaves()]
    assert sorted(got.leaf_rects(), key=lambda r: r.lo) == leaves


# ---------------------------------------------------------------------- #
# the fail-path table against the scalar kernel, entry for entry
# ---------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 1500), seed=st.integers(0, 2 ** 16),
       flavour=st.sampled_from(FLAVOURS),
       pop_ratio=st.sampled_from([1.0, 3.7, 1e6]))
def test_fail_table_equals_scalar_kernel(m, seed, flavour, pop_ratio):
    values = _shaped_values(flavour, m, np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        prefix = PrefixStats(values)
        table = OneDimPartitioner(AggFunc.SUM)._fail_table(prefix,
                                                           pop_ratio)
    assert table.shape[1] == m and not np.isnan(table).any()
    for start in range(m):
        hi = m                  # the bisection of _feasible, all failures
        for depth in range(table.shape[0]):
            j = (start + 1 + hi) // 2
            scalar = math.sqrt(max(
                prefix.max_var_sum(start, j, pop_ratio), 0.0))
            assert repr(float(table[depth, start])) == repr(scalar), \
                (start, j)
            hi = j - 1
    assert (table[-1] == 0.0).all()     # every column ends in a success
    for agg in (AggFunc.AVG, AggFunc.COUNT):    # no vector kernel
        assert OneDimPartitioner(agg)._fail_table(prefix, 1.0) is None


# ---------------------------------------------------------------------- #
# count guard: what one rejected candidate costs, against the reference
# ---------------------------------------------------------------------- #
def test_candidate_costs_a_quarter_of_the_reference(monkeypatch):
    table = Table(DS.schema)
    table.insert_many(DS.data[:N_SEED])
    engine = JanusAQP(table, "fare", ("pickup_time",), config=JanusConfig(
        k=48, sample_rate=0.03, seed=3))
    engine.initialize()
    for b in range(120, 160):               # the replay's drift batches
        rows = DS.data[N_SEED + b * BATCH:N_SEED + (b + 1) * BATCH].copy()
        rows[20:60, 0] = rows[20:60, 0] % 7 + 300
        rows[20:60, DS.schema.index("fare")] += 3000.0
        engine.insert_many(rows)
    assert engine.n_repartitions >= 1       # the next candidate is a reject
    coords, values, tids, k, rect, n_pop, _ = engine._snapshot(None, False)
    order = np.argsort(tids, kind="stable")
    args = (coords[order, 0], values[order], k, n_pop,
            (rect.lo[0], rect.hi[0]))

    calls = {"ref": 0, "live": 0, "oracle": 0}
    ref_max_var = _RefPrefixStats.max_var
    monkeypatch.setattr(
        _RefPrefixStats, "max_var", lambda *a: (
            calls.__setitem__("ref", calls["ref"] + 1), ref_max_var(*a))[1])
    search_ladder = OneDimPartitioner._search_ladder

    def counted_ladder(self, m, k, hi_err, bucket_error, fails):
        def counted(i, j):
            calls["live"] += 1
            return bucket_error(i, j)
        return search_ladder(self, m, k, hi_err, counted, fails)
    monkeypatch.setattr(OneDimPartitioner, "_search_ladder", counted_ladder)

    ref = _RefOneDimPartitioner(AggFunc.SUM).partition(*args)
    got = OneDimPartitioner(AggFunc.SUM).partition(*args)
    assert got.bucket_index_bounds == ref.bucket_index_bounds
    outside_ladder = len(got.bucket_index_bounds)    # hi_err + one / bucket
    assert calls["ref"] > 1000
    assert calls["live"] + outside_ladder <= 0.25 * calls["ref"]

    trigger = engine.trigger
    max_variance = trigger.oracle.max_variance

    def counted_max_variance(r):
        calls["oracle"] += 1
        return max_variance(r)
    trigger.oracle.max_variance = counted_max_variance
    old_m = trigger.current_max_variance(engine.dpt)
    visited = {}
    for name, rects in (("ref", [n.rect for n in ref.tree.leaves()]),
                        ("live", got.leaf_rects())):
        calls["oracle"] = 0
        assert not trigger.confirm_rects(
            (inflate_rect(r, rect) for r in rects), old_m)
        visited[name] = calls["oracle"]
    assert 1 <= visited["live"] <= visited["ref"]
