"""The 1-D key-ordered pool view (``RangeIndex.key_order`` / ``key_range``).

In 1-D the SUM and COUNT oracles, and the partitioner's input, read a
slice of the live points in ``(key, tid)`` order instead of masking the
whole pool and sorting what falls inside.  The contract is bit identity
with the mask-and-sort computation they replaced, which stays in the
package as the d >= 2 path (``report`` + ``_max_var_rows``) and is
driven here beside the view: churned point sets with duplicate keys
(the tid breaks the tie), NaN and infinite keys, and rectangles with
infinite edges and the both-infinite root.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Rectangle
from repro.core.table import Table
from repro.index.range_index import RangeIndex
from repro.partitioning.maxvar import (MaxVarOracle, MaxVarResult,
                                       count_query_variance)
from repro.partitioning.onedim import OneDimPartitioner

INF = math.inf
#: Pool keys: few enough to repeat, with signed zeros, +-inf and NaN.
KEYS = [-INF, -3.0, -0.0, 0.0, 1.0, math.nextafter(1.0, INF), 2.5, 7.0,
        INF, math.nan]
#: Rectangle edges (a rectangle is any ordered pair of them).
EDGES = [-INF, -3.0, -0.0, 0.0, 1.0, 2.5, 7.0, INF]


def mask_and_sort(oracle: MaxVarOracle, rect: Rectangle) -> MaxVarResult:
    """``M(rect)`` the way the 1-D oracle computed it before the view:
    a masked scan of the store, then the tid and by-key argsorts."""
    if oracle.agg is AggFunc.COUNT:
        return MaxVarResult(count_query_variance(
            oracle.pop_ratio, oracle.index.count(rect)), witness=rect)
    return oracle._max_var_rows(rect, *oracle.index.report(rect))


def rects():
    out = [Rectangle((a,), (b,)) for i, a in enumerate(EDGES)
           for b in EDGES[i:]]
    return out + [Rectangle((math.nan,), (1.0,)),
                  Rectangle((-INF,), (math.nan,))]


def assert_view_is_the_mask(index: RangeIndex) -> None:
    for agg in (AggFunc.SUM, AggFunc.COUNT):
        oracle = MaxVarOracle(index, agg, pop_ratio=37.5)
        for rect in rects():
            assert repr(oracle.max_variance(rect)) == \
                repr(mask_and_sort(oracle, rect)), (agg, rect)
    keys, values, tids = index.key_order()
    for rect in rects():
        got = index.key_range(rect)
        coords, want_values, want_tids = index.report(rect)
        order = np.lexsort((want_tids, coords[:, 0]))
        assert np.array_equal(got[2], want_tids[order])
        assert np.array_equal(got[1], want_values[order])


OPS = st.lists(st.tuples(st.sampled_from(["add", "add", "spread",
                                          "delete"]),
                         st.integers(1, 60), st.integers(0, 2 ** 31 - 1)),
               min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_the_oracle_reads_the_view_like_the_mask(ops):
    live, next_tid = {}, 0                  # tid -> (key, value)
    for kind, n, seed in ops:
        rng = np.random.default_rng(seed)
        if kind != "delete":
            # "spread" keys are distinct (the view's sort needs no
            # second key)
            keys = rng.choice(KEYS, n) if kind == "add" else \
                rng.uniform(-10.0, 10.0, n)
            values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
            values[rng.random(n) < 0.3] = 1.0
            live.update(zip(range(next_tid, next_tid + n), zip(keys, values)))
            next_tid += n
        elif live:
            for tid in rng.choice(list(live), min(n, len(live)),
                                  replace=False).tolist():
                del live[tid]
        # tids loaded out of order, so a tie left to load order would
        # differ from one broken by tid
        tids = rng.permutation(list(live)).astype(np.int64)
        index = RangeIndex(1)
        index.add_many(tids, [live[t][0] for t in tids.tolist()],
                       [live[t][1] for t in tids.tolist()])
        assert_view_is_the_mask(index)


def test_distinct_keys_and_one_nan_are_ordered_by_key():
    rng = np.random.default_rng(9)
    keys = np.append(rng.uniform(-5.0, 5.0, 300), [math.nan, -INF, INF])
    index = RangeIndex(1)
    index.add_many(rng.permutation(303), keys, rng.normal(size=303))
    got = index.key_order()[0]
    assert np.array_equal(got, np.sort(keys), equal_nan=True)
    assert_view_is_the_mask(index)


def test_duplicate_keys_are_ordered_by_tid():
    """Equal keys stored in reverse tid order: the split point, and so
    the witness half, depends on the tie-break."""
    index = RangeIndex(1)
    index.add_many([4, 3, 2, 1, 0], [5.0] * 5, [1.0, 2.0, 3.0, 4.0, 9.0])
    keys, values, tids = index.key_order()
    assert tids.tolist() == [0, 1, 2, 3, 4]
    assert values.tolist() == [9.0, 4.0, 3.0, 2.0, 1.0]
    assert_view_is_the_mask(index)
    # NaN keys tie with each other, -0.0 with 0.0
    index.add_many([9, 8, 7, 6], [math.nan, math.nan, 0.0, -0.0],
                   [1.0, 2.0, 3.0, 4.0])
    assert index.key_order()[2].tolist() == [6, 7, 0, 1, 2, 3, 4, 8, 9]
    assert_view_is_the_mask(index)


def test_the_view_is_built_once_per_version_and_never_written():
    index = RangeIndex(1)
    index.add_many([0, 1, 2], [3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    view = index.key_order()
    kept = [a.copy() for a in view]
    assert index.key_order() is view
    index.add_many([3], [0.5], [4.0])
    assert index.key_order() is not view
    assert all(np.array_equal(a, b) for a, b in zip(view, kept))
    assert index.key_order()[2].tolist() == [3, 1, 2, 0]
    # the engine's: one index, sorted once, per pool version
    janus = churned_engine(0, n=600)
    index = janus.sample_index
    view = index.key_order()
    kept = [a.copy() for a in view]
    assert janus.sample_index is index and index.key_order() is view
    version = janus.pool.version
    janus.delete_many(janus.reservoir.tids()[:3])
    assert janus.pool.version == version + 1
    assert janus.sample_index is not index
    assert all(np.array_equal(a, b) for a, b in zip(view, kept))


# ---------------------------------------------------------------------- #
# the partitioner's input: one slice of the view
# ---------------------------------------------------------------------- #
def churned_engine(seed, n=6000):
    """A 1-D SUM engine over rounded keys (many ties) whose pool saw
    many small writes."""
    rng = np.random.default_rng(seed)
    data = np.column_stack([rng.lognormal(1, 1, n),
                            np.round(rng.uniform(0, 100, n))])
    table = Table(["a", "x"], capacity=n + 16)
    table.insert_many(data[:n // 2])
    janus = JanusAQP(table, "a", ["x"], config=JanusConfig(
        k=16, sample_rate=0.1, catchup_rate=0.05, check_every=10 ** 9,
        seed=seed))
    janus.initialize()
    for at in range(n // 2, n, 60):
        janus.insert_many(data[at:at + 60])
        janus.delete_many(rng.choice(table.live_tids(), 25,
                                     replace=False).tolist())
    return janus


def mask_and_sort_partition(janus):
    """The 1-D partitioning the engine built before the view: the pool
    items inside the root rectangle, by tid, then by key."""
    coords, values, tids = janus.sample_index.all_items()
    rect = janus._snapshot(None, False)[4]
    inside = np.flatnonzero(rect.contains_points(coords))
    order = inside[np.argsort(tids[inside], kind="stable")]
    return OneDimPartitioner(AggFunc.SUM, delta=janus.config.delta).partition(
        coords[order, 0], values[order], janus.config.k,
        n_population=len(janus.table), domain=(rect.lo[0], rect.hi[0]))


@pytest.mark.parametrize("seed", [0, 1])
def test_reoptimize_twins_build_the_mask_and_sort_tree(seed):
    locked, unlocked = churned_engine(seed), churned_engine(seed)
    want = mask_and_sort_partition(locked)
    got = locked._partition(*locked._snapshot(None, False))
    assert got.bucket_index_bounds == want.bucket_index_bounds
    assert got.boundaries == want.boundaries
    locked.reoptimize()
    thread = unlocked.reoptimize_async()
    thread.join(timeout=60)
    assert not thread.is_alive()

    def tree_signature(janus):
        dpt = janus.dpt
        return [(node.rect, len(dpt.children(node)))
                for node in dpt.nodes()]

    assert tree_signature(locked) == tree_signature(unlocked)
