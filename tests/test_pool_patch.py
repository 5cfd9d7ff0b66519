"""The pool's work follows its change: patched views, row-by-row filing.

A 1-D :class:`~repro.sampling.pool.SamplePool` patches each view's
key-ordered arrays from the last view's (less the members that left,
plus those that joined), and files or evicts a change of fewer than
``_FEW`` rows one row at a time.  Neither may show: through insert and
delete batches, a growth resample, a redraw, a reroute (what a partial
re-partition does to the pool), a partial reroute and a restore, over
keys drawn with NaNs, ties, ``-0.0`` beside ``0.0`` and ``±inf``,

* every view's ``key_order`` equals, bit for bit, a fresh index's over
  the same members, and lists them like the reservoir lists them;
* a twin pool that files and evicts every change stratum by stratum
  holds the same blocks, row for row: rows, tids, stamps, stratum
  order, block capacities and location maps.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.sampling.pool as pool_module
from repro.core.table import Table
from repro.index.range_index import RangeIndex
from repro.sampling.pool import SamplePool

FILE, REMOVE_MANY = SamplePool._file, SamplePool._remove_many


def file_by_stratum(pool, *args):
    """``_file`` with every change taking the stratum-by-stratum path."""
    with mock.patch.object(pool_module, "_FEW", 0):
        return FILE(pool, *args)


def remove_by_stratum(pool, tids):
    """``_remove_many`` split by stratum even when the evictions are
    few: each stratum's swap-deleted in the order given, in key order
    (``_FEW`` also decides which strata are compacted instead)."""
    if tids.size >= pool_module._FEW:
        return REMOVE_MANY(pool, tids)
    keys = pool._loc_key[tids]
    for key in np.unique(keys):
        for tid in tids[keys == key].tolist():
            pool._remove(tid)


SPECIAL = (np.nan, -0.0, 0.0, np.inf, -np.inf, 1.0, 2.5)
KEYS = st.one_of(st.sampled_from(SPECIAL),
                 st.floats(-60, 60, allow_nan=False))


def route(width):
    """Rows -> stratum keys: buckets of ``width`` over the key, most of
    them empty (so small changes open new strata), NaN in bucket 0."""
    def keys(rows):
        x = np.nan_to_num(rows[:, 0], nan=-1e9, posinf=1e9, neginf=-1e9)
        return np.clip(np.floor(x / width), -64, 64).astype(np.int64) + 64
    return keys


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def check_view(pool, held):
    """The view equals a fresh one; ``held`` keeps it with a copy of its
    arrays, to show later versions never write them."""
    view = pool.index
    coords, values, tids = view.all_items()
    assert tids.tolist() == list(pool.reservoir)
    fresh = RangeIndex.of(coords.copy(), values.copy(), tids.copy())
    for got, want in zip(view.key_order(), fresh.key_order()):
        assert same_bits(got, want)
        assert not got.flags.writeable
    held.append((view.key_order(), [a.copy() for a in view.key_order()]))


def check_twins(pool, bulk):
    assert list(pool._size.items()) == list(bulk._size.items())
    for key, size in pool._size.items():
        assert pool._mat[key].shape == bulk._mat[key].shape
        assert same_bits(pool._mat[key][:size], bulk._mat[key][:size])
        assert same_bits(pool._tid_at[key][:size],
                         bulk._tid_at[key][:size])
    assert same_bits(pool._loc_key, bulk._loc_key)
    live = pool._loc_key >= 0
    assert same_bits(pool._loc_row[live], bulk._loc_row[live])
    assert same_bits(pool.rows(), bulk.rows())


OPS = st.lists(st.tuples(
    st.sampled_from(["insert"] * 5 + ["delete"] * 4 + [
        "grow", "redraw", "reroute", "partial", "restore"]),
    st.one_of(st.lists(KEYS, min_size=1, max_size=24),     # or one key
              KEYS.flatmap(lambda k: st.lists(st.just(k), min_size=2,
                                              max_size=7))),
    st.booleans()),
    min_size=1, max_size=20)


@settings(max_examples=60, deadline=None)
@given(seed_keys=st.lists(KEYS, min_size=60, max_size=90), ops=OPS,
       seed=st.integers(0, 2 ** 16))
def test_patched_views_and_row_filing_match_a_rebuild(seed_keys, ops, seed):
    rng = np.random.default_rng(seed)

    def rows_of(keys):
        return np.column_stack([keys, rng.normal(5, 2, len(keys)),
                                rng.uniform(0, 1, len(keys))])

    table = Table(("x", "a", "b"))
    table.insert_many(rows_of(seed_keys))
    pools = [SamplePool(table, 0.25, 8, seed=seed, index_on=([0], 1))
             for _ in range(2)]
    pool, bulk = pools

    def both(call, *args):
        """``call`` on the pool, then on the twin."""
        call(pool, *args)
        with mock.patch.object(SamplePool, "_file", file_by_stratum), \
                mock.patch.object(SamplePool, "_remove_many",
                                  remove_by_stratum):
            call(bulk, *args)

    width, held = 1.0, []
    both(SamplePool.initialize, route(width))
    check_view(pool, held)
    for op, keys, read in ops:
        if op == "insert":
            fresh = rows_of(keys)
            tids = table.insert_many(fresh)
            both(lambda p: p.insert_many(
                tids, route(width)(fresh) if read else None,
                fresh if read else None))
        elif op == "delete":
            # the members that joined last, some of them since the last
            # view, and rows at random
            live = table.live_tids()
            latest = list(pool.reservoir)[-len(keys) // 2:]
            rest = np.setdiff1d(live, latest)
            gone = latest[:live.size - 1] + rng.choice(
                rest, min(len(keys) // 2, rest.size - 1, live.size - 1 -
                          len(latest)), replace=False).tolist()
            table.delete_many(gone)
            both(lambda p: p.delete_many(gone))
        elif op == "grow":
            both(SamplePool.resample, route(width))
        elif op == "redraw":
            members = pool.reservoir.tids()
            gone = members[:max(len(members) - pool.reservoir.min_size + 1,
                                0)]
            table.delete_many(gone)
            both(lambda p: p.delete_many(gone))
        elif op in ("reroute", "partial"):
            # a partial re-partition re-files the pool under leaves that
            # changed in one part of the key range only
            width = 0.7 if width == 1.0 else 1.0
            whole = route(width)
            re = whole if op == "reroute" else \
                (lambda rows: np.where(rows[:, 0] > 0, whole(rows),
                                       route(1.0)(rows)))
            both(SamplePool.reroute, re)
        else:
            live = table.live_tids()
            kept = rng.choice(live, min(40, live.size),
                              replace=False).tolist()
            both(SamplePool.restore, kept, route(width))
        # Views are read after some steps only, so a patch may span
        # several changes; the twin's are read after every one.
        if read or op != "insert":
            check_view(pool, held)
        check_view(bulk, held)
        check_twins(pool, bulk)
    for arrays, copies in held:
        for arr, copy in zip(arrays, copies):
            assert same_bits(arr, copy)


def test_nan_joiners_fall_back_to_the_full_sort():
    """Two NaN keys join a NaN-free view in one log long enough (17+
    keys) that the unstable sort lists them out of tid order: the patch
    must not place them, the full sort must, so the view still lists
    the NaNs by tid."""
    table = Table(("x", "a"))
    table.insert_many(np.column_stack([np.arange(60.0), np.ones(60)]))
    pool = SamplePool(table, 0.25, 200, seed=0, index_on=([0], 1))
    pool.initialize(None)
    check_view(pool, [])
    keys = np.r_[np.nan, np.nan, np.arange(100.0, 118.0)]
    tids = table.insert_many(np.column_stack([keys, np.zeros(20)]))
    pool.insert_many(tids)
    assert len(pool) == 80
    check_view(pool, [])
    assert pool.view_builds["patched"].value == 1
