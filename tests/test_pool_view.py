"""The pool's range index is a read-only view of its one store.

A :class:`~repro.sampling.pool.SamplePool` keeps the pooled sample once,
in per-stratum row blocks; ``pool.index`` is a :class:`RangeIndex` it
builds from them the first time it is read after a change.  Through
engine churn - insert and delete batches, a growth resample, a redraw,
a partial re-partition (which re-files the pool) and a persist round
trip - every step checks that the view

* holds the members in the reservoir's join order, at the table's rows
  (after a load, join order is the saved slot order);
* reports a rectangle as the in-rect subsequence of that order;
* answers ``key_order`` / ``count`` / ``small_cells`` like an index
  loaded by one ``add_many`` over the same arrays;
* hands out read-only arrays;
* is built at most once per pool version.
"""

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.persist import load_synopsis, save_synopsis
from repro.core.queries import Rectangle
from repro.core.repartition import partial_repartition
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi
from repro.index.range_index import RangeIndex

DS = nyc_taxi(n=6_000, seed=3)
N_SEED = 1_500


def fresh_rows(n, at):
    """``n`` stream rows from row ``at`` on, wrapping round the set."""
    return DS.data[N_SEED + (at + np.arange(n)) % (DS.n - N_SEED)]


class Builds:
    """Records the pool version of every view :meth:`RangeIndex.of`
    builds while patched in."""

    def __init__(self):
        self.pool, self.versions = None, []
        self._of = RangeIndex.of.__func__

    def of(self, cls, *args):
        self.versions.append(self.pool.version)
        return self._of(cls, *args)

    def patched(self):
        builds = self
        return mock.patch.object(RangeIndex, "of", classmethod(
            lambda cls, *args: builds.of(cls, *args)))


def rects(engine, rng, n=6):
    coords = engine.sample_index.all_items()[0]
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    out = [Rectangle(tuple(lo), tuple(hi))]
    for _ in range(n):
        a, b = np.sort(rng.uniform(lo, hi, (2, lo.size)), axis=0)
        out.append(Rectangle(tuple(a), tuple(b)))
    return out


def check_view(engine, rng, slot_order=None):
    pool = engine.pool
    view = pool.index
    assert pool.index is view and engine.sample_index is view
    coords, values, tids = view.all_items()
    assert tids.tolist() == list(pool.reservoir)
    if slot_order is not None:
        assert tids.tolist() == slot_order
    rows = engine.table.rows_for(tids)
    assert np.array_equal(coords, rows[:, engine._pred_idx])
    assert np.array_equal(values, rows[:, engine._agg_idx])
    for arr in (coords, values, tids):
        assert not arr.flags.writeable
    twin = RangeIndex(coords.shape[1])
    twin.add_many(tids.copy(), coords.copy(), values.copy())
    for rect in rects(engine, rng):
        inside = rect.contains_points(coords)
        got = view.report(rect)
        for arr, want in zip(got, (coords, values, tids)):
            assert np.array_equal(arr, want[inside])
        assert view.count(rect) == twin.count(rect) == int(inside.sum())
        assert list(view.small_cells(rect, 24)) == \
            list(twin.small_cells(rect, 24))
    if coords.shape[1] == 1:
        for arr, want in zip(view.key_order(), twin.key_order()):
            assert np.array_equal(arr, want)


OPS = st.lists(st.sampled_from(["insert", "insert", "delete", "delete",
                                "grow", "redraw", "partial", "persist"]),
               min_size=1, max_size=10)


@settings(max_examples=25, deadline=None)
@given(ops=OPS, dim=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16))
def test_the_view_is_the_pool_in_join_order(ops, dim, seed):
    rng = np.random.default_rng(seed)
    preds = ("pickup_time", "trip_distance")[:dim]
    table = Table(DS.schema, capacity=DS.n + 16)
    table.insert_many(DS.data[:N_SEED])
    engine = JanusAQP(table, "fare", preds, config=JanusConfig(
        k=8, sample_rate=0.1, check_every=10 ** 9, seed=seed))
    builds = Builds()
    cursor = 0
    with builds.patched(), tempfile.TemporaryDirectory() as tmp:
        builds.pool = engine.pool
        engine.initialize()
        check_view(engine, rng)
        for op in ops:
            slot_order = None
            version, members = engine.pool.version, list(engine.reservoir)
            if op == "insert":
                engine.insert_many(fresh_rows(60, cursor))
                cursor += 60
            elif op == "delete":
                live = table.live_tids()
                engine.delete_many(rng.choice(live, 40, replace=False))
            elif op == "grow":              # past the 25% hysteresis
                target = engine.reservoir.target_size
                n = int(1.25 * target / 0.2) + 10 - len(table)
                engine.insert_many(fresh_rows(n, cursor))
                cursor += n
                assert engine.reservoir.target_size > target
            elif op == "redraw":            # fewer than m members left
                res = engine.reservoir
                engine.delete_many(res.tids()[:len(res) - res.min_size + 1])
                assert engine.pool.version == version + 1
            elif op == "partial":
                view = engine.sample_index
                partial_repartition(
                    engine, engine.dpt.leaves[int(rng.integers(
                        engine.dpt.k))], psi=1)
                assert engine.sample_index is view  # re-filed, same set
            else:
                path = os.path.join(tmp, "synopsis.npz")
                slot_order = engine.reservoir.tids()
                save_synopsis(engine, path)
                engine = load_synopsis(path, table)
                builds.pool, builds.versions = engine.pool, []
            if op in ("insert", "delete", "grow", "redraw"):
                assert (engine.pool.version > version) == \
                    (list(engine.reservoir) != members)
            check_view(engine, rng, slot_order)
            assert len(builds.versions) == len(set(builds.versions))
