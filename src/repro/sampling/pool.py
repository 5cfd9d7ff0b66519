"""The pooled sample S, stored once (paper Sections 4.2 and 5.5).

"Instead of implementing physical strata for the stratified sampling, we
implement large enough virtual partitions of a single global sample",
and the multi-template section says to "store S only once in a dynamic
range tree".  :class:`SamplePool` is that one store.  It owns

* the membership policy - a :class:`~repro.sampling.reservoir.
  DynamicReservoir`, and the rule that sizes it: the paper's standing
  ``2m = 2 * rate * |D|``, grown by resampling with a 25% hysteresis;
* the resident rows, each held exactly once, filed in one contiguous
  ``(m_i, n_schema)`` block per stratum (a DPT leaf, an equi-depth
  bucket, or a single stratum when nothing routes) - the blocks are what
  the query path reads, so there is no second copy to keep in step;
* optionally a :class:`~repro.index.range_index.RangeIndex` over the
  members' predicate coordinates, for the partitioner and the trigger.

Nothing subscribes to anything: every mutating call asks the reservoir
for its net membership change, applies it to rows, strata and index, and
returns what it did to the index so the caller can tell whoever caches
over it (:meth:`~repro.core.triggers.RepartitionTrigger.pool_changed`).

The pool has no lock of its own; ``_lock`` below is its owner's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.table import Table
from ..index.range_index import RangeIndex
from .reservoir import DynamicReservoir, PoolChange

#: Full-schema ``(n, n_schema)`` rows -> their ``(n,)`` integer stratum keys.
RouteRows = Callable[[np.ndarray], np.ndarray]

#: What one mutating call did to the index: one ``(n, d)`` block of
#: predicate coordinates per index mutation (points it removed, points it
#: added), or ``None`` for an index that was replaced by a redraw.
IndexReports = List[Optional[np.ndarray]]


class SamplePool:
    """A uniform pooled sample of a :class:`Table`, filed by stratum.

    Blocks grow by capacity doubling and a removal swaps the last row
    into the hole, so pool churn costs O(1) row copies.  Bookkeeping is
    array-native: per-stratum row-to-tid maps are int64 arrays grown
    beside the blocks, and the reverse tid location map is a pair of
    tid-indexed arrays (tids are dense table ids), so bulk compaction
    after an eviction sweep is pure fancy indexing.
    """

    def __init__(self, table: Table, sample_rate: float, min_pool: int = 128,
                 seed: int = 0,
                 index_on: Optional[Tuple[Sequence[int], int]] = None,
                 index_seed: int = 0) -> None:
        """``index_on = (predicate columns, value column)`` keeps a range
        index over the members; without it the pool holds rows only."""
        self.table = table
        self.sample_rate = sample_rate
        self.min_pool = min_pool
        self.reservoir = DynamicReservoir(table, self.target(), seed=seed)
        self._n_cols = len(table.schema)
        self._index_on = index_on
        self._index_seed = index_seed
        self.index = self._fresh_index()  # guarded-by: _lock
        self._route: Optional[RouteRows] = None  # guarded-by: _lock
        self._mat: Dict[int, np.ndarray] = {}  # guarded-by: _lock
        self._size: Dict[int, int] = {}  # guarded-by: _lock
        self._tid_at: Dict[int, np.ndarray] = {}  # guarded-by: _lock
        self._loc_key = np.full(64, -1, dtype=np.int64)  # guarded-by: _lock
        self._loc_row = np.zeros(64, dtype=np.int64)  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.reservoir)

    def __contains__(self, tid: int) -> bool:  # requires-lock: _lock
        t = int(tid)
        return 0 <= t < self._loc_key.shape[0] and self._loc_key[t] >= 0

    def matrix(self, key: int) -> np.ndarray:  # requires-lock: _lock
        """One stratum's resident rows as a contiguous view."""
        mat = self._mat.get(key)
        if mat is None:
            return np.empty((0, self._n_cols))
        return mat[:self._size[key]]

    def tids(self, key: int) -> List[int]:  # requires-lock: _lock
        """One stratum's members, in block row order."""
        tid_at = self._tid_at.get(key)
        if tid_at is None:
            return []
        return tid_at[:self._size[key]].tolist()

    def stratum_size(self, key: int) -> int:  # requires-lock: _lock
        return self._size.get(key, 0)

    def sizes(self) -> Dict[int, int]:  # requires-lock: _lock
        """Member count of every non-empty stratum."""
        return {key: n for key, n in self._size.items() if n}

    def row(self, tid: int) -> np.ndarray:  # requires-lock: _lock
        """A member's resident row (a view into its block)."""
        if tid not in self:
            raise KeyError(tid)
        return self._mat[int(self._loc_key[tid])][self._loc_row[tid]]

    def rows(self, tids: Optional[Sequence[int]] = None  # requires-lock: _lock
             ) -> np.ndarray:
        """Resident rows as one ``(n, n_schema)`` array: of ``tids`` in
        the order given, or of the whole pool stratum by stratum."""
        if tids is None:
            return np.concatenate([self.matrix(key) for key in self._mat]
                                  or [np.empty((0, self._n_cols))])
        tid_arr = np.asarray(tids, dtype=np.int64)
        out = np.empty((tid_arr.shape[0], self._n_cols))
        keys, at = self._loc_key[tid_arr], self._loc_row[tid_arr]
        for key in np.unique(keys):
            sel = keys == key
            out[sel] = self._mat[int(key)][at[sel]]
        return out

    def target(self) -> int:
        """The paper's standing pool size ``2m = 2 * rate * |D|``."""
        return max(self.min_pool,
                   int(2 * self.sample_rate * max(len(self.table), 1)))

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def initialize(self, route_rows: Optional[RouteRows] = None  # requires-lock: _lock
                   ) -> IndexReports:
        """Draw a fresh pool at the current target size, filed under
        ``route_rows`` (``None``: one stratum, key 0)."""
        self._route = route_rows
        return self._apply(self.reservoir.initialize())

    def resample(self, route_rows: Optional[RouteRows]) -> IndexReports:  # requires-lock: _lock
        """Re-size to :meth:`target` for the *current* data and redraw
        ("the system resamples a uniform sample of data from archival
        storage to be the new pooled reservoir sample")."""
        self._route = route_rows
        return self._apply(self.reservoir.set_target(self.target()))

    def restore(self, tids: Sequence[int],  # requires-lock: _lock
                route_rows: Optional[RouteRows]) -> IndexReports:
        """Adopt a snapshot's membership; rows come from the table."""
        self._route = route_rows
        return self._apply(self.reservoir.restore(tids))

    def reroute(self, route_rows: Optional[RouteRows]) -> None:  # requires-lock: _lock
        """Re-file the kept pool under a new routing (the tree changed
        below it).  Members are re-filed in the order they joined, so a
        block's row order does not depend on where its rows sat before.
        """
        tids = np.fromiter(self.reservoir, dtype=np.int64,
                           count=len(self.reservoir))
        rows = self.rows(tids)
        self._route = route_rows
        self._clear()
        self._file(tids, rows)

    def insert_many(self, tids: Sequence[int]) -> IndexReports:  # requires-lock: _lock
        """Account rows just inserted into the table, then let the pool
        track :meth:`target` as the table grows.

        Growth is applied by resampling (a grown target filled only by
        future arrivals would bias the pool), amortized by the 25%
        hysteresis so steady insertion costs O(1) per tuple.
        """
        reports = self._apply(self.reservoir.on_insert_many(tids))
        want = self.target()
        if want > 1.25 * self.reservoir.target_size:
            reports += self._apply(self.reservoir.set_target(want))
        return reports

    def delete_many(self, tids: Sequence[int]) -> IndexReports:  # requires-lock: _lock
        """Account rows just deleted from the table."""
        return self._apply(self.reservoir.on_delete_many(tids))

    # ------------------------------------------------------------------ #
    def _apply(self, change: PoolChange) -> IndexReports:  # requires-lock: _lock
        """Bring rows, strata and index in line with the reservoir."""
        reports: IndexReports = []
        if change.reset:
            # A fresh index (oracles hold the old one: ``None`` tells
            # the caller to re-point them), built below in one add_many.
            self._clear()
            self.index = self._fresh_index()
            reports.append(None)
        elif change.removed:
            if self.index is not None:
                gone = self._coords(self.rows(change.removed))
                if self.index.delete_many(change.removed):
                    reports.append(gone)
            self._remove_many(np.asarray(change.removed, dtype=np.int64))
        if change.added:
            tids = np.asarray(change.added, dtype=np.int64)
            rows = self.table.rows_for(tids)    # a gather: our own copy
            if self.index is not None:
                # One duplicate check, one array append and one rebuild
                # decision per block; a redraw therefore builds its
                # index with the vectorized builder.
                self.index.add_many(tids, self._coords(rows),
                                    rows[:, self._index_on[1]])
                if not change.reset:
                    reports.append(self._coords(rows))
            self._file(tids, rows)
        return reports

    def _coords(self, rows: np.ndarray) -> np.ndarray:
        """The indexed (predicate) columns of full-schema rows."""
        return rows[:, self._index_on[0]]

    def _fresh_index(self) -> Optional[RangeIndex]:
        if self._index_on is None:
            return None
        return RangeIndex(len(self._index_on[0]), seed=self._index_seed)

    def _clear(self) -> None:  # requires-lock: _lock
        """Drop every resident row (the index is not touched)."""
        self._mat, self._size, self._tid_at = {}, {}, {}
        # Fresh small location arrays instead of a fill(-1) memset:
        # capacity tracks the highest tid ever pooled, so on a
        # long-running stream the memset would scale with total inserts
        # while a reset pays one reallocation on the next add.
        self._loc_key = np.full(64, -1, dtype=np.int64)
        self._loc_row = np.zeros(64, dtype=np.int64)

    def _file(self, tids: np.ndarray, rows: np.ndarray) -> None:  # requires-lock: _lock
        """Route a row block once and append it to its strata."""
        if tids.size == 0:
            return
        if self._route is None:
            self._add_block(0, tids, rows)
            return
        keys = self._route(rows)
        for key in np.unique(keys):
            sel = np.flatnonzero(keys == key)
            self._add_block(int(key), tids[sel], rows[sel])

    def _add_block(self, key: int, tids: np.ndarray,  # requires-lock: _lock
                   rows: np.ndarray) -> None:
        n = tids.shape[0]
        mat = self._mat.get(key)
        size = self._size.get(key, 0)
        need = size + n
        if mat is None:
            cap = max(4, 2 * need)
            mat = self._mat[key] = np.empty((cap, self._n_cols))
            self._tid_at[key] = np.empty(cap, dtype=np.int64)
        elif need > mat.shape[0]:
            cap = max(2 * mat.shape[0], need)
            grown = np.empty((cap, self._n_cols))
            grown[:size] = mat[:size]
            mat = self._mat[key] = grown
            tids_grown = np.empty(cap, dtype=np.int64)
            tids_grown[:size] = self._tid_at[key][:size]
            self._tid_at[key] = tids_grown
        mat[size:need] = rows
        self._tid_at[key][size:need] = tids
        cap = self._loc_key.shape[0]
        top = int(tids.max())
        if top >= cap:
            loc_key = np.full(max(top + 1, 2 * cap), -1, dtype=np.int64)
            loc_key[:cap] = self._loc_key
            loc_row = np.zeros(loc_key.shape[0], dtype=np.int64)
            loc_row[:cap] = self._loc_row
            self._loc_key, self._loc_row = loc_key, loc_row
        self._loc_key[tids] = key
        self._loc_row[tids] = np.arange(size, need, dtype=np.int64)
        self._size[key] = need

    def _remove(self, tid: int) -> None:  # requires-lock: _lock
        key = int(self._loc_key[tid])
        row = int(self._loc_row[tid])
        self._loc_key[tid] = -1
        last = self._size[key] - 1
        mat = self._mat[key]
        tid_at = self._tid_at[key]
        if row != last:
            mat[row] = mat[last]
            moved = int(tid_at[last])
            tid_at[row] = moved
            self._loc_row[moved] = row
        self._size[key] = last

    def _remove_many(self, tids: np.ndarray) -> None:  # requires-lock: _lock
        """One pass per touched stratum: a few removals swap-delete in
        the order given; a sweep (a bulk delete's evictions) compacts
        the block and its row-to-tid map with single boolean-mask
        copies, then restores the reverse map with one vectorized
        ``_loc_row`` assignment over the survivors."""
        keys = self._loc_key[tids]
        for k in np.unique(keys):
            key = int(k)
            gone = tids[keys == k]
            if gone.size < 8:
                for tid in gone.tolist():
                    self._remove(tid)
                continue
            size = self._size[key]
            dead = np.zeros(size, dtype=bool)
            dead[self._loc_row[gone]] = True
            self._loc_key[gone] = -1
            keep = np.flatnonzero(~dead)
            mat = self._mat[key]
            mat[:keep.size] = mat[keep]
            tid_at = self._tid_at[key]
            kept = tid_at[keep]
            tid_at[:keep.size] = kept
            self._loc_row[kept] = np.arange(keep.size, dtype=np.int64)
            self._size[key] = int(keep.size)
