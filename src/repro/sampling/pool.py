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
* optionally a read-only :class:`~repro.index.range_index.RangeIndex`
  over the members, built when read (:attr:`SamplePool.index`) - in 1-D
  patched from the last one - for the partitioner and the oracle.

Nothing subscribes to anything: every mutating call asks the reservoir
for its net membership change, applies it to rows and strata, and
returns the strata it touched so the caller can tell whoever caches
over them (:meth:`~repro.core.triggers.RepartitionTrigger.pool_changed`).

The pool has no lock of its own; ``_lock`` below is its owner's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.table import Table
from ..index.range_index import RangeIndex, key_sort
from ..obs.metrics import Counter
from .reservoir import DynamicReservoir, PoolChange

#: Full-schema ``(n, n_schema)`` rows -> their ``(n,)`` integer stratum keys.
RouteRows = Callable[[np.ndarray], np.ndarray]

#: What one mutating call did: per change, the stratum key of each member
#: it removed or added, or ``None`` for a redraw (every member refiled).
StrataReports = List[Optional[np.ndarray]]

#: A change of fewer rows than this is filed or evicted row by row, a
#: larger one stratum by stratum; both leave the same blocks (a stratum
#: that loses ``_FEW`` rows or more is compacted, not swap-deleted).
_FEW = 8


class SamplePool:
    """A uniform pooled sample of a :class:`Table`, filed by stratum.

    Blocks grow by capacity doubling and a removal swaps the last row
    into the hole, so pool churn costs O(1) row copies.  Per-stratum
    row-to-tid maps are int64 arrays grown beside the blocks, and the
    reverse maps are tid-indexed arrays (tids are dense table ids), so
    bulk compaction after an eviction sweep is pure fancy indexing.
    """

    def __init__(self, table: Table, sample_rate: float, min_pool: int = 128,
                 seed: int = 0,
                 index_on: Optional[Tuple[Sequence[int], int]] = None,
                 view_builds: Optional[Dict[str, Counter]] = None) -> None:
        """``index_on = (predicate columns, value column)``: what
        :attr:`index` holds (without it the pool holds rows only);
        ``view_builds``: counters of its builds, by how they were made."""
        self.table = table
        self.sample_rate = sample_rate
        self.min_pool = min_pool
        self.reservoir = DynamicReservoir(table, self.target(), seed=seed)
        self._n_cols = len(table.schema)
        self._index_on = index_on
        #: Bumped once per membership change (and per report of one).
        self.version = 0  # guarded-by: _lock
        self._view: Tuple[int, Optional[RangeIndex]] = (-1, None)  # guarded-by: _lock
        self._route: Optional[RouteRows] = None  # guarded-by: _lock
        self._mat: Dict[int, np.ndarray] = {}  # guarded-by: _lock
        self._size: Dict[int, int] = {}  # guarded-by: _lock
        # Per stratum, each block row's (tid, filing stamp): members file
        # in the order they join, so the stamps order them that way.
        self._tid_at: Dict[int, np.ndarray] = {}  # guarded-by: _lock
        self._n_filed = 0  # guarded-by: _lock
        self._loc_key = np.full(64, -1, dtype=np.int64)  # guarded-by: _lock
        self._loc_row = np.zeros(64, dtype=np.int64)  # guarded-by: _lock
        # 1-D: the last view's key-ordered arrays (None: build anew) and
        # those of each batch filed since; see _key_ordered.
        self._keyed: Optional[Tuple[np.ndarray, ...]] = None  # guarded-by: _lock
        self._joined: List[Tuple[np.ndarray, ...]] = []  # guarded-by: _lock
        self._n_joined = 0  # guarded-by: _lock
        self.view_builds = view_builds or {
            how: Counter() for how in ("patched", "rebuilt")}

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
        return tid_at[:self._size[key], 0].tolist()

    def stratum_size(self, key: int) -> int:  # requires-lock: _lock
        return self._size.get(key, 0)

    def sizes(self) -> Dict[int, int]:  # requires-lock: _lock
        """Member count of every non-empty stratum."""
        return {key: n for key, n in self._size.items() if n}

    def rows(self, tids: Optional[Sequence[int]] = None  # requires-lock: _lock
             ) -> np.ndarray:
        """Resident rows as one ``(n, n_schema)`` array: of ``tids`` in
        the order given, or of the whole pool stratum by stratum."""
        if tids is None:
            return self._members()[2]
        tid_arr = np.asarray(tids, dtype=np.int64)
        out = np.empty((tid_arr.shape[0], self._n_cols))
        keys, at = self._loc_key[tid_arr], self._loc_row[tid_arr]
        for key in np.unique(keys):
            sel = keys == key
            out[sel] = self._mat[int(key)][at[sel]]
        return out

    def _members(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:  # requires-lock: _lock
        """Every member's tid, filing stamp and resident row, stratum
        by stratum."""
        blocks = [(self._tid_at[key][:n], self._mat[key][:n])
                  for key, n in self._size.items()]
        stamped = np.concatenate([np.empty((0, 2), dtype=np.int64)] +
                                 [tids for tids, _ in blocks])
        return stamped[:, 0], stamped[:, 1], np.concatenate(
            [np.empty((0, self._n_cols))] + [rows for _, rows in blocks])

    @property
    def index(self) -> Optional[RangeIndex]:  # requires-lock: _lock
        """The members' ``index_on`` columns as a read-only
        :class:`RangeIndex` listing them in the order they joined, built
        when first read after a change (one per :attr:`version`)."""
        if self._index_on is None or self._view[0] == self.version:
            return self._view[1]
        cols, value = self._index_on
        self.view_builds["rebuilt" if self._keyed is None else "patched"
                         ].inc()
        if len(cols) == 1:
            keys, values, tids, stamps = self._keyed = self._key_ordered()
            self._joined, self._n_joined = [], 0
            view = RangeIndex.of(keys[:, None], values, tids, stamps,
                                 (keys, values, tids))
        else:
            tids, stamps, rows = self._members()
            view = RangeIndex.of(rows[:, cols], rows[:, value].copy(),
                                 tids, stamps)
        self._view = (self.version, view)
        return view

    def _key_ordered(self) -> Tuple[np.ndarray, ...]:  # requires-lock: _lock
        """Every member's ``(key, value, tid, stamp)`` in ``(key, tid)``
        order, NaN keys last, as new arrays: the last view's less the
        members that left, with those that joined since (each tid once:
        a redraw drops the carried view) put in by binary search - or
        all sorted afresh when one is NaN or ties a key (-0.0 == 0.0)."""
        if self._keyed is None:
            tids, stamps, rows = self._members()
            cols, value = self._index_on
            every = [rows[:, cols[0]], rows[:, value], tids, stamps]
        else:
            old = self._live(self._keyed)
            if not self._joined:
                return tuple(old)
            new = self._live([np.concatenate(c) for c in zip(*self._joined)])
            order = new[0].argsort()
            new = [a[order] for a in new]
            keys = new[0]
            at = old[0].searchsorted(keys)
            if not (np.isnan(keys).any() or (keys[1:] == keys[:-1]).any()
                    or (old[0].searchsorted(keys, "right") != at).any()):
                at += np.arange(keys.size)      # new row i's final place
                slot = np.ones(keys.size + old[0].size, dtype=bool)
                slot[at] = False
                out = tuple(np.empty(slot.size, a.dtype) for a in old)
                for o, a, b in zip(out, old, new):
                    o[slot], o[at] = a, b
                return out
            every = [np.concatenate(pair) for pair in zip(old, new)]
        order = key_sort(every[0], every[2])
        return tuple(a[order] for a in every)

    def _live(self, cols: Sequence[np.ndarray]) -> List[np.ndarray]:  # requires-lock: _lock
        """``cols`` (the third: tids) less the rows of non-members."""
        kept = self._loc_key[cols[2]] >= 0
        return list(cols) if kept.all() else [a[kept] for a in cols]

    def target(self) -> int:
        """The paper's standing pool size ``2m = 2 * rate * |D|``."""
        return max(self.min_pool,
                   int(2 * self.sample_rate * max(len(self.table), 1)))

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def initialize(self, route_rows: Optional[RouteRows] = None  # requires-lock: _lock
                   ) -> StrataReports:
        """Draw a fresh pool at the current target size, filed under
        ``route_rows`` (``None``: one stratum, key 0)."""
        self._route = route_rows
        return self._apply(self.reservoir.initialize())

    def resample(self, route_rows: Optional[RouteRows]) -> StrataReports:  # requires-lock: _lock
        """Re-size to :meth:`target` for the *current* data and redraw
        ("the system resamples a uniform sample of data from archival
        storage to be the new pooled reservoir sample")."""
        self._route = route_rows
        return self._apply(self.reservoir.set_target(self.target()))

    def restore(self, tids: Sequence[int],  # requires-lock: _lock
                route_rows: Optional[RouteRows]) -> StrataReports:
        """Adopt a snapshot's membership; rows come from the table."""
        self._route = route_rows
        return self._apply(self.reservoir.restore(tids))

    def reroute(self, route_rows: Optional[RouteRows]) -> None:  # requires-lock: _lock
        """Re-file the kept pool under a new routing (the tree changed
        below it).  Members are re-filed in the order they joined, so a
        block's row order does not depend on where its rows sat before.
        """
        tids, stamps, rows = self._members()
        order = np.argsort(stamps)
        self._route = route_rows
        self._clear()
        self._file(tids[order], rows[order])

    def insert_many(self, tids: Sequence[int],  # requires-lock: _lock
                    keys: Optional[np.ndarray] = None,
                    rows: Optional[np.ndarray] = None) -> StrataReports:
        """Account rows just inserted into the table, then let the pool
        track :meth:`target` as the table grows.

        ``keys``, when given, are the stratum keys of ``tids``' rows, in
        the same order (``tids`` ascending, as the table assigns them):
        the caller's own descent already found them, so the accepted
        rows are filed under them instead of routed again; likewise
        ``rows``, the rows themselves, spare the table a gather.

        Growth is applied by resampling (a grown target filled only by
        future arrivals would bias the pool), amortized by the 25%
        hysteresis so steady insertion costs O(1) per tuple.
        """
        change = self.reservoir.on_insert_many(tids)
        if change.added and (keys is not None or rows is not None):
            at = np.searchsorted(np.asarray(tids), change.added)
            keys = None if keys is None else keys[at]
            rows = None if rows is None else rows[at]
        reports = self._apply(change, keys, rows)
        want = self.target()
        if want > 1.25 * self.reservoir.target_size:
            reports += self._apply(self.reservoir.set_target(want))
        return reports

    def delete_many(self, tids: Sequence[int]) -> StrataReports:  # requires-lock: _lock
        """Account rows just deleted from the table."""
        return self._apply(self.reservoir.on_delete_many(tids))

    # ------------------------------------------------------------------ #
    def _apply(self, change: PoolChange,  # requires-lock: _lock
               keys: Optional[np.ndarray] = None,
               rows: Optional[np.ndarray] = None) -> StrataReports:
        """Bring rows and strata in line with the reservoir (``keys`` /
        ``rows``: the added rows' stratum keys / rows, if at hand)."""
        if change.reset:
            self._clear()
        touched = []
        if change.removed:
            gone = np.asarray(change.removed, dtype=np.int64)
            touched.append(self._loc_key[gone])
            self._remove_many(gone)
        if change.added:
            tids = np.asarray(change.added, dtype=np.int64)
            if rows is None:
                rows = self.table.rows_for(tids)  # a gather: our own copy
            touched.append(self._file(tids, rows, keys))
        reports = [None] if change.reset else \
            [np.concatenate(touched)] if touched else []
        self.version += len(reports)
        return reports

    def _clear(self) -> None:  # requires-lock: _lock
        """Drop every resident row."""
        self._mat, self._size, self._tid_at = {}, {}, {}
        self._keyed = None      # the next view is built anew
        # Fresh small location arrays instead of a fill(-1) memset:
        # capacity tracks the highest tid ever pooled, so on a
        # long-running stream the memset would scale with total inserts
        # while a reset pays one reallocation on the next add.
        self._loc_key = np.full(64, -1, dtype=np.int64)
        self._loc_row = np.zeros(64, dtype=np.int64)

    def _file(self, tids: np.ndarray, rows: np.ndarray,  # requires-lock: _lock
              keys: Optional[np.ndarray] = None) -> np.ndarray:
        """Append a row block to its strata, routing it once unless its
        ``keys`` are given; returns the keys."""
        if tids.size == 0:
            return tids
        if self._route is None:
            keys = np.zeros(tids.shape[0], dtype=np.int64)
        elif keys is None:
            keys = self._route(rows)
        first, n = self._n_filed, tids.shape[0]
        self._n_filed += n
        stamps = first + np.arange(n)
        if self._keyed is not None:     # logged for the next view
            cols, value = self._index_on
            self._joined.append((rows[:, cols[0]], rows[:, value], tids,
                                 stamps))
            self._n_joined += n
            if self._n_joined > len(self):      # cheaper built anew
                self._keyed = None
        cap, top = self._loc_key.shape[0], int(tids.max())
        if top >= cap:
            loc_key = np.full(max(top + 1, 2 * cap), -1, dtype=np.int64)
            loc_key[:cap] = self._loc_key
            loc_row = np.zeros(loc_key.shape[0], dtype=np.int64)
            loc_row[:cap] = self._loc_row
            self._loc_key, self._loc_row = loc_key, loc_row
        if n >= _FEW:
            for k in np.unique(keys):
                key, sel = int(k), np.flatnonzero(keys == k)
                size = self._size.get(key, 0)
                need = size + sel.size
                self._reserve(key, need)
                self._mat[key][size:need] = rows[sel]
                self._tid_at[key][size:need, 0] = tids[sel]
                self._tid_at[key][size:need, 1] = stamps[sel]
                self._loc_key[tids[sel]] = key
                self._loc_row[tids[sel]] = np.arange(size, need)
                self._size[key] = need
            return keys
        # A few rows: one at a time, into blocks reserved as the bulk
        # path would (new strata created in key order, same capacities).
        key_list = keys.tolist()
        for key in sorted(set(key_list)):
            self._reserve(key, self._size.get(key, 0) + key_list.count(key))
        for i, (key, tid) in enumerate(zip(key_list, tids.tolist())):
            row = self._size[key]
            self._mat[key][row] = rows[i]
            self._tid_at[key][row] = (tid, first + i)
            self._loc_key[tid], self._loc_row[tid] = key, row
            self._size[key] = row + 1
        return keys

    def _reserve(self, key: int, need: int) -> None:  # requires-lock: _lock
        """Make stratum ``key``'s block hold ``need`` rows."""
        mat, size = self._mat.get(key), self._size.setdefault(key, 0)
        if mat is None:
            cap = max(4, 2 * need)
            self._mat[key] = np.empty((cap, self._n_cols))
            self._tid_at[key] = np.empty((cap, 2), dtype=np.int64)
        elif need > mat.shape[0]:
            cap = max(2 * mat.shape[0], need)
            grown = np.empty((cap, self._n_cols))
            grown[:size] = mat[:size]
            self._mat[key] = grown
            tids_grown = np.empty((cap, 2), dtype=np.int64)
            tids_grown[:size] = self._tid_at[key][:size]
            self._tid_at[key] = tids_grown

    def _remove(self, tid: int) -> None:  # requires-lock: _lock
        key = int(self._loc_key[tid])
        row = int(self._loc_row[tid])
        self._loc_key[tid] = -1
        last = self._size[key] - 1
        mat = self._mat[key]
        tid_at = self._tid_at[key]
        if row != last:
            mat[row] = mat[last]
            tid_at[row] = tid_at[last]
            self._loc_row[int(tid_at[row, 0])] = row
        self._size[key] = last

    def _remove_many(self, tids: np.ndarray) -> None:  # requires-lock: _lock
        """One pass per touched stratum: a few removals swap-delete in
        the order given; a sweep (a bulk delete's evictions) compacts
        the block, its row-to-tid map and ``_loc_row`` with masks."""
        if tids.size < _FEW:
            for tid in tids.tolist():
                self._remove(tid)
            return
        keys = self._loc_key[tids]
        for k in np.unique(keys):
            key = int(k)
            gone = tids[keys == k]
            if gone.size < _FEW:
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
            self._loc_row[kept[:, 0]] = np.arange(keep.size, dtype=np.int64)
            self._size[key] = int(keep.size)
