"""Dynamic table with archival storage semantics.

The paper assumes (Section 2.1) an evolving database D(0), D(1), ... under
a stream of insertions and deletions, with "sufficient cold/archival
storage to store the current state of the table" which may be read offline
for initialization, re-optimization and catch-up - but never at query time.

:class:`Table` plays both roles: it is the archival store (full columnar
state, uniform sampling for catch-up) and the ground-truth oracle used by
the benchmark harness.  The synopses themselves only touch it through the
archival interface (``sample_tids`` / ``row``), never per query.

Storage is columnar numpy with a liveness mask; deleted rows become dead
slots that are compacted on demand, so ground-truth evaluation over
thousands of queries stays vectorized.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .queries import AggFunc, Query, Rectangle


class Table:
    """An insert/delete table over a fixed numeric schema.

    Rows are addressed by a stable tuple id (``tid``) assigned at insert
    time; the same tid is used by reservoirs, partition-tree samples and
    delete requests so every structure refers to one canonical identity.

    Tids are dense (assigned 0, 1, 2, ...), so the tid-to-slot map is a
    plain int64 array (-1 = not live) instead of a dict: ``rows_for``
    and ``live_mask`` become single vectorized gathers, which is what
    the catch-up and re-initialization pipelines lean on.
    """

    _GROWTH = 1.6

    def __init__(self, schema: Sequence[str], capacity: int = 1024) -> None:
        if len(set(schema)) != len(schema):
            raise ValueError("duplicate attribute names in schema")
        self.schema: Tuple[str, ...] = tuple(schema)
        self._col_of: Dict[str, int] = {a: j for j, a in enumerate(schema)}
        self._data = np.empty((max(capacity, 16), len(schema)), dtype=np.float64)
        self._live = np.zeros(self._data.shape[0], dtype=bool)
        self._tids = np.full(self._data.shape[0], -1, dtype=np.int64)
        self._tid_slot = np.full(self._data.shape[0], -1, dtype=np.int64)
        self._n_slots = 0
        self._n_live = 0
        self._next_tid = 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, values: Sequence[float]) -> int:
        """Insert a row; returns its tid."""
        if len(values) != len(self.schema):
            raise ValueError("row arity does not match schema")
        if self._n_slots == self._data.shape[0]:
            self._grow()
        slot = self._n_slots
        self._data[slot] = values
        self._live[slot] = True
        tid = self._next_tid
        self._tids[slot] = tid
        self._ensure_tid_capacity(tid + 1)
        self._tid_slot[tid] = slot
        self._n_slots += 1
        self._n_live += 1
        self._next_tid += 1
        return tid

    def insert_many(self, rows: np.ndarray) -> List[int]:
        """Bulk insert a 2-D array; returns the assigned tids."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0:
            return []   # accept (), (0,) and (0, d) empty batches
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise ValueError("rows must be (n, n_attrs)")
        n = rows.shape[0]
        while self._n_slots + n > self._data.shape[0]:
            self._grow()
        lo, hi = self._n_slots, self._n_slots + n
        self._data[lo:hi] = rows
        self._live[lo:hi] = True
        tids = list(range(self._next_tid, self._next_tid + n))
        self._tids[lo:hi] = tids
        self._ensure_tid_capacity(self._next_tid + n)
        self._tid_slot[self._next_tid:self._next_tid + n] = \
            np.arange(lo, hi, dtype=np.int64)
        self._n_slots = hi
        self._n_live += n
        self._next_tid += n
        return tids

    def delete(self, tid: int) -> np.ndarray:
        """Delete a live row by tid; returns the removed row's values."""
        slot = self._slot_for(tid)
        self._tid_slot[tid] = -1
        self._live[slot] = False
        self._n_live -= 1
        return self._data[slot].copy()

    def delete_many(self, tids: Iterable[int]) -> np.ndarray:
        """Bulk delete by tid; returns the removed rows as ``(n, n_attrs)``.

        All tids must be live; on a missing tid the whole batch is
        rejected before any row is touched, so the table never ends up
        half-deleted.
        """
        tid_arr = np.asarray(tids if isinstance(tids, np.ndarray)
                             else [int(t) for t in tids], dtype=np.int64)
        if tid_arr.size == 0:
            return np.empty((0, len(self.schema)))
        bad = (tid_arr < 0) | (tid_arr >= self._tid_slot.shape[0])
        if not bad.any():
            slot_arr = self._tid_slot[tid_arr]
            bad = slot_arr < 0
        if bad.any():
            raise KeyError(
                f"tid {int(tid_arr[np.argmax(bad)])} is not live")
        if np.unique(tid_arr).size != tid_arr.size:
            raise KeyError("duplicate tid in delete batch")
        self._tid_slot[tid_arr] = -1
        self._live[slot_arr] = False
        self._n_live -= tid_arr.size
        return self._data[slot_arr].copy()

    def _grow(self) -> None:
        new_cap = int(self._data.shape[0] * self._GROWTH) + 16
        self._data = np.resize(self._data, (new_cap, len(self.schema)))
        self._live = np.resize(self._live, new_cap)
        self._live[self._n_slots:] = False
        self._tids = np.resize(self._tids, new_cap)
        self._tids[self._n_slots:] = -1

    def _ensure_tid_capacity(self, need: int) -> None:
        cap = self._tid_slot.shape[0]
        if need <= cap:
            return
        grown = np.full(max(need, 2 * cap), -1, dtype=np.int64)
        grown[:cap] = self._tid_slot
        self._tid_slot = grown

    def _slot_for(self, tid: int) -> int:
        t = int(tid)
        if 0 <= t < self._tid_slot.shape[0]:
            slot = self._tid_slot[t]
            if slot >= 0:
                return int(slot)
        raise KeyError(f"tid {tid} is not live")

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n_live

    @property
    def n_live(self) -> int:
        return self._n_live

    def __contains__(self, tid: int) -> bool:
        t = int(tid)
        return (0 <= t < self._tid_slot.shape[0] and
                self._tid_slot[t] >= 0)

    def row(self, tid: int) -> np.ndarray:
        return self._data[self._slot_for(tid)]

    def value(self, tid: int, attr: str) -> float:
        return float(self.row(tid)[self._col_of[attr]])

    def col_index(self, attr: str) -> int:
        return self._col_of[attr]

    def live_tids(self) -> np.ndarray:
        return self._tids[:self._n_slots][self._live[:self._n_slots]]

    def live_rows(self) -> np.ndarray:
        """A (n_live, n_attrs) view-copy of all live rows."""
        return self._data[:self._n_slots][self._live[:self._n_slots]]

    def column(self, attr: str) -> np.ndarray:
        j = self._col_of[attr]
        return self._data[:self._n_slots, j][self._live[:self._n_slots]]

    def domain(self, attr: str) -> Tuple[float, float]:
        col = self.column(attr)
        if col.size == 0:
            return (0.0, 0.0)
        return (float(col.min()), float(col.max()))

    # ------------------------------------------------------------------ #
    # archival interface (offline access only - Section 2.1)
    # ------------------------------------------------------------------ #
    def sample_tids(self, k: int, rng: np.random.Generator,
                    replace: bool = False) -> np.ndarray:
        """Uniform random tids from the current live rows.

        Models pulling a uniform sample from archival storage for reservoir
        (re-)initialization and the catch-up phase.
        """
        live = self.live_tids()
        if live.size == 0:
            return np.empty(0, dtype=np.int64)
        k_eff = k if replace else min(k, live.size)
        return rng.choice(live, size=k_eff, replace=replace)

    def rows_for(self, tids: Iterable[int]) -> np.ndarray:
        """Gather rows for live tids as one vectorized ``(n, n_attrs)``.

        Raises ``KeyError`` when any tid is not live, matching the old
        dict-lookup contract.
        """
        tid_arr = np.asarray(tids if isinstance(tids, np.ndarray)
                             else list(tids), dtype=np.int64)
        if tid_arr.size == 0:
            return np.empty((0, len(self.schema)))
        bad = (tid_arr < 0) | (tid_arr >= self._tid_slot.shape[0])
        if not bad.any():
            slots = self._tid_slot[tid_arr]
            bad = slots < 0
        if bad.any():
            raise KeyError(int(tid_arr[np.argmax(bad)]))
        return self._data[slots]

    def live_mask(self, tids) -> np.ndarray:
        """Vectorized liveness test: ``mask[i] == (tids[i] in self)``.

        The catch-up pipeline uses this to drop snapshot tids deleted
        since the epoch with one gather instead of a per-element
        membership loop.
        """
        tid_arr = np.asarray(tids, dtype=np.int64)
        out = np.zeros(tid_arr.shape, dtype=bool)
        ok = (tid_arr >= 0) & (tid_arr < self._tid_slot.shape[0])
        out[ok] = self._tid_slot[tid_arr[ok]] >= 0
        return out

    # ------------------------------------------------------------------ #
    # ground truth (benchmark harness only - not used by synopses)
    # ------------------------------------------------------------------ #
    def predicate_mask(self, predicate_attrs: Sequence[str],
                       rect: Rectangle) -> np.ndarray:
        live_slice = self._live[:self._n_slots]
        mask = live_slice.copy()
        for dim, attr in enumerate(predicate_attrs):
            col = self._data[:self._n_slots, self._col_of[attr]]
            mask &= (col >= rect.lo[dim]) & (col <= rect.hi[dim])
        return mask

    def ground_truth(self, query: Query) -> float:
        """Evaluate the query exactly against the current live data."""
        mask = self.predicate_mask(query.predicate_attrs, query.rect)
        if not query.agg.reads_column:
            return float(mask.sum())
        vals = self._data[:self._n_slots, self._col_of[query.attr]][mask]
        return float(_TRUTH[query.agg](vals, query.param))

    def ground_truths(self, queries: Sequence[Query]) -> List[float]:
        return [self.ground_truth(q) for q in queries]


def _lower_quantile(vals: np.ndarray, p: float) -> float:
    # The value at rank ceil(p * n) (1-based; p=0 -> the minimum),
    # matching QuantileSketch.quantile on an exact (height 0) sketch.
    ordered = np.sort(vals)
    return ordered[max(1, math.ceil(float(p) * ordered.size)) - 1]


def _top_mass(vals: np.ndarray, k: float) -> float:
    # Total row mass of the k most frequent values (ties broken count
    # desc, value asc - the HeavyHitters sketch ordering; boundary ties
    # have equal counts, so the mass is unique).
    uniques, counts = np.unique(vals, return_counts=True)
    order = np.lexsort((uniques, -counts))
    return counts[order[:int(k)]].sum()


def _or_nan(fn):
    """``fn(vals, param)``, undefined (NaN) over no rows."""
    return lambda vals, param: fn(vals, param) if vals.size else math.nan


#: The exact answer of every column-reading aggregate over the matching
#: rows' values (COUNT never reads the column: it is the mask's size).
_TRUTH = {
    AggFunc.SUM: lambda vals, _: vals.sum(),
    AggFunc.AVG: _or_nan(lambda vals, _: vals.mean()),
    AggFunc.MIN: _or_nan(lambda vals, _: vals.min()),
    AggFunc.MAX: _or_nan(lambda vals, _: vals.max()),
    AggFunc.VARIANCE: _or_nan(lambda vals, _: vals.var()),
    AggFunc.STDDEV: _or_nan(lambda vals, _: vals.std()),
    AggFunc.PERCENTILE: _or_nan(_lower_quantile),
    AggFunc.COUNT_DISTINCT: lambda vals, _: np.unique(vals).size,
    AggFunc.TOPK: _top_mass,
}


def table_from_array(schema: Sequence[str], data: np.ndarray) -> Table:
    """Convenience constructor: a table pre-loaded with ``data`` rows."""
    table = Table(schema, capacity=max(len(data) + 16, 1024))
    table.insert_many(np.asarray(data, dtype=np.float64))
    return table
