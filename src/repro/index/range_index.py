"""Multi-dimensional point index over contiguous numpy arrays.

This is the geometric substrate behind the max-variance oracle and the
k-d partitioner (paper Sections 5.3 and D.1).  The paper's theory uses
multi-level dynamic range trees; we implement the same *interface* over
the point set itself:

* **Columnar sample pool** - all points live in one contiguous
  ``(n, dim)`` float64 coordinate matrix with parallel value / tid
  vectors and a liveness mask.  ``count`` / ``report`` / ``all_items``
  are single vectorized mask-and-gather passes over these arrays: on
  the pool sizes the re-initialization pipeline sees (tens of thousands
  of samples), one fused numpy scan beats a pruned Python-recursion
  tree walk by well over an order of magnitude, and it returns
  ``report`` results as array slices instead of materializing Python
  tuples per point.  A write appends or tombstones; dead slots are
  compacted away once they pass 30% of the store.
* **A key-ordered view (1-D)** - ``key_order`` sorts the live points
  by ``(key, tid)`` once per ``version`` (one sort), and
  ``key_range(rect)`` slices it with two binary searches: the points
  ``report(rect)`` returns, in the order the SUM oracle and the 1-D
  partitioner sort them into.  The arrays are replaced, never written,
  so a reader may keep them past the next write.
* **k-d cells on demand** - ``small_cells``, the analogue of the
  paper's weighted-rectangle structure T for the AVG oracle, needs
  canonical tree cells.  The first call after a write roots a balanced
  k-d tree over the live points; each node is built (vectorized
  bounding box) and split (median of its widest axis) the first time a
  walk reaches it, and the tree is kept until the next write.  Every
  split is a median and a comparison of coordinates, so the tree - and
  every cell and count it yields - is a function of the live point
  *set*, whatever order the points arrived in.  SUM- and COUNT-focus
  engines never ask, so they never build it.

All higher layers use only:

* ``insert(tid, coords, value)`` / ``delete(tid)``
* ``add_many(tids, coords, values)`` / ``delete_many(tids)``
* ``count(rect)`` / ``report(rect)`` / ``all_items()``
* ``key_order()`` / ``key_range(rect)`` (1-D)
* ``small_cells(rect, max_count)`` - canonical cells fully inside
  ``rect`` holding at most ``max_count`` live points
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.queries import Rectangle

_LEAF_SIZE = 16
_COMPACT_DEAD_FRACTION = 0.30

# bbox-vs-query relations
_DISJOINT, _PARTIAL, _CONTAINED = 0, 1, 2


class _KDNode:
    """A k-d tree node: its slots, their count and tight bounding box,
    and its two children once a walk first needs them (``()`` for a
    leaf)."""

    __slots__ = ("indices", "count", "bbox_lo", "bbox_hi", "children")

    def __init__(self, indices: np.ndarray, bbox_lo: List[float],
                 bbox_hi: List[float]) -> None:
        self.indices = indices
        self.count = int(indices.size)
        self.bbox_lo = bbox_lo
        self.bbox_hi = bbox_hi
        self.children: Optional[Tuple["_KDNode", ...]] = None

    def relation(self, qlo: Tuple[float, ...],
                 qhi: Tuple[float, ...]) -> int:
        """How the query box relates to this node's bounding box."""
        lo, hi = self.bbox_lo, self.bbox_hi
        contained = True
        for d in range(len(qlo)):
            if hi[d] < qlo[d] or lo[d] > qhi[d]:
                return _DISJOINT
            if qlo[d] > lo[d] or qhi[d] < hi[d]:
                contained = False
        return _CONTAINED if contained else _PARTIAL

    def cell(self) -> Tuple[Rectangle, int]:
        return (Rectangle(tuple(self.bbox_lo), tuple(self.bbox_hi)),
                self.count)


class RangeIndex:
    """A point index over ``(coords, value)`` samples keyed by tid.

    ``seed`` is accepted and ignored: nothing here is random, and the
    end-to-end benchmark's ledger still passes one.  The index has no
    lock of its own; ``_lock`` below is its owner's.
    """

    def __init__(self, dim: int, leaf_size: int = _LEAF_SIZE,
                 seed: int = 0) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.leaf_size = leaf_size
        cap = 64
        self._coords = np.empty((cap, dim), dtype=np.float64)
        self._values = np.empty(cap, dtype=np.float64)
        self._tids = np.empty(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._n_slots = 0
        self._idx_of: Dict[int, int] = {}
        self._n_live = 0
        self._n_dead = 0
        #: Bumped once by every call that changes the point set, so a
        #: cache over query results can tell it missed a mutation.
        self.version = 0
        # The k-d tree small_cells last built, and the version it is of.
        self._tree: Optional[_KDNode] = None
        self._tree_version = -1
        # The view key_order last built, and the version it is of.
        self._view: Optional[Tuple[np.ndarray, ...]] = None  # guarded-by: _lock
        self._view_version = -1  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n_live

    def __contains__(self, tid: int) -> bool:
        return tid in self._idx_of

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n_slots + extra
        cap = self._coords.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        coords = np.empty((new_cap, self.dim), dtype=np.float64)
        coords[:self._n_slots] = self._coords[:self._n_slots]
        values = np.empty(new_cap, dtype=np.float64)
        values[:self._n_slots] = self._values[:self._n_slots]
        tids = np.empty(new_cap, dtype=np.int64)
        tids[:self._n_slots] = self._tids[:self._n_slots]
        alive = np.zeros(new_cap, dtype=bool)
        alive[:self._n_slots] = self._alive[:self._n_slots]
        self._coords, self._values = coords, values
        self._tids, self._alive = tids, alive

    def insert(self, tid: int, coords: Sequence[float], value: float) -> None:
        point = np.asarray(coords, dtype=np.float64).reshape(-1)
        if point.shape[0] != self.dim:
            raise ValueError("coords arity mismatch")
        self.add_many([tid], point[None], [value])

    def add_many(self, tids, coords, values) -> int:
        """Bulk insert; returns the number of points added.

        One duplicate check and one contiguous array append per batch.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 1) if self.dim == 1 else \
                coords.reshape(1, -1)
        if coords.shape[0] == 0:
            return 0
        if coords.shape[1] != self.dim:
            raise ValueError("coords arity mismatch")
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        tid_arr = np.asarray(tids, dtype=np.int64).reshape(-1)
        n = coords.shape[0]
        if values.shape[0] != n or tid_arr.shape[0] != n:
            raise ValueError("tids/coords/values length mismatch")
        # Reject duplicates (within the batch or vs the pool) before any
        # state changes.  The pool check goes through the tid dict -
        # O(batch), independent of pool size, so steady streaming
        # ingest never pays an O(m) pool scan per accepted batch.
        if n > 1 and np.unique(tid_arr).size != n:
            raise KeyError("duplicate tid within batch")
        idx_of = self._idx_of
        tid_list = tid_arr.tolist()
        for t in tid_list:
            if t in idx_of:
                raise KeyError(f"tid {t} already indexed")
        self._ensure_capacity(n)
        lo = self._n_slots
        self._coords[lo:lo + n] = coords
        self._values[lo:lo + n] = values
        self._tids[lo:lo + n] = tid_arr
        self._alive[lo:lo + n] = True
        self._n_slots += n
        self._n_live += n
        idx_of.update(zip(tid_list, range(lo, lo + n)))
        self.version += 1
        return n

    def delete(self, tid: int) -> bool:
        return self.delete_many([tid]) == 1

    def delete_many(self, tids) -> int:
        """Bulk delete; returns how many tids were actually indexed.

        Tombstones all members first and checks for compaction once per
        batch, so a large eviction sweep compacts at most once.
        """
        removed = 0
        for tid in tids:
            idx = self._idx_of.pop(int(tid), None)
            if idx is None:
                continue
            self._alive[idx] = False
            removed += 1
        if removed:
            self._n_live -= removed
            self._n_dead += removed
            self.version += 1
            if self._n_slots > 64 and \
                    self._n_dead > _COMPACT_DEAD_FRACTION * self._n_slots:
                self._compact()
        return removed

    def _compact(self) -> None:
        """Drop dead slots: one boolean gather per array."""
        keep = np.flatnonzero(self._alive[:self._n_slots])
        n = keep.size
        cap = max(64, n + (n >> 1))
        coords = np.empty((cap, self.dim), dtype=np.float64)
        coords[:n] = self._coords[keep]
        values = np.empty(cap, dtype=np.float64)
        values[:n] = self._values[keep]
        tids = np.empty(cap, dtype=np.int64)
        tids[:n] = self._tids[keep]
        alive = np.zeros(cap, dtype=bool)
        alive[:n] = True
        self._coords, self._values = coords, values
        self._tids, self._alive = tids, alive
        self._n_slots = n
        self._idx_of = dict(zip(tids[:n].tolist(), range(n)))
        self._n_dead = 0

    # ------------------------------------------------------------------ #
    # queries (vectorized flat scans over the columnar pool)
    # ------------------------------------------------------------------ #
    def _mask_for(self, qlo: Sequence[float],
                  qhi: Sequence[float]) -> np.ndarray:
        n = self._n_slots
        mask = self._alive[:n].copy()
        coords = self._coords[:n]
        for d in range(self.dim):
            lo, hi = qlo[d], qhi[d]
            col = coords[:, d]
            if lo != -math.inf:
                mask &= col >= lo
            if hi != math.inf:
                mask &= col <= hi
        return mask

    def count(self, rect: Rectangle) -> int:
        return int(np.count_nonzero(self._mask_for(rect.lo, rect.hi)))

    def report(self, rect: Rectangle) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live points in ``rect`` as ``(coords, values, tids)`` arrays.

        One vectorized containment mask and three gathers; rows come
        back in storage order.
        """
        idx = np.flatnonzero(self._mask_for(rect.lo, rect.hi))
        if idx.size == 0:
            return (np.empty((0, self.dim)), np.empty(0),
                    np.empty(0, dtype=np.int64))
        return self._coords[idx], self._values[idx], self._tids[idx]

    def all_items(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live points: ``(coords, values, tids)``."""
        keep = np.flatnonzero(self._alive[:self._n_slots])
        return self._coords[keep], self._values[keep], self._tids[keep]

    def key_order(self  # requires-lock: _lock
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D: every live point as ``(keys, values, tids)`` in ``(key,
        tid)`` order, NaN keys last - built once per :attr:`version`."""
        if self._view_version != self.version:
            keep = np.flatnonzero(self._alive[:self._n_slots])
            keys, tids = self._coords[keep, 0], self._tids[keep]
            # Distinct keys have one order, which the unstable sort
            # finds several times faster; ties (two NaNs included) need
            # the tid as a second key.
            order = keys.argsort()
            ranked = keys[order]
            if keys.size > 1 and (ranked[-2] != ranked[-2] or
                                  (ranked[1:] == ranked[:-1]).any()):
                order = np.lexsort((tids, keys))
            self._view = (keys[order], self._values[keep[order]],
                          tids[order])
            self._view_version = self.version
        return self._view

    def key_range(self, rect: Rectangle  # requires-lock: _lock
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D :meth:`report` in :meth:`key_order`: a slice of the view.

        The same points as the mask - which skips a comparison against
        an infinite bound, so NaN keys fall inside ``(-inf, inf)`` only
        - sorted by key, then tid."""
        keys, values, tids = self.key_order()
        lo, hi = rect.lo[0], rect.hi[0]
        if lo == -math.inf and hi == math.inf:
            return keys, values, tids
        a = keys.searchsorted(lo, "left")
        b = keys.searchsorted(hi, "right") if lo <= hi else a
        return keys[a:b], values[a:b], tids[a:b]

    # ------------------------------------------------------------------ #
    # canonical cells (k-d tree over the live points, built on demand)
    # ------------------------------------------------------------------ #
    def small_cells(self, rect: Rectangle,
                    max_count: int) -> Iterator[Tuple[Rectangle, int]]:
        """Maximal tree cells fully inside ``rect`` with <= ``max_count`` points.

        Yields ``(cell_rect, count)``.  This mirrors the paper's
        structure T of canonical rectangles holding at most ``delta*m``
        samples (Appendix D.1): the AVG oracle scans these for the one
        maximizing the sum of squared aggregation values.  The yielded
        rectangle is the node's point bounding box - a genuine witness
        rectangle, since siblings' cells are disjoint - so the live
        points inside it are exactly the node's ``count`` points.
        """
        if self._tree_version != self.version:
            keep = np.flatnonzero(self._alive[:self._n_slots])
            self._tree = self._build(keep) if keep.size else None
            self._tree_version = self.version
        if self._tree is not None:
            yield from self._small_cells(self._tree, rect.lo, rect.hi,
                                         max_count)

    def _small_cells(self, node: _KDNode, qlo, qhi, max_count: int
                     ) -> Iterator[Tuple[Rectangle, int]]:
        rel = node.relation(qlo, qhi)
        if rel == _DISJOINT:
            return
        if rel == _CONTAINED and node.count <= max_count:
            yield node.cell()
            return
        if node.children is None:
            node.children = self._split(node)
        if rel == _CONTAINED and not node.children:     # a fat leaf
            yield node.cell()
            return
        for child in node.children:
            yield from self._small_cells(child, qlo, qhi, max_count)

    def _build(self, indices: np.ndarray) -> _KDNode:
        """The k-d node over the (non-empty) slots ``indices``; its
        children are split off when a walk first descends into it."""
        pts = self._coords[indices]
        return _KDNode(indices, pts.min(axis=0).tolist(),
                       pts.max(axis=0).tolist())

    def _split(self, node: _KDNode) -> Tuple[_KDNode, ...]:
        """Split the widest axis at its median, points on the cut going
        left; ``()`` when the node is a leaf."""
        m = node.count
        if m <= self.leaf_size:
            return ()
        lo, hi = node.bbox_lo, node.bbox_hi
        dim = max(range(self.dim), key=lambda d: hi[d] - lo[d])
        if hi[dim] == lo[dim]:
            return ()
        col = self._coords[node.indices, dim]
        split_val = float(np.partition(col, m // 2)[m // 2])
        if split_val >= hi[dim]:
            split_val = (lo[dim] + hi[dim]) / 2.0
        left = col <= split_val
        if not 0 < np.count_nonzero(left) < m:
            return ()
        return (self._build(node.indices[left]),
                self._build(node.indices[~left]))
