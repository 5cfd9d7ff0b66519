"""The pooled sample as a read-only point set over numpy arrays.

This is the geometric substrate behind the max-variance oracle and the
k-d partitioner (paper Sections 5.3 and D.1).  The paper's theory uses
multi-level dynamic range trees; we implement the same *interface* over
the point set itself:

* **A point set, not a store** - one contiguous ``(n, dim)`` float64
  coordinate matrix with parallel value / tid vectors, which nothing
  writes.  The pool (:class:`~repro.sampling.pool.SamplePool`), the
  sample's one mutable copy, builds an index over its members
  (:meth:`RangeIndex.of`) when first read after a change, so a reader
  may keep an index, or any array it returned, past the next write.
  ``add_many`` loads points into an index built elsewhere.
* **Flat scans** - ``count`` / ``report`` are single vectorized
  mask-and-gather passes: on the pool sizes the re-initialization
  pipeline sees (tens of thousands of samples), one fused numpy scan
  beats a pruned Python-recursion tree walk by well over an order of
  magnitude, and ``report`` returns arrays instead of materializing
  Python tuples per point.
* **A key-ordered view (1-D)** - ``key_order`` sorts the points by
  ``(key, tid)`` once (one sort), and ``key_range(rect)`` slices it
  with two binary searches: the points ``report(rect)`` returns, in the
  order the SUM oracle and the 1-D partitioner sort them into.
* **k-d cells on demand** - ``small_cells``, the analogue of the
  paper's weighted-rectangle structure T for the AVG oracle, needs
  canonical tree cells.  The first call roots a balanced k-d tree over
  the points; each node is built (vectorized bounding box) and split
  (median of its widest axis) the first time a walk reaches it.  Every
  split is a median and a comparison of coordinates, so the tree - and
  every cell and count it yields - is a function of the point *set*,
  whatever order the points arrived in.  SUM- and COUNT-focus engines
  never ask, so they never build it.

All higher layers use only:

* ``RangeIndex.of(coords, values, tids, rank)`` / ``add_many``
* ``count(rect)`` / ``report(rect)`` / ``all_items()``
* ``key_order()`` / ``key_range(rect)`` (1-D)
* ``small_cells(rect, max_count)`` - canonical cells fully inside
  ``rect`` holding at most ``max_count`` points
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.queries import Rectangle

_LEAF_SIZE = 16

# bbox-vs-query relations
_DISJOINT, _PARTIAL, _CONTAINED = 0, 1, 2


def key_sort(keys: np.ndarray, tids: np.ndarray) -> np.ndarray:
    """The permutation listing points in ``(key, tid)`` order, NaN keys
    last.  Distinct keys have one order, which the unstable sort finds
    several times faster; ties (two NaNs included, and ``-0.0 == 0.0``)
    need the tid as a second key."""
    order = keys.argsort()
    ranked = keys[order]
    if keys.size > 1 and (ranked[-2] != ranked[-2] or
                          (ranked[1:] == ranked[:-1]).any()):
        order = np.lexsort((tids, keys))
    return order


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
    """A read-only point set of ``(coords, value)`` samples keyed by tid.

    ``seed`` is accepted and ignored: nothing here is random, and the
    end-to-end benchmark's ledger still passes one.
    """

    def __init__(self, dim: int, seed: int = 0) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self._load(np.empty((0, dim)), np.empty(0),
                   np.empty(0, dtype=np.int64))

    @classmethod
    def of(cls, coords: np.ndarray, values: np.ndarray, tids: np.ndarray,
           rank: Optional[np.ndarray] = None,
           key_order: Optional[Tuple[np.ndarray, ...]] = None
           ) -> "RangeIndex":
        """The point set of ``(n, dim)`` ``coords`` and their ``values``
        and distinct ``tids``, taken over (not copied) and made
        read-only.  ``report`` and ``all_items`` list the points by
        ascending ``rank`` (default: in the order given); no other
        query depends on an order, so the pool hands over its members
        in any order with their filing stamps and only those two pay a
        sort; in 1-D it hands over :meth:`key_order`'s arrays too."""
        index = cls.__new__(cls)
        index.dim = coords.shape[1]
        index._load(coords, values, tids, rank)
        for arr in key_order or ():
            arr.flags.writeable = False
        index._view = key_order
        return index

    def _load(self, coords: np.ndarray, values: np.ndarray,
              tids: np.ndarray, rank: Optional[np.ndarray] = None) -> None:
        for arr in (coords, values, tids):
            arr.flags.writeable = False
        self._coords, self._values, self._tids = coords, values, tids
        self._rank = rank
        # What all_items, key_order and small_cells build on first use.
        # No lock: a frozen build may read an index beside the locked
        # engine, and each memo is published by one store of a value
        # any racing reader would build the same.
        self._items: Optional[Tuple[np.ndarray, ...]] = None
        self._view: Optional[Tuple[np.ndarray, ...]] = None
        self._tree: Optional[_KDNode] = None

    def __len__(self) -> int:
        return self._tids.shape[0]

    def add_many(self, tids, coords, values) -> int:
        """The bulk loader: append points, returning how many.

        A tid repeated in the batch or already loaded raises
        ``KeyError`` before anything changes.  The arrays are replaced,
        never written, so what a reader took before stays valid.
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
        old = self.all_items()
        tid_arr = np.concatenate([old[2], tid_arr])
        if np.unique(tid_arr).size != tid_arr.size:
            raise KeyError("duplicate tid")
        self._load(np.concatenate([old[0], coords]),
                   np.concatenate([old[1], values]), tid_arr)
        return n

    # ------------------------------------------------------------------ #
    # queries (vectorized flat scans over the arrays)
    # ------------------------------------------------------------------ #
    def _mask_for(self, qlo: Sequence[float],
                  qhi: Sequence[float]) -> np.ndarray:
        mask = np.ones(len(self), dtype=bool)
        for d in range(self.dim):
            lo, hi = qlo[d], qhi[d]
            col = self._coords[:, d]
            if lo != -math.inf:
                mask &= col >= lo
            if hi != math.inf:
                mask &= col <= hi
        return mask

    def count(self, rect: Rectangle) -> int:
        return int(np.count_nonzero(self._mask_for(rect.lo, rect.hi)))

    def report(self, rect: Rectangle) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All points in ``rect`` as ``(coords, values, tids)``, in
        :meth:`all_items` order: one vectorized mask and three gathers."""
        idx = np.flatnonzero(self._mask_for(rect.lo, rect.hi))
        if self._rank is not None:
            idx = idx[np.argsort(self._rank[idx])]
        return self._coords[idx], self._values[idx], self._tids[idx]

    def all_items(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All points: ``(coords, values, tids)``, read-only, in load
        order or by rank - one sort, on first use."""
        if self._items is None:
            items = self._coords, self._values, self._tids
            if self._rank is not None:
                order = np.argsort(self._rank)
                items = tuple(a[order] for a in items)
                for arr in items:
                    arr.flags.writeable = False
            self._items = items
        return self._items

    def key_order(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D: every point as ``(keys, values, tids)`` in ``(key, tid)``
        order, NaN keys last - one sort, on first use."""
        if self._view is None:
            keys, tids = self._coords[:, 0], self._tids
            order = key_sort(keys, tids)
            self._view = (keys[order], self._values[order], tids[order])
        return self._view

    def key_range(self, rect: Rectangle
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
    # canonical cells (k-d tree over the points, built on demand)
    # ------------------------------------------------------------------ #
    def small_cells(self, rect: Rectangle,
                    max_count: int) -> Iterator[Tuple[Rectangle, int]]:
        """Maximal tree cells fully inside ``rect`` with <= ``max_count`` points.

        Yields ``(cell_rect, count)``.  This mirrors the paper's
        structure T of canonical rectangles holding at most ``delta*m``
        samples (Appendix D.1): the AVG oracle scans these for the one
        maximizing the sum of squared aggregation values.  The yielded
        rectangle is the node's point bounding box - a genuine witness
        rectangle, since siblings' cells are disjoint - so the points
        inside it are exactly the node's ``count`` points.
        """
        if self._tree is None and len(self):
            self._tree = self._build(np.arange(len(self)))
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
        if m <= _LEAF_SIZE:
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
