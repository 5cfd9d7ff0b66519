"""Dynamic multi-dimensional range index over contiguous numpy arrays.

This is the geometric substrate behind the max-variance oracle and the
k-d partitioner (paper Sections 5.3 and D.1).  The paper's theory uses
multi-level dynamic range trees; we implement the same *interface* with
an array-backed store plus a k-d skeleton:

* **Columnar sample pool** - all points live in one contiguous
  ``(n, dim)`` float64 coordinate matrix with parallel value / tid
  vectors and a liveness mask.  ``range_stats`` / ``count`` / ``report``
  / ``all_items`` are single vectorized mask-and-gather passes over
  these arrays: on the pool sizes the re-initialization pipeline sees
  (tens of thousands of samples), one fused numpy scan beats a pruned
  Python-recursion tree walk by well over an order of magnitude, and it
  returns ``report`` results as array slices instead of materializing
  Python tuples per point.
* **k-d skeleton** - the same incremental k-d tree as the pure-Python
  reference implementation (:class:`~repro.index.reference.
  PyRangeIndex`), with ``(count, sum_a, sum_a2)`` aggregates and tight
  bounding boxes per node.  It is kept because ``small_cells`` - the
  analogue of the paper's weighted-rectangle structure T for the AVG
  oracle - needs canonical tree cells; its per-node split and rebuild
  decisions are byte-for-byte the reference's, so both implementations
  grow identical trees from identical update sequences.

All higher layers use only:

* ``insert(tid, coords, value)`` / ``delete(tid)``
* ``add_many(tids, coords, values)`` / ``delete_many(tids)`` - bulk
  variants with one amortized-rebuild check per batch; batches that are
  large relative to the pool skip per-point tree walks entirely and
  rebuild the skeleton wholesale with the vectorized builder
* ``range_stats(rect)``  - (count, sum, sum of squares), vectorized
* ``report(rect)``       - materialize points in a rectangle
* ``small_cells(rect, max_count)`` - canonical cells fully inside
  ``rect`` holding at most ``max_count`` live points
* ``coordinate_quantile(rect, dim, k)`` - k-th order statistic along one
  dimension among points in ``rect`` (median splits)

Rebuilds (amortized static-to-dynamic compaction [5, 34]) are fully
vectorized: dead-slot compaction is one boolean gather, and node
statistics / bounding boxes come from ``np.sum`` / ``min`` / ``max``
reductions over index blocks instead of per-point Python loops.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.queries import Rectangle

_LEAF_SIZE = 16
_REBUILD_DEAD_FRACTION = 0.30
_REBUILD_GROWTH_FACTOR = 2.0
# Bulk mutations covering at least this fraction of the live pool skip
# per-point tree walks and rebuild the skeleton wholesale (vectorized).
_BULK_REBUILD_FRACTION = 0.25
_MIN_BULK_REBUILD = 64

# bbox-vs-query relations
_DISJOINT, _PARTIAL, _CONTAINED = 0, 1, 2


class _KDNode:
    __slots__ = ("split_dim", "split_val", "left", "right",
                 "indices", "count", "sum_a", "sum_a2",
                 "bbox_lo", "bbox_hi")

    def __init__(self) -> None:
        self.split_dim: int = -1
        self.split_val: float = math.nan
        self.left: Optional["_KDNode"] = None
        self.right: Optional["_KDNode"] = None
        self.indices: Optional[List[int]] = []   # leaf storage (may hold dead)
        self.count = 0        # live points
        self.sum_a = 0.0
        self.sum_a2 = 0.0
        # Tight bounding box of points routed through this node (lists of
        # floats; None until the first point arrives).
        self.bbox_lo: Optional[List[float]] = None
        self.bbox_hi: Optional[List[float]] = None

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None

    def grow_bbox(self, point: Sequence[float]) -> None:
        lo, hi = self.bbox_lo, self.bbox_hi
        if lo is None:
            self.bbox_lo = [float(x) for x in point]
            self.bbox_hi = [float(x) for x in point]
            return
        for d, x in enumerate(point):
            if x < lo[d]:
                lo[d] = x
            elif x > hi[d]:
                hi[d] = x

    def relation(self, qlo: Tuple[float, ...],
                 qhi: Tuple[float, ...]) -> int:
        """How the query box relates to this node's bounding box."""
        lo, hi = self.bbox_lo, self.bbox_hi
        if lo is None:
            return _DISJOINT
        contained = True
        for d in range(len(qlo)):
            if hi[d] < qlo[d] or lo[d] > qhi[d]:
                return _DISJOINT
            if qlo[d] > lo[d] or qhi[d] < hi[d]:
                contained = False
        return _CONTAINED if contained else _PARTIAL

    def bbox_rect(self) -> Optional[Rectangle]:
        if self.bbox_lo is None:
            return None
        return Rectangle(tuple(self.bbox_lo), tuple(self.bbox_hi))


class RangeIndex:
    """A dynamic point index over ``(coords, value)`` samples keyed by tid."""

    def __init__(self, dim: int, leaf_size: int = _LEAF_SIZE,
                 seed: int = 0) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.leaf_size = leaf_size
        self._rng = np.random.default_rng(seed)
        cap = 64
        self._coords = np.empty((cap, dim), dtype=np.float64)
        self._values = np.empty(cap, dtype=np.float64)
        self._tids = np.empty(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        self._n_slots = 0
        self._idx_of: Dict[int, int] = {}
        self._n_live = 0
        self._n_dead = 0
        self._size_at_build = 0
        self._root = _KDNode()
        #: Bumped once by every call that changes the point set, so a
        #: cache over query results can tell it missed a mutation.
        self.version = 0

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
        tid = int(tid)
        if tid in self._idx_of:
            raise KeyError(f"tid {tid} already indexed")
        point = np.asarray(coords, dtype=np.float64).reshape(-1)
        if point.shape[0] != self.dim:
            raise ValueError("coords arity mismatch")
        self._ensure_capacity(1)
        idx = self._n_slots
        self._coords[idx] = point
        self._values[idx] = float(value)
        self._tids[idx] = tid
        self._alive[idx] = True
        self._n_slots += 1
        self._idx_of[tid] = idx
        self._n_live += 1
        self.version += 1
        self._insert_into_tree(idx)
        self._maybe_rebuild()

    def add_many(self, tids, coords, values) -> int:
        """Bulk insert; returns the number of points added.

        One contiguous array append, one duplicate check, and one
        amortized-rebuild decision per batch.  Batches at least
        ``_BULK_REBUILD_FRACTION`` of the resulting pool skip the
        per-point tree walks and rebuild the skeleton with the
        vectorized builder instead - this is how re-initialization
        snapshots and reservoir resets build a fresh 50k-sample index
        without 50k Python tree descents.
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
        # state changes, mirroring the per-point insert contract.  The
        # pool check goes through the tid dict - O(batch), independent
        # of pool size, so steady streaming ingest never pays an O(m)
        # pool scan per accepted batch.
        if np.unique(tid_arr).size != n:
            raise KeyError("duplicate tid within batch")
        idx_of = self._idx_of
        for t in tid_arr.tolist():
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
        self.version += 1
        if n >= max(_MIN_BULK_REBUILD,
                    int(_BULK_REBUILD_FRACTION * self._n_live)):
            self.rebuild()          # rebuilds the tid map itself
        else:
            idx_of = self._idx_of
            for offset, t in enumerate(tid_arr.tolist()):
                idx_of[t] = lo + offset
            for idx in range(lo, lo + n):
                self._insert_into_tree(idx)
            self._maybe_rebuild()
        return n

    def delete(self, tid: int) -> bool:
        idx = self._idx_of.pop(int(tid), None)
        if idx is None:
            return False
        self._alive[idx] = False
        self._n_live -= 1
        self._n_dead += 1
        self.version += 1
        self._remove_from_tree(idx)
        self._maybe_rebuild()
        return True

    def delete_many(self, tids) -> int:
        """Bulk delete; returns how many tids were actually indexed.

        Tombstones all members first and runs the amortized-rebuild
        check once per batch, so a large eviction sweep cannot trigger
        (and pay for) several intermediate rebuilds.  Per-point skeleton
        walks are kept (they only decrement aggregates) so the k-d
        skeleton evolves exactly like the pure-Python reference's; the
        rebuild a heavy sweep eventually triggers is the vectorized
        one.
        """
        removed = 0
        for tid in tids:
            idx = self._idx_of.pop(int(tid), None)
            if idx is None:
                continue
            self._alive[idx] = False
            self._n_live -= 1
            self._n_dead += 1
            self._remove_from_tree(idx)
            removed += 1
        if removed:
            self.version += 1
            self._maybe_rebuild()
        return removed

    def get(self, tid: int) -> Tuple[np.ndarray, float]:
        idx = self._idx_of[tid]
        return self._coords[idx].copy(), float(self._values[idx])

    # ------------------------------------------------------------------ #
    # tree maintenance (k-d skeleton; decisions match PyRangeIndex)
    # ------------------------------------------------------------------ #
    def _insert_into_tree(self, idx: int) -> None:
        # Plain floats for the walk: scalar indexing into a numpy row
        # costs ~10x a tuple access, and this loop runs per insert.
        point = tuple(self._coords[idx].tolist())
        value = float(self._values[idx])
        node = self._root
        while True:
            node.count += 1
            node.sum_a += value
            node.sum_a2 += value * value
            node.grow_bbox(point)
            if node.is_leaf:
                node.indices.append(idx)
                if node.count > self.leaf_size:
                    self._split_leaf(node)
                return
            if point[node.split_dim] <= node.split_val:
                node = node.left
            else:
                node = node.right

    def _remove_from_tree(self, idx: int) -> None:
        point = tuple(self._coords[idx].tolist())
        value = float(self._values[idx])
        node = self._root
        while True:
            node.count -= 1
            node.sum_a -= value
            node.sum_a2 -= value * value
            if node.is_leaf:
                return  # tombstone stays in the list until rebuild
            if point[node.split_dim] <= node.split_val:
                node = node.left
            else:
                node = node.right

    def _leaf_child(self, live: np.ndarray) -> _KDNode:
        node = _KDNode()
        node.indices = live.tolist()
        node.count = int(live.size)
        vals = self._values[live]
        node.sum_a = float(vals.sum())
        node.sum_a2 = float((vals * vals).sum())
        pts = self._coords[live]
        node.bbox_lo = pts.min(axis=0).tolist()
        node.bbox_hi = pts.max(axis=0).tolist()
        return node

    def _split_leaf(self, node: _KDNode) -> None:
        idx_arr = np.asarray(node.indices, dtype=np.intp)
        live = idx_arr[self._alive[idx_arr]]
        if live.size <= self.leaf_size:
            node.indices = live.tolist()  # compact dead slots instead
            return
        pts = self._coords[live]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        widths = hi - lo
        dim = int(np.argmax(widths))
        if widths[dim] == 0:
            return  # all points identical along every axis: keep fat leaf
        col = pts[:, dim]
        mid = live.size // 2
        split_val = float(np.partition(col, mid)[mid])
        if split_val >= hi[dim]:
            split_val = (float(lo[dim]) + float(hi[dim])) / 2.0
        left_sel = col <= split_val
        left_live = live[left_sel]
        right_live = live[~left_sel]
        if left_live.size == 0 or right_live.size == 0:
            return  # degenerate split: keep as leaf
        node.indices = None
        node.split_dim = dim
        node.split_val = split_val
        node.left = self._leaf_child(left_live)
        node.right = self._leaf_child(right_live)

    def _maybe_rebuild(self) -> None:
        total = self._n_slots
        dead_heavy = total > 64 and self._n_dead > _REBUILD_DEAD_FRACTION * total
        grew = (self._size_at_build > 0 and
                self._n_live > _REBUILD_GROWTH_FACTOR * self._size_at_build)
        if dead_heavy or grew:
            self.rebuild()

    def rebuild(self) -> None:
        """Compact dead slots and rebuild a balanced tree bottom-up.

        Both steps are vectorized: compaction is one boolean gather per
        array, and the recursive builder computes node statistics and
        bounding boxes with numpy reductions over index blocks.
        """
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
        self._idx_of = {int(t): i for i, t in enumerate(tids[:n])}
        self._n_dead = 0
        self._n_live = n
        self._size_at_build = n
        self._root = self._build(np.arange(n, dtype=np.intp))

    def _build(self, indices: np.ndarray) -> _KDNode:
        node = _KDNode()
        m = indices.size
        node.count = int(m)
        vals = self._values[indices]
        node.sum_a = float(vals.sum())
        node.sum_a2 = float((vals * vals).sum())
        if m == 0:
            node.indices = []
            return node
        pts = self._coords[indices]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        node.bbox_lo = lo.tolist()
        node.bbox_hi = hi.tolist()
        if m <= self.leaf_size:
            node.indices = indices.tolist()
            return node
        widths = hi - lo
        dim = int(np.argmax(widths))
        if widths[dim] == 0:
            node.indices = indices.tolist()
            return node
        col = pts[:, dim]
        split_val = float(np.partition(col, m // 2)[m // 2])
        if split_val >= hi[dim]:
            split_val = (float(lo[dim]) + float(hi[dim])) / 2.0
        left_sel = col <= split_val
        left_idx = indices[left_sel]
        right_idx = indices[~left_sel]
        if left_idx.size == 0 or right_idx.size == 0:
            node.indices = indices.tolist()
            return node
        node.indices = None
        node.split_dim = dim
        node.split_val = split_val
        node.left = self._build(left_idx)
        node.right = self._build(right_idx)
        return node

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

    def range_stats(self, rect: Rectangle) -> Tuple[int, float, float]:
        """``(count, sum_a, sum_a2)`` over live points inside ``rect``."""
        mask = self._mask_for(rect.lo, rect.hi)
        vals = self._values[:self._n_slots][mask]
        return (int(vals.size), float(vals.sum()),
                float((vals * vals).sum()))

    def count(self, rect: Rectangle) -> int:
        return int(np.count_nonzero(self._mask_for(rect.lo, rect.hi)))

    def report(self, rect: Rectangle) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live points in ``rect`` as ``(coords, values, tids)`` arrays.

        One vectorized containment mask and three gathers; rows come
        back in storage order (insertion order between rebuilds).
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

    def small_cells(self, rect: Rectangle,
                    max_count: int) -> Iterator[Tuple[Rectangle, int, float, float]]:
        """Maximal tree cells fully inside ``rect`` with <= ``max_count`` points.

        Yields ``(cell_rect, count, sum_a, sum_a2)``.  This mirrors the
        paper's structure T of canonical rectangles holding at most
        ``delta*m`` samples (Appendix D.1): the AVG oracle scans these for
        the one maximizing the sum of squared aggregation values.  The
        yielded rectangle is the node's point bounding box - a genuine
        witness rectangle, since siblings' cells are disjoint.  This is
        the one query the k-d skeleton is kept for: canonical cells have
        no flat-scan analogue.
        """
        yield from self._small_cells(self._root, rect.lo, rect.hi,
                                     max_count)

    def _small_cells(self, node: _KDNode, qlo, qhi, max_count: int
                     ) -> Iterator[Tuple[Rectangle, int, float, float]]:
        if node.count == 0:
            return
        rel = node.relation(qlo, qhi)
        if rel == _DISJOINT:
            return
        if rel == _CONTAINED:
            if node.count <= max_count or node.is_leaf:
                yield (node.bbox_rect(), node.count, node.sum_a,
                       node.sum_a2)
                return
        if node.is_leaf:
            return
        yield from self._small_cells(node.left, qlo, qhi, max_count)
        yield from self._small_cells(node.right, qlo, qhi, max_count)

    def coordinate_quantile(self, rect: Rectangle, dim: int, k: int) -> float:
        """The k-th smallest (0-based) coordinate along ``dim`` in ``rect``."""
        coords, _, _ = self.report(rect)
        if coords.shape[0] == 0:
            raise ValueError("empty rectangle")
        if not 0 <= k < coords.shape[0]:
            raise IndexError("rank out of range")
        return float(np.partition(coords[:, dim], k)[k])
