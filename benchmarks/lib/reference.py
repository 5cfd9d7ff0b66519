"""The pre-vectorization re-initialization path, kept as a baseline.

:class:`PyRangeIndex` is the original list-of-tuples sample index: a
k-d tree grown point by point, with per-node ``(count, sum, sum of
squares)`` and tight bounding boxes, answering ``report`` / ``count``
by pruned Python recursion.  :class:`ReferenceKDTreePartitioner` is
the original report-per-split k-d partitioner.  Neither is used by the
engine; they are

* the old path ``bench_reinit.py`` times against the vectorized one on
  the same pool (identical trees and answers, >= 5x at 50k samples),
  and
* the partitioner reference ``tests/test_reinit_fastpath.py`` pins
  :class:`~repro.partitioning.kdtree.KDTreePartitioner` against.

Only the surface those callers use is kept: ``insert``, ``report``,
``count`` and ``len``.
"""


from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.queries import AggFunc, Rectangle
from repro.partitioning.kdtree import KDTreeResult
from repro.partitioning.maxvar import MaxVarOracle
from repro.partitioning.spec import TreeSpec

_LEAF_SIZE = 16
_REBUILD_GROWTH_FACTOR = 2.0

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

    def grow_bbox(self, point: Tuple[float, ...]) -> None:
        lo, hi = self.bbox_lo, self.bbox_hi
        if lo is None:
            self.bbox_lo = list(point)
            self.bbox_hi = list(point)
            return
        for d, x in enumerate(point):
            if x < lo[d]:
                lo[d] = x
            elif x > hi[d]:
                hi[d] = x

    def set_bbox(self, points: Sequence[Tuple[float, ...]]) -> None:
        if not points:
            self.bbox_lo = self.bbox_hi = None
            return
        dim = len(points[0])
        self.bbox_lo = [min(p[d] for p in points) for d in range(dim)]
        self.bbox_hi = [max(p[d] for p in points) for d in range(dim)]

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



class PyRangeIndex:
    """A dynamic point index over ``(coords, value)`` samples keyed by tid."""

    def __init__(self, dim: int, leaf_size: int = _LEAF_SIZE) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.leaf_size = leaf_size
        self._coords: List[Tuple[float, ...]] = []
        self._values: List[float] = []
        self._tids: List[int] = []
        self._alive: List[bool] = []
        self._idx_of: Dict[int, int] = {}
        self._n_live = 0
        self._size_at_build = 0
        self._root = _KDNode()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n_live

    def __contains__(self, tid: int) -> bool:
        return tid in self._idx_of

    def insert(self, tid: int, coords: Sequence[float], value: float) -> None:
        if tid in self._idx_of:
            raise KeyError(f"tid {tid} already indexed")
        point = tuple(float(c) for c in coords)
        if len(point) != self.dim:
            raise ValueError("coords arity mismatch")
        idx = len(self._coords)
        self._coords.append(point)
        self._values.append(float(value))
        self._tids.append(tid)
        self._alive.append(True)
        self._idx_of[tid] = idx
        self._n_live += 1
        self._insert_into_tree(idx)
        self._maybe_rebuild()

    # ------------------------------------------------------------------ #
    # tree maintenance
    # ------------------------------------------------------------------ #
    def _insert_into_tree(self, idx: int) -> None:
        point = self._coords[idx]
        value = self._values[idx]
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

    def _split_leaf(self, node: _KDNode) -> None:
        live = [i for i in node.indices if self._alive[i]]
        if len(live) <= self.leaf_size:
            node.indices = live  # compact dead slots instead
            return
        pts = [self._coords[i] for i in live]
        widths = [max(p[d] for p in pts) - min(p[d] for p in pts)
                  for d in range(self.dim)]
        dim = max(range(self.dim), key=widths.__getitem__)
        if widths[dim] == 0:
            return  # all points identical along every axis: keep fat leaf
        col = sorted(p[dim] for p in pts)
        split_val = col[len(col) // 2]
        if split_val >= col[-1]:
            split_val = (col[0] + col[-1]) / 2.0  # duplicate-heavy column
        left, right = _KDNode(), _KDNode()
        for i in live:
            child = left if self._coords[i][dim] <= split_val else right
            child.indices.append(i)
            child.count += 1
            child.grow_bbox(self._coords[i])
            v = self._values[i]
            child.sum_a += v
            child.sum_a2 += v * v
        if left.count == 0 or right.count == 0:
            return  # degenerate split: keep as leaf
        node.indices = None
        node.split_dim = dim
        node.split_val = split_val
        node.left, node.right = left, right

    def _maybe_rebuild(self) -> None:
        if (self._size_at_build > 0 and
                self._n_live > _REBUILD_GROWTH_FACTOR * self._size_at_build):
            self.rebuild()

    def rebuild(self) -> None:
        """Compact dead slots and rebuild a balanced tree bottom-up."""
        live = [i for i in range(len(self._coords)) if self._alive[i]]
        self._coords = [self._coords[i] for i in live]
        self._values = [self._values[i] for i in live]
        self._tids = [self._tids[i] for i in live]
        self._alive = [True] * len(live)
        self._idx_of = {t: i for i, t in enumerate(self._tids)}
        self._n_live = len(live)
        self._size_at_build = len(live)
        self._root = self._build(list(range(len(live))))

    def _build(self, indices: List[int]) -> _KDNode:
        node = _KDNode()
        vals = [self._values[i] for i in indices]
        node.count = len(indices)
        node.sum_a = float(sum(vals))
        node.sum_a2 = float(sum(v * v for v in vals))
        node.set_bbox([self._coords[i] for i in indices])
        if len(indices) <= self.leaf_size:
            node.indices = indices
            return node
        pts = [self._coords[i] for i in indices]
        widths = [max(p[d] for p in pts) - min(p[d] for p in pts)
                  for d in range(self.dim)]
        dim = max(range(self.dim), key=widths.__getitem__)
        if widths[dim] == 0:
            node.indices = indices
            return node
        col = sorted(p[dim] for p in pts)
        split_val = col[len(col) // 2]
        if split_val >= col[-1]:
            split_val = (col[0] + col[-1]) / 2.0
        left_idx = [i for i in indices if self._coords[i][dim] <= split_val]
        right_idx = [i for i in indices if self._coords[i][dim] > split_val]
        if not left_idx or not right_idx:
            node.indices = indices
            return node
        node.indices = None
        node.split_dim = dim
        node.split_val = split_val
        node.left = self._build(left_idx)
        node.right = self._build(right_idx)
        return node

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _range_stats(self, node: _KDNode, qlo: Tuple[float, ...],
                     qhi: Tuple[float, ...]) -> Tuple[int, float, float]:
        if node.count == 0:
            return 0, 0.0, 0.0
        rel = node.relation(qlo, qhi)
        if rel == _DISJOINT:
            return 0, 0.0, 0.0
        if rel == _CONTAINED:
            return node.count, node.sum_a, node.sum_a2
        if node.is_leaf:
            c, s, s2 = 0, 0.0, 0.0
            coords, values, alive = self._coords, self._values, self._alive
            dim = self.dim
            for i in node.indices:
                if not alive[i]:
                    continue
                p = coords[i]
                inside = True
                for d in range(dim):
                    x = p[d]
                    if x < qlo[d] or x > qhi[d]:
                        inside = False
                        break
                if inside:
                    v = values[i]
                    c += 1
                    s += v
                    s2 += v * v
            return c, s, s2
        cl, sl, s2l = self._range_stats(node.left, qlo, qhi)
        cr, sr, s2r = self._range_stats(node.right, qlo, qhi)
        return cl + cr, sl + sr, s2l + s2r

    def count(self, rect: Rectangle) -> int:
        return self._range_stats(self._root, rect.lo, rect.hi)[0]

    def report(self, rect: Rectangle) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live points in ``rect`` as ``(coords, values, tids)`` arrays."""
        out_idx: List[int] = []
        self._report(self._root, rect.lo, rect.hi, out_idx)
        if not out_idx:
            return (np.empty((0, self.dim)), np.empty(0),
                    np.empty(0, dtype=np.int64))
        coords = np.array([self._coords[i] for i in out_idx])
        values = np.array([self._values[i] for i in out_idx])
        tids = np.array([self._tids[i] for i in out_idx], dtype=np.int64)
        return coords, values, tids

    def _report(self, node: _KDNode, qlo: Tuple[float, ...],
                qhi: Tuple[float, ...], out: List[int]) -> None:
        if node.count == 0:
            return
        rel = node.relation(qlo, qhi)
        if rel == _DISJOINT:
            return
        if node.is_leaf:
            coords, alive = self._coords, self._alive
            dim = self.dim
            if rel == _CONTAINED:
                out.extend(i for i in node.indices if alive[i])
                return
            for i in node.indices:
                if not alive[i]:
                    continue
                p = coords[i]
                inside = True
                for d in range(dim):
                    x = p[d]
                    if x < qlo[d] or x > qhi[d]:
                        inside = False
                        break
                if inside:
                    out.append(i)
            return
        if rel == _CONTAINED:
            self._collect_all(node, out)
            return
        self._report(node.left, qlo, qhi, out)
        self._report(node.right, qlo, qhi, out)

    def _collect_all(self, node: _KDNode, out: List[int]) -> None:
        if node.count == 0:
            return
        if node.is_leaf:
            alive = self._alive
            out.extend(i for i in node.indices if alive[i])
            return
        self._collect_all(node.left, out)
        self._collect_all(node.right, out)


class ReferenceKDTreePartitioner:
    """The original report-per-split build, kept as the reference.

    Functionally identical to :class:`KDTreePartitioner` (the
    equivalence suite pins matching cuts and leaf rectangles); every
    heap step pays one ``index.report``/``index.count`` scan per node
    probed, which is the old-path cost that
    ``benchmarks/bench_reinit.py`` baselines against.
    """

    def __init__(self, agg: AggFunc = AggFunc.SUM, delta: float = 0.05,
                 min_leaf_samples: int = 4) -> None:
        self.agg = agg
        self.delta = delta
        self.min_leaf_samples = min_leaf_samples

    def partition(self, index, k: int,
                  n_population: Optional[int] = None,
                  root_rect: Optional[Rectangle] = None) -> KDTreeResult:
        m = len(index)
        if m == 0:
            raise ValueError("cannot partition an empty sample index")
        n_population = n_population if n_population is not None else m
        oracle = MaxVarOracle(index, self.agg, n_population / m,
                              delta=self.delta)
        root_rect = root_rect or Rectangle.unbounded(index.dim)
        parent, rects = [-1], [root_rect]
        heap = [(-oracle.max_variance(root_rect).variance, 0, 0)]
        while len(rects) < 2 * k - 1 and heap:      # k leaves: 2k-1 rows
            _, node, depth = heapq.heappop(heap)
            split = self._split_node(index, rects[node], depth)
            if split is None:
                continue
            for rect in split:
                parent.append(node)
                rects.append(rect)
                if index.count(rect) >= 2 * self.min_leaf_samples:
                    var = oracle.max_variance(rect).variance
                    heapq.heappush(heap, (-var, len(rects) - 1, depth + 1))
        spec = TreeSpec.of(parent, rects)
        return KDTreeResult(spec, max([0.0] + [
            oracle.max_variance(leaf.rect).error for leaf in spec.leaves()]))

    # ------------------------------------------------------------------ #
    def _split_node(self, index, rect: Rectangle, depth: int
                    ) -> Optional[Tuple[Rectangle, Rectangle]]:
        coords, _, _ = index.report(rect)
        m_b = coords.shape[0]
        if m_b < 2 * self.min_leaf_samples:
            return None
        for dim in [(depth + i) % index.dim for i in range(index.dim)]:
            col = coords[:, dim]
            lo, hi = float(col.min()), float(col.max())
            if hi <= lo:
                continue
            median = float(np.median(col))
            if median >= hi:                 # duplicate-heavy column
                median = (lo + hi) / 2.0
            left_rect, right_rect = rect.split(dim, median)
            n_left = int((col <= median).sum())
            if n_left == 0 or n_left == m_b:
                continue
            return left_rect, right_rect
        return None
