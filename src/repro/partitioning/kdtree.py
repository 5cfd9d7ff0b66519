"""Greedy k-d-tree partitioner for any dimension (Sections 5.3.2 / D.3).

Builds a partition tree top-down: a max-heap keyed by the (approximate)
max variance M(R) of each current leaf repeatedly extracts the worst leaf
and splits it at the median of the next dimension in a pre-defined
ordering, until there are k leaves.  The oracle is the index-backed
:class:`~repro.partitioning.maxvar.MaxVarOracle` over the pooled sample.

The build itself runs on the flat sample matrix: the whole pool is
materialized once (``all_items``) in canonical tid order, and every
candidate leaf carries its member rows as an index array into that
matrix.  Splitting a node is one median + boolean-mask pass over the
members, and the oracle is probed through
:meth:`~repro.partitioning.maxvar.MaxVarOracle.max_variance_rows` with
the member block - so the build issues **zero** per-split ``report``
scans against the index.  ``Rectangle.split`` makes children disjoint
(the cut plane belongs to the left child only), so one boolean mask and
its complement reproduce geometric membership per child exactly.

The paper shows this yields a near-optimal partitioning with respect to
the optimal tree using the same splitting criterion - factor 2*sqrt(k)
for SUM/COUNT and 2*log^{(d+1)/2} m for AVG.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from ..core.queries import AggFunc, Rectangle
from ..index.range_index import RangeIndex
from .maxvar import MaxVarOracle
from .spec import TreeSpec

#: A leaf holding fewer than twice this many samples is not split.
_MIN_LEAF_SAMPLES = 4


@dataclass
class KDTreeResult:
    tree: TreeSpec
    max_error: float

    def leaf_rects(self) -> Iterator[Rectangle]:
        """Leaf rectangles in tree order, each built as it is read: a
        commit test stops at the first leaf that decides it."""
        return (leaf.rect for leaf in self.tree.leaves())


class KDTreePartitioner:
    """Median-split greedy partitioner driven by the max-variance oracle."""

    def __init__(self, agg: AggFunc = AggFunc.SUM,
                 delta: float = 0.05) -> None:
        self.agg = agg
        self.delta = delta

    def partition(self, index: RangeIndex, k: int,
                  n_population: Optional[int] = None,
                  root_rect: Optional[Rectangle] = None) -> KDTreeResult:
        """Build a k-leaf partition tree over the samples in ``index``."""
        coords, values, tids = index.all_items()
        return self.partition_rows(coords, values, tids, k,
                                   n_population=n_population,
                                   root_rect=root_rect, index=index)

    def partition_rows(self, coords: np.ndarray, values: np.ndarray,
                       tids: np.ndarray, k: int,
                       n_population: Optional[int] = None,
                       root_rect: Optional[Rectangle] = None,
                       index: Optional[RangeIndex] = None) -> KDTreeResult:
        """Build a k-leaf tree directly over a flat sample matrix.

        For SUM/COUNT the whole build is index-free, so a frozen
        re-initialization snapshot can be partitioned without
        constructing a throwaway geometric index first; AVG needs
        ``index`` for the oracle's canonical-cell candidate family.
        """
        m = coords.shape[0]
        if m == 0:
            raise ValueError("cannot partition an empty sample index")
        n_population = n_population if n_population is not None else m
        oracle = MaxVarOracle(index if self.agg is AggFunc.AVG else None,
                              self.agg, n_population / m,
                              delta=self.delta)
        dim = coords.shape[1]
        root_rect = root_rect or Rectangle.unbounded(dim)
        # Canonical tid order: member blocks handed to the oracle are
        # then bit-identical to a tid-sorted report, whatever the
        # index's storage order.
        order = np.argsort(tids, kind="stable")
        coords, values, tids = coords[order], values[order], tids[order]

        def probe(rect: Rectangle, members: np.ndarray) -> float:
            return oracle.max_variance_rows(
                rect, coords[members], values[members],
                tids[members]).variance

        parent, rects = [-1], [root_rect]
        members = [np.flatnonzero(root_rect.contains_points(coords))]
        # (-M(R), row, depth): rows grow in push order, so they break ties
        heap = [(-probe(root_rect, members[0]), 0, 0)]
        while len(rects) < 2 * k - 1 and heap:      # k leaves: 2k-1 rows
            _, node, depth = heapq.heappop(heap)
            split = self._split_members(dim, rects[node], depth, coords,
                                        members[node])
            if split is None:
                continue                     # unsplittable leaf: skip it
            for rect, inside in split:
                parent.append(node)
                rects.append(rect)
                members.append(inside)
                if inside.size >= 2 * _MIN_LEAF_SAMPLES:
                    heapq.heappush(heap, (-probe(rect, inside),
                                          len(rects) - 1, depth + 1))
        inner, max_err = set(parent), 0.0
        for row, (rect, mm) in enumerate(zip(rects, members)):
            if row not in inner:
                max_err = max(max_err, oracle.max_variance_rows(
                    rect, coords[mm], values[mm], tids[mm]).error)
        return KDTreeResult(TreeSpec.of(parent, rects), max_err)

    # ------------------------------------------------------------------ #
    def _split_members(self, n_dims: int, rect: Rectangle, depth: int,
                       coords: np.ndarray, members: np.ndarray
                       ) -> Optional[Tuple[Tuple[Rectangle, np.ndarray],
                                           Tuple[Rectangle, np.ndarray]]]:
        """Median split on the round-robin dimension (with fallbacks)."""
        m_b = members.size
        if m_b < 2 * _MIN_LEAF_SAMPLES:
            return None
        sub = coords[members]
        for dim in [(depth + i) % n_dims for i in range(n_dims)]:
            col = sub[:, dim]
            lo, hi = float(col.min()), float(col.max())
            if hi <= lo:
                continue
            median = float(np.median(col))
            if median >= hi:                 # duplicate-heavy column
                median = (lo + hi) / 2.0
            left_rect, right_rect = rect.split(dim, median)
            left_sel = col <= median
            n_left = int(left_sel.sum())
            if n_left == 0 or n_left == m_b:
                continue
            # rect.split puts the cut plane in the left child only (the
            # right child starts at nextafter(median)), so the boolean
            # complement is exactly geometric membership per child.
            return ((left_rect, members[left_sel]),
                    (right_rect, members[~left_sel]))
        return None
