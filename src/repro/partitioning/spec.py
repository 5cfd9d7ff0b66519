"""Partition specifications: the rectangle hierarchies partitioners emit.

A partitioner's job (Section 5) is to produce a hierarchy of rectangles
satisfying the partition-tree invariants of Section 2.3.1: every child is
a subset of its parent, siblings are disjoint, and siblings union to the
parent.  The DPT/SPT then attach statistics and samples to this skeleton.
"""

from __future__ import annotations

import math
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..core.queries import Rectangle


class SpecNode(NamedTuple):
    """A read-only view of one spec row."""

    row: int
    rect: Rectangle
    children: Tuple[int, ...]        # child rows, ascending


class TreeSpec(NamedTuple):
    """A partition hierarchy as arrays, a row per node: ``parent`` (-1
    at the root, which is row 0) and the ``(n, d)`` corners ``lo`` /
    ``hi``.  Rows may come in any order after the root; a node's
    children are its child rows in ascending order."""

    parent: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, parent: Sequence[int],
           rects: Sequence[Rectangle]) -> "TreeSpec":
        return cls(np.asarray(parent, dtype=np.intp),
                   np.array([r.lo for r in rects], dtype=np.float64),
                   np.array([r.hi for r in rects], dtype=np.float64))

    @property
    def rect(self) -> Rectangle:
        """The root's rectangle."""
        return Rectangle(tuple(self.lo[0].tolist()),
                         tuple(self.hi[0].tolist()))

    def walk(self) -> Iterator[SpecNode]:
        """Every node, a parent before its children, first child first."""
        return self._visit(False)

    def leaves(self) -> Iterator[SpecNode]:
        """The leaves, in :meth:`walk` order."""
        return self._visit(True)

    def _visit(self, leaves_only: bool) -> Iterator[SpecNode]:
        kids: List[List[int]] = [[] for _ in self.parent]
        for row, up in enumerate(self.parent[1:].tolist(), 1):
            kids[up].append(row)
        lo, hi, stack = self.lo.tolist(), self.hi.tolist(), [0]
        while stack:
            row = stack.pop()
            stack += kids[row][::-1]
            if not (leaves_only and kids[row]):
                yield SpecNode(row, Rectangle(tuple(lo[row]), tuple(hi[row])),
                               tuple(kids[row]))


def leaf_edges(boundaries: Sequence[float],
               full: Rectangle) -> Tuple[List[float], List[float]]:
    """The leaf intervals of interior cuts ``c_1 < ... < c_{k-1}`` as
    ``(lo, hi)`` edge lists: leaf i covers ``(c_{i-1}, c_i]`` (with the
    full rectangle's ends at the extremes)."""
    # Duplicate cuts and cuts at (or beyond) the domain edges would
    # create empty leaf intervals.
    cuts = sorted({c for c in boundaries if full.lo[0] <= c < full.hi[0]})
    return ([full.lo[0]] + [math.nextafter(c, math.inf) for c in cuts],
            cuts + [full.hi[0]])


def tree_from_intervals(boundaries: Sequence[float],
                        full: Rectangle) -> TreeSpec:
    """A balanced binary hierarchy over :func:`leaf_edges` (the
    paper's "128 leaf nodes in a balanced binary tree" setting), rows in
    preorder.  The node over leaves ``[a, b)`` splits at ``a`` plus the
    largest power of two below ``b - a``: the tree that merging
    neighbours pairwise, level by level, builds."""
    los, his = leaf_edges(boundaries, full)
    rows, stack = [], [(0, len(los), -1)]        # rows: (parent, lo, hi)
    while stack:
        a, b, up = stack.pop()
        rows.append((up, los[a], his[b - 1]))
        if b - a > 1:
            mid = a + (1 << ((b - a - 1).bit_length() - 1))
            stack += [(mid, b, len(rows) - 1), (a, mid, len(rows) - 1)]
    parent, lo, hi = np.array(rows, dtype=np.float64).T
    return TreeSpec(parent.astype(np.intp), lo[:, None], hi[:, None])
