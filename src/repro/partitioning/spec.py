"""Partition specifications: the hierarchical rectangle trees partitioners emit.

A partitioner's job (Section 5) is to produce a hierarchy of rectangles
satisfying the partition-tree invariants of Section 2.3.1: every child is
a subset of its parent, siblings are disjoint, and siblings union to the
parent.  The DPT/SPT then attach statistics and samples to this skeleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.queries import Rectangle


@dataclass
class PartitionNode:
    """One node of a partition hierarchy (leaf when ``children`` is empty)."""

    rect: Rectangle
    children: List["PartitionNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> Iterator["PartitionNode"]:
        if self.is_leaf:
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def walk(self) -> Iterator["PartitionNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def height(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(child.height() for child in self.children)

    def validate(self) -> None:
        """Check the partition-tree invariants; raises on violation."""
        for node in self.walk():
            if node.is_leaf:
                continue
            for child in node.children:
                if not node.rect.contains_rect(child.rect):
                    raise AssertionError("child escapes its parent")
            for i, a in enumerate(node.children):
                for b in node.children[i + 1:]:
                    if a.rect.intersects(b.rect):
                        raise AssertionError("siblings overlap")


def leaf_intervals(boundaries: Sequence[float],
                   full: Rectangle) -> List[Rectangle]:
    """Consecutive 1-D leaf intervals for interior cuts ``c_1 < ... <
    c_{k-1}``: leaf i covers ``(c_{i-1}, c_i]`` (with the full
    rectangle's ends at the extremes)."""
    # Duplicate cuts and cuts at (or beyond) the domain edges would
    # create empty leaf intervals.
    cuts = sorted({c for c in boundaries if full.lo[0] <= c < full.hi[0]})
    los = [full.lo[0]] + [math.nextafter(c, math.inf) for c in cuts]
    return [Rectangle((lo,), (hi,))
            for lo, hi in zip(los, cuts + [full.hi[0]])]


def tree_from_intervals(boundaries: Sequence[float],
                        full: Rectangle) -> PartitionNode:
    """A balanced binary hierarchy over :func:`leaf_intervals` (the
    paper's "128 leaf nodes in a balanced binary tree" setting)."""
    return _balanced_merge([PartitionNode(rect)
                            for rect in leaf_intervals(boundaries, full)])


def _balanced_merge(leaves: List[PartitionNode]) -> PartitionNode:
    """Pairwise-merge contiguous runs into a balanced binary hierarchy."""
    if not leaves:
        raise ValueError("cannot build a tree with no leaves")
    level = list(leaves)
    while len(level) > 1:
        merged: List[PartitionNode] = []
        for i in range(0, len(level) - 1, 2):
            a, b = level[i], level[i + 1]
            lo = tuple(min(x, y) for x, y in zip(a.rect.lo, b.rect.lo))
            hi = tuple(max(x, y) for x, y in zip(a.rect.hi, b.rect.hi))
            merged.append(PartitionNode(Rectangle(lo, hi), [a, b]))
        if len(level) % 2 == 1:
            merged.append(level[-1])
        level = merged
    return level[0]
