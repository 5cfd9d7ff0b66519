"""Top-k / bottom-k structures for MIN/MAX maintenance under deletions.

Section 4.1 of the paper: node MIN and MAX statistics are kept as the
bottom-k and top-k aggregation values.  Inserts push onto the heap and trim
to k; deletes remove the value if present.  Repeated deletes may drain the
heap - the paper's rule is to stop removing at one element, after which the
node's MIN/MAX becomes an *outer approximation* (the reported MAX is an
upper bound on the true MAX, the reported MIN a lower bound on the true
MIN).  :attr:`TopK.exact` exposes that state.

Because k is small (default 32) a sorted list with bisect beats an actual
heap with lazy deletion in both simplicity and constant factors.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np


class TopK:
    """Maintains up to ``k`` largest (or smallest) values under updates."""

    def __init__(self, k: int = 32, largest: bool = True) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.largest = largest
        # ascending sorted list of the kept values
        self._values: List[float] = []
        # False once a delete had to be refused to keep one element:
        # top() is then only an outer approximation.
        self.exact = True
        # Sticky: a NaN breaks the list's order, so no value may skip
        # the sequential path again (see edges()).
        self._nan = False

    def __len__(self) -> int:
        return len(self._values)

    def insert(self, value: float) -> None:
        value = float(value)
        if value != value:
            self._nan = True
        bisect.insort(self._values, value)
        if len(self._values) > self.k:
            if self.largest:
                self._values.pop(0)     # drop smallest of the top-k
            else:
                self._values.pop()      # drop largest of the bottom-k

    def delete(self, value: float) -> None:
        """Remove one occurrence of ``value`` if it is tracked.

        Values outside the kept window (smaller than the top-k minimum for
        a MAX heap) were never stored and are ignored - they cannot affect
        the extremum.  A delete that would empty the structure is refused
        and flips :attr:`exact` to False (outer-approximation mode).
        """
        value = float(value)
        i = bisect.bisect_left(self._values, value)
        if i >= len(self._values) or self._values[i] != value:
            return  # not tracked: below/above the kept window
        if len(self._values) == 1:
            self.exact = False
            return
        self._values.pop(i)

    def edges(self) -> Tuple[float, float]:
        """``(insert_edge, delete_edge)`` of the kept window.

        Inserting ``v < insert_edge`` (top-k; ``>`` for bottom-k) is a
        no-op: the list is full and would trim ``v`` at once.  Deleting
        ``v < delete_edge`` (``>``) is one too: ``v`` is outside the
        window.  Later inserts (deletes) only move the edges outward, so
        a batch may be filtered against edges read before it.  A NaN
        edge drops nothing.
        """
        values = self._values
        if self._nan:
            return math.nan, math.nan
        if not values:
            return math.nan, math.inf if self.largest else -math.inf
        edge = values[0] if self.largest else values[-1]
        return (edge if len(values) == self.k else math.nan), edge

    def restore(self, values: Iterable[float], exact: bool) -> None:
        """Install a saved state (:mod:`repro.core.persist`)."""
        self._values = [float(v) for v in values]
        self.exact = bool(exact)
        self._nan = any(v != v for v in self._values)

    def insert_many(self, values: Sequence[float]) -> None:
        """``insert`` per value in order, minus the provable no-ops."""
        TopKColumn([self]).insert_many(
            np.zeros(len(values), dtype=np.intp), np.asarray(values, float))

    def delete_many(self, values: Sequence[float]) -> None:
        """``delete`` per value in order, minus the provable no-ops."""
        TopKColumn([self]).delete_many(
            np.zeros(len(values), dtype=np.intp), np.asarray(values, float))

    def top(self) -> Optional[float]:
        """Current MAX (or MIN) estimate; None when never populated."""
        if not self._values:
            return None
        return self._values[-1] if self.largest else self._values[0]

    def values(self) -> List[float]:
        return list(self._values)


class TopKColumn:
    """One direction's :class:`TopK` lists of all nodes of a tree, with
    their window edges as arrays: a batch of (node, value) pairs is
    filtered by one vector comparison and only the values that can
    change a list reach it, in pair order.  :meth:`state` reads every
    list's top the same way, as arrays."""

    def __init__(self, tops: Sequence[TopK]) -> None:
        self.tops = list(tops)
        n = len(self.tops)
        self.largest = bool(self.tops) and self.tops[0].largest
        # rows: insert edges, delete edges, NaN (an edge nothing is beyond)
        self._edges = np.full((3, n), math.nan)
        # per list: top (NaN when empty), non-empty, exact - read lazily
        self._top = np.full(n, math.nan)
        self._held = np.zeros(n, dtype=bool)
        self._exact = np.ones(n, dtype=bool)
        self._moved: Set[int] = set()   # lists changed since state()
        self._refresh(range(n))

    def _refresh(self, ids: Iterable[int]) -> None:
        for i in ids:
            self._edges[:2, i] = self.tops[i].edges()
        self._moved.update(ids)

    def restore(self, i: int, values: Iterable[float], exact: bool) -> None:
        """Install list ``i``'s saved state (:mod:`repro.core.persist`)."""
        self.tops[i].restore(values, exact)
        self._refresh((i,))

    def state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(top, held, exact)`` of every list: its :meth:`TopK.top`
        (NaN when empty), whether it holds a value, its exactness."""
        for i in self._moved:
            value = self.tops[i].top()
            self._held[i] = value is not None
            self._top[i] = math.nan if value is None else value
            self._exact[i] = self.tops[i].exact
        self._moved.clear()
        return self._top, self._held, self._exact

    def _apply(self, op, edge: np.ndarray, ids: np.ndarray,
               values: np.ndarray) -> None:
        drop = values < edge[ids] if self.largest else values > edge[ids]
        if not drop.all():
            kept, tops = ids[~drop].tolist(), self.tops
            for i, v in zip(kept, values[~drop].tolist()):
                op(tops[i], v)
            self._refresh(set(kept))

    def insert_many(self, ids: np.ndarray, values: np.ndarray) -> None:
        # a NaN in the batch unsorts lists mid-way: filter nothing
        self._apply(TopK.insert, self._edges[2 if (values != values).any()
                                             else 0], ids, values)

    def delete_many(self, ids: np.ndarray, values: np.ndarray) -> None:
        self._apply(TopK.delete, self._edges[1], ids, values)


class MinMaxStats:
    """Paired bottom-k / top-k tracking a node's MIN and MAX (Section 4.1)."""

    def __init__(self, k: int = 32) -> None:
        self._max = TopK(k, largest=True)
        self._min = TopK(k, largest=False)

    def insert(self, value: float) -> None:
        self._max.insert(value)
        self._min.insert(value)

    def delete(self, value: float) -> None:
        self._max.delete(value)
        self._min.delete(value)

    @property
    def max_value(self) -> Optional[float]:
        return self._max.top()

    @property
    def min_value(self) -> Optional[float]:
        return self._min.top()

    @property
    def max_exact(self) -> bool:
        return self._max.exact

    @property
    def min_exact(self) -> bool:
        return self._min.exact
