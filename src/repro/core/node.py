"""DPT node statistics (paper Section 4.1 / 4.4).

Each partition-tree node stores, per tracked attribute:

* **base statistics** - exact SUM/COUNT/sum-of-squares when the node was
  populated by a full scan (the SPT case), empty otherwise;
* **catch-up accumulators** - ``h_i`` (number of catch-up samples routed
  through the node) and the running ``sum a`` / ``sum a^2`` of those
  samples.  Scaled by ``N0 / h`` these give unbiased estimates of the
  node's snapshot statistics, with the variance of Appendix C;
* **exact deltas** - running SUM/COUNT of tuples inserted/deleted *after*
  the synopsis epoch started.  These carry no estimation variance;
* **MIN/MAX heaps** - top-k/bottom-k of post-epoch inserted values plus
  the extremes seen among catch-up samples.

A node's estimate of any statistic is (catch-up estimate or exact base)
plus the net delta; its catch-up variance vanishes when the node is exact.
A node is a row of one :class:`NodeTable`, which holds a whole tree.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..index.topk import TopK, TopKColumn
from .queries import Rectangle

if TYPE_CHECKING:
    from ..partitioning.spec import TreeSpec


class NodeRef(NamedTuple):
    """A read-only node record: its table row (until the tree's shape
    next changes), its id (for the node's life) and its rectangle."""

    row: int
    node_id: int
    rect: Rectangle


class NodeTable:
    """Every node of one partition tree, a row each, in canonical
    preorder: a parent before its children, first child first, so a
    subtree is a contiguous row range (:meth:`subtree`).

    Structure columns: ``parent`` (-1 at the root), ``node_id``,
    ``lo`` / ``hi`` (plus a sentinel row ``n`` - lo=+inf, hi=-inf - that
    contains nothing), ``child`` (child rows padded with ``n``), list
    forms ``kids`` / ``lo_rows`` / ``hi_rows`` for row-at-a-time walks,
    and ``leaf_pos`` (a leaf's position in row order, -1 inside).  The
    statistics (:attr:`FIELDS` plus MIN/MAX heap columns per tracked
    attribute position) take a batch of (node row, data row) pairs per
    call; estimates are whole columns, :meth:`column` memoizes them
    until a mutator next runs.  ``_lock`` below is the owning engine's.
    """

    #: every statistics column (in a snapshot archive's key order)
    FIELDS = ("h", "delta_count", "base_count", "exact", "csum", "csumsq",
              "cmin", "cmax", "dsum", "dsumsq", "bsum", "bsumsq")

    def __init__(self, parent: Sequence[int], lo, hi, node_id,
                 n_stats: int, minmax_pos: Sequence[int] = (),
                 minmax_k: int = 32) -> None:
        n = len(parent)
        shape = (n, n_stats)
        # float: partial re-partitioning rescales h by a real factor
        self.h = np.zeros(n)  # guarded-by: _lock
        self.delta_count = np.zeros(n, dtype=np.int64)  # guarded-by: _lock
        self.base_count = np.zeros(n, dtype=np.int64)  # guarded-by: _lock
        self.exact = np.zeros(n, dtype=bool)  # guarded-by: _lock
        self.csum = np.zeros(shape)  # guarded-by: _lock
        self.csumsq = np.zeros(shape)  # guarded-by: _lock
        self.cmin = np.full(shape, math.inf)  # guarded-by: _lock
        self.cmax = np.full(shape, -math.inf)  # guarded-by: _lock
        self.dsum = np.zeros(shape)  # guarded-by: _lock
        self.dsumsq = np.zeros(shape)  # guarded-by: _lock
        self.bsum = np.zeros(shape)  # guarded-by: _lock
        self.bsumsq = np.zeros(shape)  # guarded-by: _lock
        self._cols = np.arange(n_stats)
        self._minmax_k = minmax_k
        # per tracked attribute position: (top-k column, bottom-k column)
        self.columns: Dict[int, Tuple[TopKColumn, TopKColumn]] = {
            pos: (TopKColumn([TopK(minmax_k, True) for _ in range(n)]),
                  TopKColumn([TopK(minmax_k, False) for _ in range(n)]))
            for pos in minmax_pos}
        # (estimate, *args) -> its column as a list, until the next write
        self._memo: Dict[tuple, list] = {}  # guarded-by: _lock
        self._link(np.asarray(parent), np.asarray(lo, dtype=np.float64),
                   np.asarray(hi, dtype=np.float64), node_id)

    @classmethod
    def from_spec(cls, spec: "TreeSpec", n_stats: int,
                  minmax_pos: Sequence[int] = (),
                  minmax_k: int = 32) -> "NodeTable":
        """A zeroed table over ``spec`` (ids = rows), each rectangle edge
        it shares with the root's moved to infinity (:func:`inflate_rect`)."""
        lo, hi = spec.lo, spec.hi
        return cls(spec.parent, np.where(lo == lo[0], -math.inf, lo),
                   np.where(hi == hi[0], math.inf, hi), None, n_stats,
                   minmax_pos, minmax_k)

    def _link(self, parent: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              node_id: Optional[np.ndarray]) -> np.ndarray:
        """Lay the structure out in canonical preorder over ``parent``
        links in any row order - children in ascending row order, rows
        with a parent below -1 dropped with their subtrees, ids the new
        rows unless given - and return the rows taken, in order."""
        kids: List[List[int]] = [[] for _ in range(len(parent))]
        for i, up in enumerate(parent.tolist()):
            if up >= 0:
                kids[up].append(i)
        roots = np.flatnonzero(parent == -1)
        if not roots.size:
            raise ValueError("a tree needs a root node")
        order, stack = [], [int(roots[-1])]
        while stack:
            order.append(stack.pop())
            stack.extend(reversed(kids[order[-1]]))
        take = np.array(order, dtype=np.intp)
        rank = np.empty(len(parent), dtype=np.int64)
        rank[take] = np.arange(take.size)
        n, dim = take.size, lo.shape[1]
        self.parent = np.where(parent[take] < 0, -1, rank[parent[take]])
        self.node_id = np.arange(n) if node_id is None else node_id[take]
        lo, hi = lo[take], hi[take]
        new = rank.tolist()
        self.kids = [[new[c] for c in kids[i]] for i in order]
        self.child = np.full((n, max(map(len, self.kids)) or 1), n,
                             dtype=np.intp)
        for row, row_kids in enumerate(self.kids):
            self.child[row, :len(row_kids)] = row_kids
        self.lo_rows = [tuple(r) for r in lo.tolist()]
        self.hi_rows = [tuple(r) for r in hi.tolist()]
        self.lo = np.vstack([lo, np.full((1, dim), math.inf)])
        self.hi = np.vstack([hi, np.full((1, dim), -math.inf)])
        is_leaf = self.child[:, 0] == n
        self.leaf_pos = np.where(is_leaf, np.cumsum(is_leaf) - 1, -1)
        return take

    def __len__(self) -> int:
        return len(self.kids)

    def subtree(self, row: int) -> range:
        """The rows of ``row``'s subtree (``row`` first)."""
        last = row
        while self.kids[last]:
            last = self.kids[last][-1]
        return range(row, last + 1)

    # ------------------------------------------------------------------ #
    # mutators: every one drops the estimate memo
    # ------------------------------------------------------------------ #
    def splice(self, row: int, spec: "TreeSpec",  # requires-lock: _lock
               first_id: int) -> range:
        """Replace the rows below ``row`` by ``spec``'s children: zeroed
        statistics, fresh heaps, ids from ``first_id`` on in preorder.
        ``row`` and every row outside its subtree keep their statistics.
        Returns the new rows."""
        fresh = NodeTable(spec.parent, spec.lo, spec.hi, None,
                          len(self._cols), tuple(self.columns),
                          self._minmax_k)
        n, m = len(self), len(fresh) - 1
        # [self; fresh below its root], fresh's root standing for ``row``
        up = fresh.parent[1:]
        parent = np.concatenate([self.parent,
                                 np.where(up == 0, row, up + n - 1)])
        parent[self.kids[row]] = -2             # drop the old subtree
        take = self._link(
            parent, np.concatenate([self.lo[:n], fresh.lo[1:m + 1]]),
            np.concatenate([self.hi[:n], fresh.hi[1:m + 1]]),
            np.concatenate([self.node_id, np.arange(m) + first_id]))
        for name in self.FIELDS:
            setattr(self, name, np.concatenate(
                [getattr(self, name), getattr(fresh, name)[1:]])[take])
        order = take.tolist()
        for pos, (top, bottom) in self.columns.items():
            new_top, new_bottom = fresh.columns[pos]
            both = (top.tops + new_top.tops[1:],
                    bottom.tops + new_bottom.tops[1:])
            self.columns[pos] = tuple(TopKColumn([tops[i] for i in order])
                                      for tops in both)
        self._memo.clear()
        return range(row + 1, row + 1 + m)

    def set_exact_base(self, row: int, count: int,  # requires-lock: _lock
                       sums: np.ndarray, sumsqs: np.ndarray,
                       mins: Optional[np.ndarray] = None,
                       maxs: Optional[np.ndarray] = None) -> None:
        """Populate a node's exact statistics from a full scan (SPT)."""
        self.exact[row] = True
        self.base_count[row] = int(count)
        self.bsum[row], self.bsumsq[row] = sums, sumsqs
        if mins is not None:
            self.cmin[row] = mins
        if maxs is not None:
            self.cmax[row] = maxs
        self._memo.clear()

    def rescale(self, rows: range, factor: float) -> None:  # requires-lock: _lock
        """Scale the catch-up accumulators of ``rows`` by ``factor``."""
        at = slice(rows.start, rows.stop)
        self.h[at] *= factor
        self.csum[at] *= factor
        self.csumsq[at] *= factor
        self._memo.clear()

    # ------------------------------------------------------------------ #
    # the grouped-update kernel
    # ------------------------------------------------------------------ #
    def _sums(self, ids: np.ndarray, stats: np.ndarray  # requires-lock: _lock
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-node count, sum and sum of squares of ``stats`` rows.

        ``ids[p]`` is pair ``p``'s node row, ``stats[p]`` its data row's
        statistic values; a node's pairs come in ascending data-row
        order.  ``bincount`` adds weights into a zeroed scratch in pair
        order, so a node's scratch row is ``stats[its pairs].sum(axis=0)``
        bit for bit (numpy reduces axis 0 of an ``(m, s >= 2)`` block row
        after row; a one-column block it sums pairwise instead, which
        differs in the last bits beyond 8 rows).
        """
        shape = self.dsum.shape
        flat = (ids[:, None] * shape[1] + self._cols).ravel()
        size = shape[0] * shape[1]
        return (np.bincount(ids, minlength=shape[0]), flat,
                np.bincount(flat, stats.ravel(), size).reshape(shape),
                np.bincount(flat, (stats * stats).ravel(),
                            size).reshape(shape))

    def apply_delta(self, ids: np.ndarray, stats: np.ndarray,  # requires-lock: _lock
                    sign: int) -> None:
        """Insert (``sign=1``) or delete (``-1``) a batch of pairs.

        Untouched rows add an exact zero; ``x + (-y)`` is ``x - y``.
        """
        count, _, total, totalsq = self._sums(ids, stats)
        self.delta_count += sign * count
        self.dsum += sign * total
        self.dsumsq += sign * totalsq
        for pos, columns in self.columns.items():
            for column in columns:
                (column.insert_many if sign > 0 else column.delete_many)(
                    ids, stats[:, pos])
        self._memo.clear()

    def add_catchup(self, ids: np.ndarray, stats: np.ndarray) -> None:  # requires-lock: _lock
        """Accumulate a batch of catch-up sample pairs (Section 4.3)."""
        count, flat, total, totalsq = self._sums(ids, stats)
        self.h += count
        self.csum += total
        self.csumsq += totalsq
        np.minimum.at(self.cmin.reshape(-1), flat, stats.ravel())
        np.maximum.at(self.cmax.reshape(-1), flat, stats.ravel())
        self._memo.clear()

    # ------------------------------------------------------------------ #
    # estimates, one column (every node) at a time - `h_total`/`n0` are
    # the tree-level catch-up totals
    # ------------------------------------------------------------------ #
    def column(self, name: str, *args) -> list:  # requires-lock: _lock
        """An estimate method's column for ``args`` (or a stored column)
        as a list, memoized until a mutator next runs."""
        key = (name, *args)
        col = self._memo.get(key)
        if col is None:
            col = getattr(self, name)
            if callable(col):
                col = col(*args)
            col = self._memo[key] = \
                col if isinstance(col, list) else col.tolist()
        return col

    def count_estimates(self, n0: int, h_total: float) -> np.ndarray:  # requires-lock: _lock
        """N_i estimates: snapshot part plus exact net delta."""
        if h_total <= 0:
            sampled = np.maximum(self.delta_count, 0)
        else:
            sampled = (self.h / h_total) * n0 + self.delta_count
        return np.where(self.exact, self.base_count + self.delta_count,
                        sampled).astype(np.float64)

    def sum_estimates(self, pos: int, n0: int, h_total: float,  # requires-lock: _lock
                      squares: bool = False) -> np.ndarray:
        """Estimates of sum(a), or of sum(a^2) (for VARIANCE/STDDEV)."""
        c, d, b = (self.csumsq, self.dsumsq, self.bsumsq) if squares \
            else (self.csum, self.dsum, self.bsum)
        d = d[:, pos]
        return np.where(self.exact, b[:, pos] + d,
                        (n0 / h_total) * c[:, pos] + d if h_total > 0
                        else d)

    def catchup_var_sums(self, pos: int, n0: int,  # requires-lock: _lock
                         h_total: float) -> np.ndarray:
        """Appendix C: the nodes' nu_c terms for a SUM/COUNT query."""
        if h_total <= 0:
            return np.zeros(self.h.shape)
        n_hat = (self.h / h_total) * n0     # snapshot part of the count
        return self._catchup_var(pos, n_hat * n_hat)

    def catchup_var_bases(self, pos: int) -> np.ndarray:  # requires-lock: _lock
        """Appendix C: the AVG nu_c terms without the per-query weight
        ``w_i^2``, so a query batch can share them."""
        return self._catchup_var(pos, None)

    def _catchup_var(self, pos: int, scale) -> np.ndarray:  # requires-lock: _lock
        h, s, s2 = self.h, self.csum[:, pos], self.csumsq[:, pos]
        with np.errstate(all="ignore"):     # h == 0 rows are masked below
            val, cube = h * s2 - s * s, h * h * h
            raw = val / cube if scale is None else scale / cube * val
        # max(0.0, raw) of the live rows (a NaN clamps to 0.0 like max)
        return np.where(self.exact | (h <= 0) | ~(raw > 0.0), 0.0, raw)

    def extreme_estimates(self, pos: int, is_max: bool  # requires-lock: _lock
                          ) -> List[Tuple[Optional[float], bool]]:
        """Per node, (MAX or MIN estimate, exactness) of the tracked
        attribute at ``pos``: the more extreme of the catch-up extreme
        (when finite) and the heap top (when the heap holds one) - for
        sampled nodes an inner approximation - exact only if the node
        is and its heap is; ``(None, False)`` with neither."""
        seen = (self.cmax if is_max else self.cmin)[:, pos]
        known = np.isfinite(seen)
        value, exact = seen, self.exact
        heaps = self.columns.get(pos)
        if heaps is not None:
            top, held, heap_exact = heaps[0 if is_max else 1].state()
            beyond = top > seen if is_max else top < seen
            value = np.where(held & (beyond | ~known), top, seen)
            exact = exact & (heap_exact | ~held)
            known = known | held
        out = list(zip(value.tolist(), (exact & known).tolist()))
        for row in np.flatnonzero(~known).tolist():
            out[row] = (None, False)
        return out


def inflate_rect(rect: Rectangle, domain: Rectangle) -> Rectangle:
    """``rect`` with each edge it shares with ``domain`` moved to infinity
    (the rectangle a tree built over ``domain`` gives that node)."""
    return Rectangle(
        tuple(-math.inf if a == o else a
              for a, o in zip(rect.lo, domain.lo)),
        tuple(math.inf if b == o else b
              for b, o in zip(rect.hi, domain.hi)))
