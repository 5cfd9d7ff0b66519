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
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..index.topk import MinMaxStats, TopKColumn
from .queries import Rectangle


class NodeTable:
    """Struct-of-arrays statistics of every node of one partition tree.

    Row ``i`` belongs to the tree's ``i``-th node (``nodes()`` order);
    :class:`DPTNode` handles read and write it through views.  The
    structure columns (:meth:`of`) drive the tree's router; the
    statistics take a batch of (node row, data row) pairs per call
    (:meth:`apply_delta`, :meth:`add_catchup`).  ``_lock`` below is the
    owning engine's.
    """

    #: every statistics column (in a snapshot archive's key order)
    FIELDS = ("h", "delta_count", "base_count", "exact", "csum", "csumsq",
              "cmin", "cmax", "dsum", "dsumsq", "bsum", "bsumsq")

    def __init__(self, n_nodes: int, n_stats: int) -> None:
        shape = (n_nodes, n_stats)
        # float: partial re-partitioning rescales h by a real factor
        self.h = np.zeros(n_nodes)  # guarded-by: _lock
        self.delta_count = np.zeros(n_nodes, dtype=np.int64)  # guarded-by: _lock
        self.base_count = np.zeros(n_nodes, dtype=np.int64)  # guarded-by: _lock
        self.exact = np.zeros(n_nodes, dtype=bool)  # guarded-by: _lock
        self.csum = np.zeros(shape)  # guarded-by: _lock
        self.csumsq = np.zeros(shape)  # guarded-by: _lock
        self.cmin = np.full(shape, math.inf)  # guarded-by: _lock
        self.cmax = np.full(shape, -math.inf)  # guarded-by: _lock
        self.dsum = np.zeros(shape)  # guarded-by: _lock
        self.dsumsq = np.zeros(shape)  # guarded-by: _lock
        self.bsum = np.zeros(shape)  # guarded-by: _lock
        self.bsumsq = np.zeros(shape)  # guarded-by: _lock
        self._cols = np.arange(n_stats)
        # per tracked attribute position: (top-k column, bottom-k column)
        self.columns: Dict[int, Tuple[TopKColumn, TopKColumn]] = {}

    def bind_minmax(self, rows: Sequence[Dict[int, MinMaxStats]]) -> None:
        """(Re)build the MIN/MAX columns over the nodes' heap pairs."""
        self.columns = {
            pos: (TopKColumn([mm[pos]._max for mm in rows]),
                  TopKColumn([mm[pos]._min for mm in rows]))
            for pos in (rows[0] if rows else ())}

    @classmethod
    def of(cls, nodes: Sequence["DPTNode"], n_stats: int) -> "NodeTable":
        """One table over ``nodes`` in order: every node's statistics
        row is gathered from the table it lives in today and the handle
        re-pointed; structure columns are rebuilt from the handles."""
        n = len(nodes)
        table = cls(n, n_stats)
        sources: Dict[int, Tuple["NodeTable", List[int], List[int]]] = {}
        for i, node in enumerate(nodes):
            _, rows, dst = sources.setdefault(id(node._t),
                                              (node._t, [], []))
            rows.append(node._i)
            dst.append(i)
        for src, rows, dst in sources.values():
            for name in cls.FIELDS:
                getattr(table, name)[dst] = getattr(src, name)[rows]
        for i, node in enumerate(nodes):
            node._t, node._i = table, i
        table.bind_minmax([node.minmax for node in nodes])
        # Structure: child table padded with the sentinel row ``n``
        # (lo=+inf, hi=-inf: contains nothing), plus list copies for the
        # row-at-a-time walk.
        table.kids = [[c._i for c in node.children] for node in nodes]
        table.parent = np.array(
            [-1 if node.parent is None else node.parent._i
             for node in nodes], dtype=np.int64)
        table.child = np.full((n, max(map(len, table.kids)) or 1), n,
                              dtype=np.intp)
        for i, kids in enumerate(table.kids):
            table.child[i, :len(kids)] = kids
        dim = nodes[0].rect.dim
        table.lo_rows = [node.rect.lo for node in nodes]
        table.hi_rows = [node.rect.hi for node in nodes]
        table.lo = np.array(table.lo_rows + [(math.inf,) * dim])
        table.hi = np.array(table.hi_rows + [(-math.inf,) * dim])
        is_leaf = table.child[:, 0] == n
        table.leaf_pos = np.where(is_leaf, np.cumsum(is_leaf) - 1, -1)
        return table

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

    def add_catchup(self, ids: np.ndarray, stats: np.ndarray) -> None:  # requires-lock: _lock
        """Accumulate a batch of catch-up sample pairs (Section 4.3)."""
        count, flat, total, totalsq = self._sums(ids, stats)
        self.h += count
        self.csum += total
        self.csumsq += totalsq
        np.minimum.at(self.cmin.reshape(-1), flat, stats.ravel())
        np.maximum.at(self.cmax.reshape(-1), flat, stats.ravel())

    # ------------------------------------------------------------------ #
    # estimates, one column (every node) at a time - `h_total`/`n0` are
    # the tree-level catch-up totals.  Elementwise IEEE arithmetic in
    # the order of DPTNode's scalar methods: an entry is their number.
    # ------------------------------------------------------------------ #
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


def _field(name: str, cast=None) -> property:
    """A :class:`DPTNode` field stored as row ``_i`` of table ``_t``."""
    def get(self):
        value = getattr(self._t, name)[self._i]
        return value if cast is None else cast(value)

    def put(self, value) -> None:
        getattr(self._t, name)[self._i] = value
    return property(get, put)


class DPTNode:
    """One node of a (dynamic or static) partition tree: a handle on a
    :class:`NodeTable` row.  Array fields are row views (writes land in
    the table), scalar fields read as Python scalars.  A node built on
    its own owns a one-row table until a tree adopts it."""

    __slots__ = ("node_id", "rect", "children", "parent", "minmax",
                 "_t", "_i")

    h = _field("h", float)
    delta_count = _field("delta_count", int)
    base_count = _field("base_count", int)
    exact = _field("exact", bool)
    csum, csumsq = _field("csum"), _field("csumsq")
    cmin, cmax = _field("cmin"), _field("cmax")
    dsum, dsumsq = _field("dsum"), _field("dsumsq")
    bsum, bsumsq = _field("bsum"), _field("bsumsq")

    def __init__(self, node_id: int, rect: Rectangle, n_stats: int,
                 minmax_attrs: Tuple[int, ...] = (), minmax_k: int = 32,
                 table: Optional[NodeTable] = None, row: int = 0) -> None:
        self.node_id = node_id
        self.rect = rect
        self.children: List["DPTNode"] = []
        self.parent: Optional["DPTNode"] = None
        # MIN/MAX heaps per tracked attribute position
        self.minmax: Dict[int, MinMaxStats] = {
            pos: MinMaxStats(minmax_k) for pos in minmax_attrs}
        self._t, self._i = table, row
        if table is None:
            self._t = NodeTable(1, n_stats)
            self._t.bind_minmax([self.minmax])

    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        return not self.children

    def _row(self) -> np.ndarray:
        return np.array([self._i])

    def add_catchup(self, stat_values: np.ndarray) -> None:
        self._t.add_catchup(self._row(), np.asarray(stat_values)[None])

    def apply_insert(self, stat_values: np.ndarray) -> None:
        self._t.apply_delta(self._row(), np.asarray(stat_values)[None], 1)

    def apply_delete(self, stat_values: np.ndarray) -> None:
        self._t.apply_delta(self._row(), np.asarray(stat_values)[None], -1)

    def set_exact_base(self, count: int, sums: np.ndarray,
                       sumsqs: np.ndarray,
                       mins: Optional[np.ndarray] = None,
                       maxs: Optional[np.ndarray] = None) -> None:
        """Populate exact statistics from a full scan (SPT construction)."""
        self.exact = True
        self.base_count = int(count)
        self.bsum, self.bsumsq = sums, sumsqs
        if mins is not None:
            self.cmin = mins
        if maxs is not None:
            self.cmax = maxs

    # ------------------------------------------------------------------ #
    # estimates of this node alone: the arithmetic of one entry of the
    # table's estimate columns (tests pin them equal) on Python scalars,
    # cheaper than a column when only a few nodes are asked about
    # ------------------------------------------------------------------ #
    def count_estimate(self, n0: int, h_total: float) -> float:
        t, i = self._t, self._i
        delta = int(t.delta_count[i])
        if t.exact[i]:
            return float(int(t.base_count[i]) + delta)
        if h_total <= 0:
            return float(max(delta, 0))
        return (float(t.h[i]) / h_total) * n0 + delta

    def sum_estimate(self, pos: int, n0: int, h_total: float,
                     squares: bool = False) -> float:
        t, i = self._t, self._i
        c, d, b = (t.csumsq, t.dsumsq, t.bsumsq) if squares \
            else (t.csum, t.dsum, t.bsum)
        if t.exact[i]:
            return float(b[i, pos] + d[i, pos])
        if h_total <= 0:
            return float(d[i, pos])
        return (n0 / h_total) * float(c[i, pos]) + float(d[i, pos])

    def catchup_var_sum(self, pos: int, n0: int, h_total: float) -> float:
        if h_total <= 0:
            return 0.0
        n_hat = (float(self._t.h[self._i]) / h_total) * n0
        return self._catchup_var(pos, n_hat * n_hat)

    def catchup_var_base(self, pos: int) -> float:
        return self._catchup_var(pos, None)

    def _catchup_var(self, pos: int, scale: Optional[float]) -> float:
        t, i = self._t, self._i
        h = float(t.h[i])
        if t.exact[i] or h <= 0:
            return 0.0
        s, s2 = float(t.csum[i, pos]), float(t.csumsq[i, pos])
        val, cube = h * s2 - s * s, h * h * h
        return max(0.0, val / cube if scale is None else scale / cube * val)

    def catchup_var_avg(self, pos: int, w_i: float) -> float:
        """Appendix C: nu_c term for an AVG query given weight w_i."""
        return (w_i * w_i) * self.catchup_var_base(pos)

    def min_estimate(self, pos: int) -> Tuple[Optional[float], bool]:
        """(estimate, exactness) of the node MIN over the tracked attr."""
        candidates = []
        exact = self.exact
        seen = float(self._t.cmin[self._i, pos])
        if math.isfinite(seen):
            candidates.append(seen)
        mm = self.minmax.get(pos)
        if mm is not None and mm.min_value is not None:
            candidates.append(mm.min_value)
            exact = exact and mm.min_exact
        if not candidates:
            return None, False
        # Sampled nodes: the observed min is an inner approximation.
        return min(candidates), exact

    def max_estimate(self, pos: int) -> Tuple[Optional[float], bool]:
        candidates = []
        exact = self.exact
        seen = float(self._t.cmax[self._i, pos])
        if math.isfinite(seen):
            candidates.append(seen)
        mm = self.minmax.get(pos)
        if mm is not None and mm.max_value is not None:
            candidates.append(mm.max_value)
            exact = exact and mm.max_exact
        if not candidates:
            return None, False
        return max(candidates), exact

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "internal"
        return (f"DPTNode({self.node_id}, {kind}, h={self.h}, "
                f"delta={self.delta_count})")
