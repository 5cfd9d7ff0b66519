"""The Dynamic Partition Tree (paper Section 4).

A DPT is the same two-layer structure as PASS's static partition tree - a
hierarchical rectangular partitioning with per-node aggregate statistics
and stratified samples at the leaves - represented so that every piece is
incrementally maintainable:

* inserts/deletes update the exact delta statistics of the root-to-leaf
  path (Figure 3) and the MIN/MAX heaps;
* node snapshot statistics are *estimates* accumulated from catch-up
  samples (Section 4.3), so a freshly re-initialized tree is usable
  immediately and sharpens in the background;
* leaf samples are virtual strata of the pooled reservoir, provided at
  query time by a caller-supplied ``leaf_samples`` function so the tree
  itself stays storage-agnostic.

Query processing (Section 4.4) decomposes a predicate into fully covered
nodes (answered from node statistics, contributing catch-up variance
nu_c) and partially covered leaves (answered from stratified samples,
contributing nu_s); see :mod:`repro.core.estimators` for the formulas.

The tree is one :class:`~repro.core.node.NodeTable`: a node is a row,
named outside the tree by a :class:`~repro.core.node.NodeRef`.  Every
write entry point sends its ``(n, d)`` coordinates through the one router
(:meth:`~DynamicPartitionTree._route`), which finds each row's leaf (in
1-D by one ``searchsorted``) and hands the (node, row) pairs of the
leaves' paths to the table's grouped-update kernel.

Queries are batched the same way: :meth:`DynamicPartitionTree.query_many`
finds every query's frontier in one shared pass
(:meth:`~DynamicPartitionTree.frontier_many`; a lone query walks the row
lists) and tests each partial leaf's samples against all of its queries
at once.  Node estimates are whole table columns, memoized until the
table's next write; batched and sequential answers are identical.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import le
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..partitioning.spec import TreeSpec
from . import estimators
from .node import NodeRef, NodeTable, inflate_rect  # noqa: F401 (re-export)
from .queries import (AggFamily, AggFunc, Query, QueryResult,
                      QueryTemplate, Rectangle)

LeafSamplesFn = Callable[[NodeRef], np.ndarray]

#: Without the 1-D search, batches with fewer rows than this walk one row
#: at a time over the node table's list columns, larger ones level by
#: level with array operations: ~0.16 ms of fixed array-call overhead
#: against ~10 us a row, crossing near 16 rows (the write-path bench).
LEVELWISE_MIN_ROWS = 16

#: Matched-sample moments of a batch's (query, partial leaf) pairs as
#: six flat lists ``(m, count, s, s2, vmin, vmax)``: stratum size m_i,
#: matched rows, their aggregation values' sum, sum of squares, min
#: (+inf when none matched) and max (-inf).  Pair p is the p-th (query,
#: partial row) in request order, each query's rows in frontier order.
Moments = Tuple[list, list, list, list, list, list]


class DynamicPartitionTree:
    """A partition-tree synopsis over one query template.

    ``spec`` is the partition hierarchy to build (its boundary edges
    move to infinity, so every future tuple routes to a leaf), or a
    :class:`~repro.core.node.NodeTable` to adopt as it is (a restored
    snapshot's).
    """

    def __init__(self, spec: Union[TreeSpec, NodeTable],
                 schema: Sequence[str], predicate_attrs: Sequence[str],
                 stat_attrs: Optional[Sequence[str]] = None,
                 minmax_attrs: Optional[Sequence[str]] = None,
                 minmax_k: int = 32) -> None:
        self.schema = tuple(schema)
        self.predicate_attrs = tuple(predicate_attrs)
        self.stat_attrs = tuple(stat_attrs) if stat_attrs else self.schema
        #: What the tree alone answers (no sketches, no default column).
        self.template = QueryTemplate(None, self.predicate_attrs,
                                      self.stat_attrs)
        self._stat_pos: Dict[str, int] = {a: i for i, a in
                                          enumerate(self.stat_attrs)}
        self._pred_idx = np.array([self.schema.index(a)
                                   for a in self.predicate_attrs])
        self._stat_idx = np.array([self.schema.index(a)
                                   for a in self.stat_attrs])
        minmax_attrs = tuple(minmax_attrs) if minmax_attrs is not None \
            else self.stat_attrs
        if isinstance(spec, NodeTable):
            table = spec
        else:
            table = NodeTable.from_spec(
                spec, len(self.stat_attrs),
                tuple(self._stat_pos[a] for a in minmax_attrs
                      if a in self._stat_pos), minmax_k)
        if table.lo.shape[1] != len(self.predicate_attrs):
            raise ValueError("spec dimensionality != #predicate attributes")
        #: The tree itself: one node per row (see :class:`NodeTable`).
        self.table = table
        self._next_id = len(table)
        self.n0 = 0                       # snapshot population at epoch start
        self.n_updates = 0
        self._index()

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def _index(self) -> None:
        """Every structure change ends here: the leaf records, the
        router's tables, and the frontier traversal as flat arrays -
        ``_dfs_rows``, the rows in the order the lone :meth:`frontier`
        stack visits them (last child first, so batched classification
        keeps each query's rows in that order), their rectangles and
        leaf flags, and ``_dfs_levels``, child->parent links by depth."""
        t = self.table
        is_leaf = t.leaf_pos >= 0
        leaf_rows = np.flatnonzero(is_leaf)
        self.leaves: List[NodeRef] = [self.node(r)
                                      for r in leaf_rows.tolist()]
        self._leaf_ids = t.node_id[leaf_rows]
        order, stack = [], [0]
        while stack:
            order.append(stack.pop())
            stack.extend(t.kids[order[-1]])
        self._dfs_rows = rows = np.array(order, dtype=np.intp)
        self._dfs_lo, self._dfs_hi = t.lo[rows], t.hi[rows]
        self._dfs_leaf = t.leaf_pos[rows] >= 0
        parent = t.parent.tolist()
        self._depth = depth = [0] * len(t)
        for row, up in enumerate(parent[1:], 1):
            depth[row] = depth[up] + 1      # preorder: parents come first
        pos = np.empty(len(t), dtype=np.intp)
        pos[rows] = np.arange(len(t))
        by_pos = np.array(depth)[rows]
        self._dfs_levels = [
            (at, pos[t.parent[rows[at]]]) for at in
            (np.flatnonzero(by_pos == d) for d in range(1, max(depth) + 1))]
        # For the router: each leaf's path (its depth-L ancestor at L, -1
        # past the leaf), first leaves, right edges (if searchable).
        self._first_leaf = (np.cumsum(is_leaf) - is_leaf).tolist()
        self._paths = np.full((max(depth) + 1, leaf_rows.size), -1)
        for i, row in enumerate(leaf_rows.tolist()):
            while row >= 0:
                self._paths[depth[row], i], row = row, parent[row]
        self._leaf_hi = t.hi[leaf_rows, 0] if _searchable(t) else None

    def node(self, row: int) -> NodeRef:
        t = self.table
        return NodeRef(row, int(t.node_id[row]),
                       Rectangle(t.lo_rows[row], t.hi_rows[row]))

    def nodes(self) -> List[NodeRef]:
        """Every node, in row (canonical pre-) order."""
        return [self.node(row) for row in range(len(self.table))]

    def children(self, node: NodeRef) -> List[NodeRef]:
        return [self.node(row) for row in self.table.kids[node.row]]

    def parent(self, node: NodeRef) -> Optional[NodeRef]:
        up = int(self.table.parent[node.row])
        return None if up < 0 else self.node(up)

    def subtree_leaves(self, node: NodeRef) -> List[NodeRef]:
        """The leaves below ``node`` (itself, if a leaf), left to right."""
        rows = self.table.subtree(node.row)
        return [leaf for leaf in self.leaves if leaf.row in rows]

    def replace_subtree(self, node: NodeRef, spec: TreeSpec) -> range:
        """Swap ``node``'s children for a freshly partitioned subtree.

        The partial re-partitioning primitive of Appendix E: the rows
        below ``node`` are spliced out for ``spec``'s children (``spec``
        rooted at ``node.rect`` itself, so they tile the same region),
        new ids continuing in preorder; ``node`` and everything outside
        its subtree keep their rows' statistics.  Returns the new rows;
        the caller seeds their statistics and re-routes strata.
        """
        if spec.rect != node.rect:
            raise ValueError(f"spec rooted at {spec.rect}, not {node.rect}")
        fresh = self.table.splice(node.row, spec, self._next_id)
        self._next_id += len(fresh)
        self._index()
        return fresh

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return len(self.leaves)

    @property
    def h_total(self) -> float:
        return float(self.table.h[0])

    @property
    def n_current(self) -> float:
        """Live population estimate: snapshot size plus exact net delta."""
        return self.n0 + int(self.table.delta_count[0])

    def stat_pos(self, attr: str) -> int:
        try:
            return self._stat_pos[attr]
        except KeyError:
            raise KeyError(f"attribute {attr!r} is not tracked by this "
                           f"synopsis (tracked: {self.stat_attrs})") from None

    def set_population(self, n0: int) -> None:
        self.n0 = int(n0)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route_leaf(self, coords: Sequence[float]) -> NodeRef:
        """The leaf whose partition contains ``coords``."""
        return self.leaves[self.table.leaf_pos[self._walk(coords, 0)]]

    def route_rows(self, coords: np.ndarray) -> np.ndarray:
        """Leaf positions (into :attr:`leaves`) of ``(n, d)`` points."""
        return self._route(coords)[2]

    def leaf_ids_of(self, rows: np.ndarray) -> np.ndarray:
        """Leaf ``node_id`` of each full-schema ``(n, n_attrs)`` row:
        the stratum key the pooled sample is filed under."""
        return self.leaf_ids_at(self.route_rows(rows[:, self._pred_idx]))

    def leaf_ids_at(self, leaf_pos: np.ndarray) -> np.ndarray:
        """Leaf ``node_id`` at each leaf position (what
        :meth:`insert_rows` returns): its rows' stratum keys, no
        second descent."""
        return self._leaf_ids[leaf_pos]

    def _walk(self, point: Sequence[float], node: int) -> int:
        """The table row of one point's leaf below row ``node``.

        The routing rule, which :meth:`_route` applies to whole batches:
        the first child (in order) whose closed rectangle contains the
        point, else - a numeric edge case, or a NaN coordinate - the
        child nearest by L1 distance, first minimum winning (a NaN
        coordinate is at distance 0 from everything, so an all-NaN point
        goes to the first child).
        """
        kids, lo, hi = (self.table.kids, self.table.lo_rows,
                        self.table.hi_rows)
        while kids[node]:
            for child in kids[node]:
                if all(a <= x <= b for a, x, b in
                       zip(lo[child], point, hi[child])):
                    break
            else:
                child = min(kids[node], key=lambda c: _rect_distance(
                    lo[c], hi[c], point))
            node = child
        return node

    def _route(self, coords: np.ndarray, start: int = 0,
               keep_start: bool = True
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The router: descend an ``(n, d)`` batch from row ``start``.

        Returns ``(ids, rows, leaf_of)``: the (node row, data row) pairs
        of every node on some row's path (:meth:`_expand`) and each row's
        leaf position in :attr:`leaves`, by :meth:`_search_leaves` (1-D),
        a :meth:`_walk` per row (small batches) or :meth:`_walk_levels`.
        """
        if self._leaf_hi is not None:
            leaf = self._search_leaves(coords[:, 0], start)
        elif coords.shape[0] < LEVELWISE_MIN_ROWS:
            leaf = self.table.leaf_pos[[self._walk(point, start)
                                        for point in coords.tolist()]]
        else:
            leaf = self._walk_levels(coords, start)
        return (*self._expand(leaf, start, keep_start), leaf)

    def _expand(self, leaf: np.ndarray, start: int, keep_start: bool
                ) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs of the paths from ``start`` (if ``keep_start``) to
        ``leaf``, read level-major: each node's data rows ascend."""
        paths = self._paths[self._depth[start] + (not keep_start):, leaf]
        on = paths >= 0
        return paths[on], on.nonzero()[1]

    def _search_leaves(self, x: np.ndarray, start: int) -> np.ndarray:
        """1-D leaves below row ``start``: the first whose right edge
        reaches ``x`` from ``start``'s first on (:func:`_searchable`).
        A NaN, or a point outside ``start`` (nearest child), walks."""
        leaf = self._leaf_hi.searchsorted(x)
        if self._first_leaf[start]:
            np.maximum(leaf, self._first_leaf[start], out=leaf)
        (lo,), (hi,) = self.table.lo_rows[start], self.table.hi_rows[start]
        stray = ~((x >= lo) & (x <= hi))
        for i in np.flatnonzero(stray).tolist():
            leaf[i] = self.table.leaf_pos[self._walk((x[i],), start)]
        return leaf

    def _walk_levels(self, coords: np.ndarray, start: int) -> np.ndarray:
        """Leaf positions of an ``(n, d)`` batch, a level a step."""
        t = self.table
        cur = np.full(coords.shape[0], start, dtype=np.intp)
        rows, x = np.arange(coords.shape[0]), coords
        while True:
            kids = t.child[cur[rows]]                     # (m, fanout)
            inner = kids[:, 0] < len(t.kids)              # not at a leaf
            if not inner.all():
                rows, kids, x = rows[inner], kids[inner], coords[rows[inner]]
            if not rows.size:
                return t.leaf_pos[cur]
            pt = x[:, None, :]
            inside = ((t.lo[kids] <= pt) & (pt <= t.hi[kids])).all(axis=2)
            slot = inside.argmax(axis=1)
            lost = ~inside.any(axis=1)
            if lost.any():
                slot[lost] = _nearest_slot(t.lo[kids[lost]],
                                           t.hi[kids[lost]], pt[lost])
            cur[rows] = kids[np.arange(rows.size), slot]

    def _as_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size == 0:
            # Accept (), (0,) and (0, d): an empty batch routes nowhere,
            # so it must not reach the (n, d) routing code mis-shaped.
            return rows.reshape(0, len(self.schema))
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D (n, n_attrs) array")
        return rows

    # ------------------------------------------------------------------ #
    # maintenance (Figure 3)
    # ------------------------------------------------------------------ #
    def insert_rows(self, rows: np.ndarray) -> np.ndarray:
        """Insert an ``(n, n_attrs)`` row block: every node on a path
        receives its rows' delta statistics as one grouped accumulation.
        Returns per-row leaf positions (indices into :attr:`leaves`)."""
        return self._update(rows, 1)

    def delete_rows(self, rows: np.ndarray) -> np.ndarray:
        """Delete an ``(n, n_attrs)`` row block (see :meth:`insert_rows`)."""
        return self._update(rows, -1)

    def _update(self, rows: np.ndarray, sign: int) -> np.ndarray:
        rows = self._as_batch(rows)
        self.n_updates += rows.shape[0]
        ids, src, leaf_of = self._route(rows[:, self._pred_idx])
        self.table.apply_delta(ids, rows[src[:, None], self._stat_idx],
                                sign)
        return leaf_of

    def add_catchup_rows(self, rows: np.ndarray,
                         subtree_root: Optional[NodeRef] = None
                         ) -> np.ndarray:
        """Catch-up for an ``(n, n_attrs)`` sample block (Section 4.3),
        from the root or - seeding a partially re-partitioned region
        (Appendix E) - below ``subtree_root``, which then keeps its own
        statistics.  Returns per-row leaf positions."""
        rows = self._as_batch(rows)
        ids, src, leaf_of = self._route(
            rows[:, self._pred_idx],
            0 if subtree_root is None else subtree_root.row,
            subtree_root is None)
        self.table.add_catchup(ids, rows[src[:, None], self._stat_idx])
        return leaf_of

    # ------------------------------------------------------------------ #
    # query processing (Section 4.4)
    # ------------------------------------------------------------------ #
    def frontier(self, rect: Rectangle) -> Tuple[List[int], List[int]]:
        """Step 1: the ``(R_cover, R_partial)`` rows of a predicate, by a
        stack walk over the table's row lists."""
        kids, lo, hi = (self.table.kids, self.table.lo_rows,
                        self.table.hi_rows)
        qlo, qhi = rect.lo, rect.hi
        cover: List[int] = []
        partial: List[int] = []
        stack = [0]
        while stack:
            row = stack.pop()
            nlo, nhi = lo[row], hi[row]
            if not (all(map(le, qlo, nhi)) and all(map(le, nlo, qhi))):
                continue                    # disjoint
            if all(map(le, qlo, nlo)) and all(map(le, nhi, qhi)):
                cover.append(row)           # contained
            elif kids[row]:
                stack.extend(kids[row])
            else:
                partial.append(row)
        return cover, partial

    def frontier_many(self, rects: Sequence[Rectangle]
                      ) -> Tuple[List[List[int]], List[List[int]]]:
        """Step 1 for a whole query batch in one vectorized pass.

        Every (node, query) pair is classified at once: two broadcasted
        comparisons give the intersect/contain matrices, a level-wise
        propagation marks which nodes each query's walk would reach (a
        node is reached iff its parent is reached, intersecting and not
        contained), and one ``flatnonzero`` pass emits the rows of all
        queries, cut at the query boundaries (:func:`_cut_rows`).
        Positions ascend in the lone walk's visit order (:meth:`_index`)
        and a pruned DFS visits a subsequence of the unpruned one, so
        the lists are :meth:`frontier`'s, in its order.
        """
        lo, hi = _corners(rects, self._dfs_lo.shape[1])
        nlo = self._dfs_lo[:, None, :]                 # (n_nodes, 1, d)
        nhi = self._dfs_hi[:, None, :]
        qlo = lo[None, :, :]                           # (1, nq, d)
        qhi = hi[None, :, :]
        inter = ((qlo <= nhi) & (nlo <= qhi)).all(axis=2)
        contain = ((qlo <= nlo) & (nhi <= qhi)).all(axis=2)
        descend = inter & ~contain
        reach = np.empty(inter.shape, dtype=bool)
        reach[0] = True
        for child_pos, parent_pos in self._dfs_levels:
            reach[child_pos] = reach[parent_pos] & descend[parent_pos]
        return (_cut_rows(self._dfs_rows, reach & contain),
                _cut_rows(self._dfs_rows,
                          reach & descend & self._dfs_leaf[:, None]))

    def query(self, query: Query, leaf_samples: LeafSamplesFn
              ) -> QueryResult:
        """Answer an aggregate query from the synopsis alone.

        Thin wrapper over :meth:`query_many`: both paths run the same
        per-query estimation code on the same inputs, so a batch's
        results are bit-for-bit identical to a sequential loop.
        """
        return self.query_many((query,), leaf_samples)[0]

    def query_many(self, queries: Sequence[Query],
                   leaf_samples: LeafSamplesFn) -> List[QueryResult]:
        """Answer a query batch with shared tree and sample passes.

        The frontier computation runs once for the whole batch
        (:meth:`frontier_many`; a lone query walks the same rows in the
        same order, :meth:`frontier`), each partial leaf's samples are
        tested against all of its queries at once (:meth:`_leaf_moments`;
        a lone query's, one block at a time, :meth:`_lone_moments`) and
        node estimates are read from memoized whole columns; only
        the final estimation - a pure function of the query's own
        frontier and matched samples - runs per query.  Results come in
        request order and match :meth:`query` exactly.  A query off
        :attr:`template` is a ``ValueError`` for the whole batch.
        """
        queries = list(queries)
        for query in queries:
            self.template.check(query)
        return self._answer_many(queries, leaf_samples) if queries else []

    def _answer_many(self, queries: List[Query],
                     leaf_samples: LeafSamplesFn) -> List[QueryResult]:
        """:meth:`query_many` for a non-empty batch already checked
        against a template at least as strict as :attr:`template`."""
        if len(queries) == 1:
            cover, partial = self.frontier(queries[0].rect)
            covers, partials = [cover], [partial]
            moments = self._lone_moments(queries[0], partial, leaf_samples)
        else:
            covers, partials = self.frontier_many(
                [q.rect for q in queries])
            moments = self._leaf_moments(queries, partials, leaf_samples)
        results: List[QueryResult] = []
        first = 0                         # the query's first pair
        for query, cover, partial in zip(queries, covers, partials):
            results.append(self._ANSWER[query.agg.family](
                self, query, cover, partial, first, moments))
            first += len(partial)
        return results

    def _leaf_moments(self, queries: List[Query],
                      partials: List[List[int]],
                      leaf_samples: LeafSamplesFn) -> Moments:
        """The :data:`Moments` of every (query, partial leaf row) pair.

        The batch's partial-leaf sample matrices are concatenated into
        one block, every query rectangle is tested against it in one
        broadcasted comparison, and the per-leaf moments the estimators
        need - matched count, sum, sum of squares, min and max of the
        aggregation attribute - come out of segment reductions
        (``reduceat``) over the leaf boundaries.  A segment reduction
        depends only on that leaf's own rows, so every moment is
        identical to what a single-query evaluation would produce.
        Pairs on an empty stratum stay out of the segments (a
        zero-length ``reduceat`` segment yields its start element, not
        the identity) and keep the identity moments.
        """
        flat = [row for partial in partials for row in partial]
        n_pairs, leaf_pos = len(flat), self.table.leaf_pos
        blocks = {row: leaf_samples(self.leaves[leaf_pos[row]])
                  for row in dict.fromkeys(flat)}
        sizes = [b.shape[0] for b in blocks.values()]
        size = np.zeros(len(self.table), dtype=np.intp)   # per node row
        start = np.zeros(len(self.table), dtype=np.intp)
        at = list(blocks)
        size[at], start[at] = sizes, np.cumsum(sizes) - sizes
        pair_row = np.array(flat, dtype=np.intp)
        out = (size[pair_row], np.zeros(n_pairs, dtype=np.intp),
               np.zeros(n_pairs), np.zeros(n_pairs),
               np.full(n_pairs, math.inf), np.full(n_pairs, -math.inf))
        live = np.flatnonzero(out[0])
        if live.size:
            # Ragged element layout: pair p owns a run of its leaf's m_p
            # rows of the concatenated block.
            m = out[0][live]
            starts = np.cumsum(m) - m
            idx = np.arange(int(starts[-1] + m[-1])) - \
                np.repeat(starts - start[pair_row[live]], m)
            pool = np.concatenate(list(blocks.values()), axis=0)
            qi = np.repeat(np.arange(len(queries)),
                           [len(p) for p in partials])[live]
            qlo, qhi = (corner[qi] for corner in _corners(
                [q.rect for q in queries], len(self._pred_idx)))
            mask = np.ones(idx.shape[0], dtype=bool)
            for dim, col in enumerate(self._pred_idx):
                v = pool[idx, col]
                mask &= (v >= np.repeat(qlo[:, dim], m)) & \
                        (v <= np.repeat(qhi[:, dim], m))
            # Aggregation values, each element using its own pair's query
            # attribute (COUNT pairs borrow column 0; their values are
            # never read).
            cols = np.array([self.schema.index(q.attr)
                             if q.agg.reads_column else 0 for q in queries],
                            dtype=np.intp)[qi]
            vals = pool[idx, np.repeat(cols, m)]
            mvals = np.where(mask, vals, 0.0)
            out[1][live] = np.add.reduceat(mask.astype(np.intp), starts)
            out[2][live] = np.add.reduceat(mvals, starts)
            out[3][live] = np.add.reduceat(mvals * mvals, starts)
            out[4][live] = np.minimum.reduceat(
                np.where(mask, vals, math.inf), starts)
            out[5][live] = np.maximum.reduceat(
                np.where(mask, vals, -math.inf), starts)
        return tuple(col.tolist() for col in out)

    def _lone_moments(self, query: Query, partial: List[int],
                      leaf_samples: LeafSamplesFn) -> Moments:
        """:meth:`_leaf_moments` for one query, straight from each partial
        leaf's own sample block.  Sums are one-segment ``reduceat``s: they
        add in the batch's order, ``np.add.reduce`` does not."""
        col = self.schema.index(query.attr) if query.agg.reads_column else 0
        bounds = list(zip(self._pred_idx, map(float, query.rect.lo),
                          map(float, query.rect.hi)))
        per_pair = []
        for row in partial:
            rows = leaf_samples(self.leaves[self.table.leaf_pos[row]])
            if rows.shape[0] == 0:
                per_pair.append((0, 0, 0.0, 0.0, math.inf, -math.inf))
                continue
            mask = np.ones(rows.shape[0], dtype=bool)
            for c, a, b in bounds:
                mask &= (rows[:, c] >= a) & (rows[:, c] <= b)
            vals = rows[:, col]
            mvals = np.where(mask, vals, 0.0)
            per_pair.append((
                rows.shape[0], int(np.count_nonzero(mask)),
                float(np.add.reduceat(mvals, [0])[0]),
                float(np.add.reduceat(mvals * mvals, [0])[0]),
                float(np.where(mask, vals, math.inf).min()),
                float(np.where(mask, vals, -math.inf).max())))
        return tuple(map(list, zip(*per_pair))) or ([],) * 6

    # The estimators: ``moments[k][first + j]`` is the k-th moment of the
    # query's j-th partial row (see :data:`Moments`).
    def _answer_sum_count(self, query: Query, cover: List[int],
                          partial: List[int], first: int,
                          moments: Moments) -> QueryResult:
        is_count = query.agg is AggFunc.COUNT
        pos = None if is_count else self.stat_pos(query.attr)
        totals = (self.n0, self.h_total)
        agg = 0.0
        var_c = 0.0
        counts = self.table.column("count_estimates", *totals)
        if not is_count:
            sums = self.table.column("sum_estimates", pos, *totals)
            varsums = self.table.column("catchup_var_sums", pos, *totals)
        for row in cover:
            if is_count:
                agg += counts[row]
            else:
                agg += sums[row]
                var_c += varsums[row]
        samp = 0.0
        var_s = 0.0
        m, count, s, s2 = moments[:4]
        for p, row in enumerate(partial, first):
            n_i = counts[row]
            if is_count:
                c = float(count[p])
                est, var = estimators.sum_partial_moments(n_i, m[p], c, c)
            else:
                est, var = estimators.sum_partial_moments(n_i, m[p],
                                                          s[p], s2[p])
            samp += est
            var_s += var
        return QueryResult(agg + samp, var_c, var_s, False,
                           n_covered=len(cover), n_partial=len(partial))

    def _answer_avg(self, query: Query, cover: List[int],
                    partial: List[int], first: int,
                    moments: Moments) -> QueryResult:
        pos = self.stat_pos(query.attr)
        totals = (self.n0, self.h_total)
        n_q = 0.0
        counts = self.table.column("count_estimates", *totals)
        for row in cover:
            n_q += counts[row]
        for row in partial:
            n_q += counts[row]
        # The normalizer rides along (``n_q``) so shard merging can
        # reweight per-shard means into the union estimator (merge.py).
        if n_q <= 0:
            return QueryResult(math.nan, 0.0, 0.0, False,
                               n_covered=len(cover), n_partial=len(partial),
                               n_q=n_q)
        est = 0.0
        var_c = 0.0
        sums, varbases = (self.table.column("sum_estimates", pos, *totals),
                          self.table.column("catchup_var_bases", pos))
        for row in cover:
            est += sums[row] / n_q
            w_i = counts[row] / n_q
            var_c += (w_i * w_i) * varbases[row]
        var_s = 0.0
        m, count, s, s2 = moments[:4]
        for p, row in enumerate(partial, first):
            c_est, c_var = estimators.avg_partial_moments(
                counts[row], n_q, m[p], count[p], s[p], s2[p])
            est += c_est
            var_s += c_var
        return QueryResult(est, var_c, var_s, False,
                           n_covered=len(cover), n_partial=len(partial),
                           n_q=n_q)

    def _answer_variance(self, query: Query, cover: List[int],
                         partial: List[int], first: int,
                         moments: Moments) -> QueryResult:
        """VARIANCE/STDDEV composed from COUNT, SUM and sum-of-squares.

        Section 6.6: "aggregate functions such as STDDEV that can be
        composed using SUM and CNT" - every node maintains sum(a^2)
        alongside sum(a), so E[a^2] - E[a]^2 is a plug-in estimate.
        No confidence interval is reported (the delta-method variance of
        the composition is out of the paper's scope): ``ci_available``
        is false.
        """
        pos = self.stat_pos(query.attr)
        totals = (self.n0, self.h_total)
        count_est = 0.0
        sum_est = 0.0
        sumsq_est = 0.0
        counts, sums, sumsqs = (
            self.table.column("count_estimates", *totals),
            self.table.column("sum_estimates", pos, *totals),
            self.table.column("sum_estimates", pos, *totals, True))
        for row in cover:
            count_est += counts[row]
            sum_est += sums[row]
            sumsq_est += sumsqs[row]
        m, count, s, s2 = moments[:4]
        for p, row in enumerate(partial, first):
            if m[p] <= 0:
                continue
            n, total, totalsq = estimators.moments_partial(
                counts[row], m[p], count[p], s[p], s2[p])
            count_est += n
            sum_est += total
            sumsq_est += totalsq
        # Plug-in moments ride along (``m_*``) so shard merging can
        # re-compose the union's VARIANCE/STDDEV exactly (merge.py).
        est = math.nan
        if count_est > 0:
            mean = sum_est / count_est
            variance = max(0.0, sumsq_est / count_est - mean * mean)
            est = variance if query.agg is AggFunc.VARIANCE else \
                math.sqrt(variance)
        return QueryResult(est, 0.0, 0.0, False,
                           n_covered=len(cover), n_partial=len(partial),
                           m_count=count_est, m_sum=sum_est,
                           m_sumsq=sumsq_est, ci_available=False)

    def _answer_minmax(self, query: Query, cover: List[int],
                       partial: List[int], first: int,
                       moments: Moments) -> QueryResult:
        pos = self.stat_pos(query.attr)
        is_max = query.agg is AggFunc.MAX
        extremes = self.table.column("extreme_estimates", pos, is_max)
        # a covered node with no extremum information adds no candidate
        candidates = [extremes[row] for row in cover
                      if extremes[row] is not None]
        count, best = moments[1], moments[5 if is_max else 4]
        for p in range(first, first + len(partial)):
            if count[p] > 0:
                candidates.append(best[p])
        est = (max(candidates) if is_max else min(candidates)) \
            if candidates else math.nan
        return QueryResult(est, 0.0, 0.0, False,
                           n_covered=len(cover), n_partial=len(partial),
                           ci_available=False)

    #: The estimator of each family a tree answers (the sketch family
    #: never reaches one: :attr:`template` carries no sketch columns).
    _ANSWER = {AggFamily.ADDITIVE: _answer_sum_count,
               AggFamily.RATIO: _answer_avg,
               AggFamily.MOMENTS: _answer_variance,
               AggFamily.EXTREME: _answer_minmax}


def _corners(rects: Sequence[Rectangle], d: int
             ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(n, d)`` lo and hi corners of ``d``-dimensional rectangles
    (``fromiter`` over the flat bounds: half the cost of ``np.array``
    over a list of tuples)."""
    n = len(rects) * d
    return tuple(np.fromiter(chain.from_iterable(side), np.float64, n)
                 .reshape(-1, d) for side in
                 ((r.lo for r in rects), (r.hi for r in rects)))


def _cut_rows(rows: np.ndarray, hit: np.ndarray) -> List[List[int]]:
    """Each column's rows where an ``(n_nodes, nq)`` ``hit`` matrix is
    set, in position order: one ``tolist`` cut at the column bounds.
    (``flatnonzero`` of the transpose copies it to C order first, which
    is cheaper than ``nonzero`` striding over the view.)"""
    n = hit.shape[0]
    at = np.flatnonzero(hit.T)              # column-major positions
    flat = rows[at % n].tolist()
    ends = np.searchsorted(at, np.arange(n, n * hit.shape[1] + 1,
                                         n)).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _searchable(t: NodeTable) -> bool:
    """Whether 1-D walks end at the first leaf reaching ``x``: a child
    starts by its parent's (first) or its sibling's end (just past), a
    last child ends with its parent, leaf right edges never decrease."""
    if t.lo.shape[1] != 1:
        return False
    lo, hi = t.lo[:, 0].tolist(), t.hi[:, 0].tolist()
    ends = [hi[row] for row, kids in enumerate(t.kids) if not kids]
    return all(a <= b for a, b in zip(ends, ends[1:])) and all(
        lo[kids[0]] <= lo[up] and hi[kids[-1]] == hi[up] and
        all(lo[b] <= math.nextafter(hi[a], math.inf)
            for a, b in zip(kids, kids[1:]))
        for up, kids in enumerate(t.kids) if kids)


def _rect_distance(lo: Sequence[float], hi: Sequence[float],
                   coords: Sequence[float]) -> float:
    """L1 distance from a point to a rectangle (0 when inside)."""
    dist = 0.0
    for a, b, x in zip(lo, hi, coords):
        if x < a:
            dist += a - x
        elif x > b:
            dist += x - b
    return dist


def _nearest_slot(lo: np.ndarray, hi: np.ndarray,
                  pt: np.ndarray) -> np.ndarray:
    """:func:`_rect_distance`'s first-minimum child slot for ``(m, 1,
    d)`` points against ``(m, fanout, d)`` child rectangles."""
    with np.errstate(invalid="ignore"):     # inf - inf in unused lanes
        gap = np.where(pt < lo, lo - pt, np.where(pt > hi, pt - hi, 0.0))
    dist = np.zeros(gap.shape[:2])
    for dim in range(gap.shape[2]):
        dist += gap[:, :, dim]
    return dist.argmin(axis=1)
