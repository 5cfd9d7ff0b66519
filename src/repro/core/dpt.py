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

Maintenance runs on one :class:`~repro.core.node.NodeTable`: every
write entry point (:meth:`DynamicPartitionTree.insert_rows` /
:meth:`~DynamicPartitionTree.delete_rows` /
:meth:`~DynamicPartitionTree.add_catchup_rows`, their per-row and
subtree forms) sends its ``(n, d)`` coordinates through the one router
(:meth:`~DynamicPartitionTree._route`) and hands the resulting (node,
row) pairs to the table's grouped-update kernel - O(depth) array
operations per batch, however many nodes the rows touch.

Query processing is batched the same way:
:meth:`DynamicPartitionTree.query_many` computes the frontier of every
query rectangle in one shared traversal (:meth:`~DynamicPartitionTree.
frontier_many`) and evaluates each partial leaf's sample matrix against
all of its queries' rectangles in one broadcasted comparison; the
per-query :meth:`~DynamicPartitionTree.query` is a thin wrapper over the
same path, so batched and sequential answers are identical.
"""

from __future__ import annotations

import math
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..partitioning.spec import PartitionNode
from . import estimators
from .node import DPTNode, NodeTable
from .queries import (AggFamily, AggFunc, Query, QueryResult,
                      QueryTemplate, Rectangle)

LeafSamplesFn = Callable[[DPTNode], np.ndarray]

#: Batches with fewer rows than this are routed one row at a time over
#: the node table's list columns; larger ones level by level with array
#: operations.  The level-wise walk costs ~0.16 ms of fixed array-call
#: overhead, the row walk ~10 us per row, so they cross near 16 rows
#: (chosen by the microbench in ``.claude/skills/verify/SKILL.md``).
LEVELWISE_MIN_ROWS = 16

#: Query batches at least this large compute each node statistic for
#: every node at once (:class:`_NodeMemo`), smaller ones per node read:
#: a column costs ~5-15 us however few entries are used, an entry
#: ~1 us, and ``query_many`` crosses at 8 queries (341 vs 338 us).
WHOLE_COLUMN_MIN_QUERIES = 8


class _LeafMoments(NamedTuple):
    """Matched-sample moments of one (partial leaf, query) pair."""

    m: int        # stratum size m_i
    count: int    # number of matched sample rows
    s: float      # sum of matched aggregation values
    s2: float     # sum of squares of matched aggregation values
    vmin: float   # min of matched values (+inf when none matched)
    vmax: float   # max of matched values (-inf when none matched)


_NO_SAMPLES = _LeafMoments(0, 0, 0.0, 0.0, math.inf, -math.inf)

# per-query moments provider for a partial leaf
MomentsFn = Callable[[DPTNode], _LeafMoments]


class _Entries(dict):
    """A statistic column filled in entry by entry (row -> value)."""

    def __init__(self, nodes: List[DPTNode], estimate, args) -> None:
        self._make = nodes, estimate, args

    def __missing__(self, row: int) -> float:
        nodes, estimate, args = self._make
        value = self[row] = estimate(nodes[row], *args)
        return value


class _NodeMemo:
    """Per-batch memo of node statistic scalars.

    Queries in one batch overlap heavily on covered nodes, so each
    statistic is computed once per batch: as a whole column of the node
    table's estimate methods read back as a list, or - below
    :data:`WHOLE_COLUMN_MIN_QUERIES` queries, which read too few entries
    to repay that - entry by entry through the nodes' own methods.  The
    answer loops index either by node row; an entry is the number a
    per-node evaluation yields and the per-query accumulation order is
    untouched, so the float result is exactly what a solo
    :meth:`DynamicPartitionTree.query` computes.
    """

    __slots__ = ("_tree", "_whole", "_totals", "_cols", "exact")

    def __init__(self, tree: "DynamicPartitionTree", n_queries: int) -> None:
        self._tree = tree
        self._whole = n_queries >= WHOLE_COLUMN_MIN_QUERIES
        self._totals = (tree.n0, tree.h_total)
        self._cols: Dict[tuple, Sequence] = {}
        self.exact: List[bool] = tree._table.exact.tolist()

    def _col(self, estimate: str, *args, whole: bool = True) -> Sequence:
        col = self._cols.get((estimate, args))
        if col is None:
            if whole and self._whole:
                col = getattr(self._tree._table, estimate + "s")(
                    *args).tolist()
            else:
                col = _Entries(self._tree._nodes,
                               getattr(DPTNode, estimate), args)
            self._cols[(estimate, args)] = col
        return col

    def counts(self) -> Sequence[float]:
        return self._col("count_estimate", *self._totals)

    def sums(self, pos: int, squares: bool = False) -> Sequence[float]:
        return self._col("sum_estimate", pos, *self._totals, squares)

    def varsums(self, pos: int) -> Sequence[float]:
        return self._col("catchup_var_sum", pos, *self._totals)

    def varbases(self, pos: int) -> Sequence[float]:
        return self._col("catchup_var_base", pos)

    def extremes(self, pos: int, is_max: bool
                 ) -> Sequence[Tuple[Optional[float], bool]]:
        """(estimate, exactness) pairs; heaps are per node, so never a
        whole column."""
        return self._col("max_estimate" if is_max else "min_estimate",
                         pos, whole=False)


class DynamicPartitionTree:
    """A partition-tree synopsis over one query template."""

    def __init__(self, spec: PartitionNode, schema: Sequence[str],
                 predicate_attrs: Sequence[str],
                 stat_attrs: Optional[Sequence[str]] = None,
                 minmax_attrs: Optional[Sequence[str]] = None,
                 minmax_k: int = 32) -> None:
        self.schema = tuple(schema)
        self.predicate_attrs = tuple(predicate_attrs)
        if spec.rect.dim != len(self.predicate_attrs):
            raise ValueError("spec dimensionality != #predicate attributes")
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
        self._mm_pos = tuple(self._stat_pos[a] for a in minmax_attrs
                             if a in self._stat_pos)
        self._minmax_k = minmax_k
        self.n0 = 0                       # snapshot population at epoch start
        self._nodes: List[DPTNode] = []
        self._next_id = 0
        self.root = self._build(spec, *self._fresh_rows(spec))
        self._inflate_edges()
        self.leaves: List[DPTNode] = []
        self._index_leaves()
        self.n_updates = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _fresh_rows(self, spec: PartitionNode) -> Tuple[NodeTable, int]:
        """A zeroed table for ``spec``'s nodes and the id of its row 0."""
        return NodeTable(sum(1 for _ in spec.walk()),
                         len(self.stat_attrs)), self._next_id

    def _build(self, spec: PartitionNode, table: NodeTable,
               base: int) -> DPTNode:
        node = DPTNode(self._next_id, spec.rect, len(self.stat_attrs),
                       self._mm_pos, self._minmax_k, table,
                       self._next_id - base)
        self._next_id += 1
        self._nodes.append(node)
        for child_spec in spec.children:
            child = self._build(child_spec, table, base)
            child.parent = node
            node.children.append(child)
        return node

    def replace_subtree(self, node: DPTNode,
                        spec: PartitionNode) -> List[DPTNode]:
        """Swap ``node``'s children for a freshly partitioned subtree.

        The partial re-partitioning primitive of Appendix E: the subtree
        below ``node`` is discarded and rebuilt from ``spec``'s children
        (``spec.rect`` must cover the same region).  ``node`` itself and
        everything outside the subtree keep their statistics.  Returns
        the new subtree nodes (excluding ``node``); the caller is
        responsible for seeding their statistics and re-routing strata.
        """
        if not node.rect.contains_rect(spec.rect) and \
                not spec.rect.contains_rect(node.rect):
            raise ValueError("replacement spec does not cover the node")
        node.children = []
        before = len(self._nodes)
        # _build appends to _nodes; rebuild the registry afterwards so
        # discarded nodes disappear from iteration.
        table, base = self._fresh_rows(spec)
        for child_spec in spec.children:
            child = self._build(child_spec, table, base)
            child.parent = node
            node.children.append(child)
        new_nodes = self._nodes[before:]
        self._nodes = self.subtree_nodes(self.root)
        self._index_leaves()
        return new_nodes

    def _index_leaves(self) -> None:
        """Every structure change ends here: lay the node table out
        over the current nodes, then the leaf list and frontier mirrors."""
        self._table = NodeTable.of(self._nodes, len(self.stat_attrs))
        self.leaves = [n for n in self._nodes if n.is_leaf]
        self._leaf_ids = np.array([n.node_id for n in self.leaves],
                                  dtype=np.int64)
        self._index_frontier_order()

    def _index_frontier_order(self) -> None:
        """Precompute the frontier traversal as flat arrays.

        ``_dfs_nodes`` lists every node in the exact order the scalar
        :meth:`frontier` stack visits them (children expanded last-in
        first-out), so batched classification can emit per-query node
        lists in the identical order by walking positions ascending;
        ``_dfs_lo`` / ``_dfs_hi`` / ``_dfs_leaf`` are the node table's
        rectangle columns in that order.  ``_dfs_levels`` groups
        child->parent links by depth for the vectorized reachability
        propagation.
        """
        order: List[DPTNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        self._dfs_nodes = order
        rows = np.array([n._i for n in order], dtype=np.intp)
        pos = {n.node_id: i for i, n in enumerate(order)}
        self._dfs_lo = self._table.lo[rows]
        self._dfs_hi = self._table.hi[rows]
        self._dfs_leaf = self._table.leaf_pos[rows] >= 0
        depth_of: Dict[int, int] = {}
        levels: List[Tuple[List[int], List[int]]] = []
        for i, node in enumerate(order):
            if node.parent is None:
                depth_of[node.node_id] = 0
                continue
            depth = depth_of[node.parent.node_id] + 1
            depth_of[node.node_id] = depth
            while len(levels) < depth:
                levels.append(([], []))
            levels[depth - 1][0].append(i)
            levels[depth - 1][1].append(pos[node.parent.node_id])
        self._dfs_levels = [(np.array(c, dtype=np.intp),
                             np.array(p, dtype=np.intp))
                            for c, p in levels]

    def subtree_nodes(self, node: DPTNode) -> List[DPTNode]:
        """``node`` and everything below it, in the registry's walk
        order."""
        out: List[DPTNode] = []
        stack = [node]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(n.children)
        return out

    def subtree_leaf_count(self, node: DPTNode) -> int:
        return sum(n.is_leaf for n in self.subtree_nodes(node))

    def _inflate_edges(self) -> None:
        """Extend boundary partitions to infinity so every future tuple
        routes to a leaf (new data may fall outside the build-time domain).
        """
        orig = self.root.rect
        for node in self._nodes:
            node.rect = inflate_rect(node.rect, orig)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return len(self.leaves)

    @property
    def h_total(self) -> int:
        return self.root.h

    @property
    def n_current(self) -> float:
        """Live population estimate: snapshot size plus exact net delta."""
        return self.n0 + self.root.delta_count

    def nodes(self) -> Iterator[DPTNode]:
        return iter(self._nodes)

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
    def route_leaf(self, coords: Sequence[float]) -> DPTNode:
        """The leaf whose partition contains ``coords``."""
        return self._nodes[self._walk(coords, 0)[-1]]

    def route_rows(self, coords: np.ndarray) -> np.ndarray:
        """Leaf positions (into :attr:`leaves`) of ``(n, d)`` points."""
        return self._route(coords)[2]

    def leaf_ids_of(self, rows: np.ndarray) -> np.ndarray:
        """Leaf ``node_id`` of each full-schema ``(n, n_attrs)`` row:
        the stratum key the pooled sample is filed under."""
        return self._leaf_ids[self.route_rows(rows[:, self._pred_idx])]

    def _walk(self, point: Sequence[float], node: int) -> List[int]:
        """Table rows on one point's path from row ``node`` to its leaf.

        The routing rule, which :meth:`_route` applies to whole batches:
        the first child (in order) whose closed rectangle contains the
        point, else - a numeric edge case, or a NaN coordinate - the
        child nearest by L1 distance, first minimum winning (a NaN
        coordinate is at distance 0 from everything, so an all-NaN point
        goes to the first child).
        """
        kids, lo, hi = (self._table.kids, self._table.lo_rows,
                        self._table.hi_rows)
        path = [node]
        while kids[node]:
            for child in kids[node]:
                if all(a <= x <= b for a, x, b in
                       zip(lo[child], point, hi[child])):
                    break
            else:
                child = min(kids[node], key=lambda c: _rect_distance(
                    lo[c], hi[c], point))
            node = child
            path.append(node)
        return path

    def _route(self, coords: np.ndarray, start: int = 0,
               keep_start: bool = True
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The router: descend an ``(n, d)`` batch from row ``start``.

        Returns ``(ids, rows, leaf_of)``: the (node row, data row) pairs
        of every node on some row's path - each node's pairs in
        ascending data-row order, the start node's left out unless
        ``keep_start`` - and each row's leaf as a position in
        :attr:`leaves`.  Small batches take :meth:`_walk` per row;
        larger ones move all rows down one level per step with a
        handful of array operations (see :data:`LEVELWISE_MIN_ROWS`).
        Both apply the same rule, so they produce the same paths.
        """
        t = self._table
        n = coords.shape[0]
        first = 0 if keep_start else 1
        if n < LEVELWISE_MIN_ROWS:
            paths = [self._walk(point, start) for point in coords.tolist()]
            ids = np.array([i for path in paths for i in path[first:]],
                           dtype=np.intp)
            rows = np.repeat(np.arange(n),
                             [len(path) - first for path in paths])
            return ids, rows, t.leaf_pos[[path[-1] for path in paths]]
        cur = np.full(n, start, dtype=np.intp)
        rows, x = np.arange(n), coords
        levels = [(cur.copy(), rows)]
        while True:
            kids = t.child[cur[rows]]                     # (m, fanout)
            inner = kids[:, 0] < len(t.kids)              # not at a leaf
            if not inner.all():
                if not inner.any():
                    break
                rows, kids = rows[inner], kids[inner]
                x = coords[rows]
            pt = x[:, None, :]
            inside = ((t.lo[kids] <= pt) & (pt <= t.hi[kids])).all(axis=2)
            slot = inside.argmax(axis=1)
            lost = ~inside.any(axis=1)
            if lost.any():
                slot[lost] = _nearest_slot(t.lo[kids[lost]],
                                           t.hi[kids[lost]], pt[lost])
            below = kids[np.arange(rows.size), slot]
            cur[rows] = below
            levels.append((below, rows))
        levels = levels[first:] or [(cur[:0], cur[:0])]    # leaf start
        return (np.concatenate([ids for ids, _ in levels]),
                np.concatenate([rows for _, rows in levels]),
                t.leaf_pos[cur])

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
    def insert_row(self, row: np.ndarray) -> DPTNode:
        return self.leaves[int(self.insert_rows(np.asarray(row)[None])[0])]

    def delete_row(self, row: np.ndarray) -> DPTNode:
        return self.leaves[int(self.delete_rows(np.asarray(row)[None])[0])]

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
        self._table.apply_delta(ids, rows[src[:, None], self._stat_idx],
                                sign)
        return leaf_of

    def add_catchup_row(self, row: np.ndarray) -> DPTNode:
        """Propagate one archival sample through the tree (Section 4.3)."""
        return self.leaves[int(self.add_catchup_rows(np.asarray(row)[None])[0])]

    def add_catchup_rows(self, rows: np.ndarray,
                         subtree_root: Optional[DPTNode] = None
                         ) -> np.ndarray:
        """Catch-up for an ``(n, n_attrs)`` sample block, from the root
        or - seeding a partially re-partitioned region (Appendix E) -
        below ``subtree_root``, which then keeps its own statistics."""
        rows = self._as_batch(rows)
        ids, src, leaf_of = self._route(
            rows[:, self._pred_idx],
            0 if subtree_root is None else subtree_root._i,
            subtree_root is None)
        self._table.add_catchup(ids, rows[src[:, None], self._stat_idx])
        return leaf_of

    def add_catchup_row_subtree(self, subtree_root: DPTNode,
                                row: np.ndarray) -> None:
        self.add_catchup_rows(np.asarray(row)[None], subtree_root)

    def add_catchup_rows_subtree(self, subtree_root: DPTNode,
                                 rows: np.ndarray) -> None:
        self.add_catchup_rows(rows, subtree_root)

    # ------------------------------------------------------------------ #
    # query processing (Section 4.4)
    # ------------------------------------------------------------------ #
    def frontier(self, rect: Rectangle
                 ) -> Tuple[List[DPTNode], List[DPTNode]]:
        """Step 1: ``(R_cover, R_partial)`` node sets for a predicate."""
        cover: List[DPTNode] = []
        partial: List[DPTNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.rect):
                continue
            if rect.contains_rect(node.rect):
                cover.append(node)
            elif node.is_leaf:
                partial.append(node)
            else:
                stack.extend(node.children)
        return cover, partial

    def frontier_many(self, rects: Sequence[Rectangle]
                      ) -> Tuple[List[List[DPTNode]], List[List[DPTNode]]]:
        """Step 1 for a whole query batch in one vectorized pass.

        Every (node, query) pair is classified at once: two broadcasted
        comparisons give the intersect/contain matrices, a level-wise
        propagation marks which nodes each query's traversal would
        actually reach (a node is reached iff its parent is reached,
        intersecting and not contained), and one ``nonzero`` pass emits
        each query's cover/partial nodes.  Positions ascend in the
        scalar traversal's visit order (:meth:`_index_frontier_order`),
        and a pruned DFS visits a subsequence of the unpruned one, so
        each query's lists hold the same nodes in the same order as
        :meth:`frontier` returns.
        """
        nq = len(rects)
        lo = np.array([r.lo for r in rects], dtype=np.float64)
        hi = np.array([r.hi for r in rects], dtype=np.float64)
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
        nodes = self._dfs_nodes
        covers: List[List[DPTNode]] = [[] for _ in range(nq)]
        partials: List[List[DPTNode]] = [[] for _ in range(nq)]
        qi_arr, pos_arr = np.nonzero((reach & contain).T)
        for qi, p in zip(qi_arr.tolist(), pos_arr.tolist()):
            covers[qi].append(nodes[p])
        qi_arr, pos_arr = np.nonzero(
            (reach & descend & self._dfs_leaf[:, None]).T)
        for qi, p in zip(qi_arr.tolist(), pos_arr.tolist()):
            partials[qi].append(nodes[p])
        return covers, partials

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
        (:meth:`frontier_many`), each partial leaf's sample matrix is
        tested against all of its queries' rectangles in one broadcasted
        comparison (:meth:`_leaf_moments`), and only the final per-query
        estimation - a pure function of that query's own frontier and
        matched samples - runs per query.  Results are returned in
        request order and match :meth:`query` exactly.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            self.template.check(query)
        if len(queries) == 1:
            cover, partial = self.frontier(queries[0].rect)
            covers, partials = [cover], [partial]
        else:
            covers, partials = self.frontier_many(
                [q.rect for q in queries])
        moments = self._leaf_moments(queries, partials, leaf_samples)
        # Node statistics are memoized across the batch: overlapping
        # cover sets pay one estimate computation per node.
        memo = _NodeMemo(self, len(queries))
        results: List[QueryResult] = []
        for qi, query in enumerate(queries):
            def moments_of(leaf: DPTNode, qi: int = qi) -> "_LeafMoments":
                return moments[(leaf.node_id, qi)]
            results.append(self._ANSWER[query.agg.family](
                self, query, covers[qi], partials[qi], moments_of, memo))
        return results

    def _leaf_moments(self, queries: List[Query],
                      partials: List[List[DPTNode]],
                      leaf_samples: LeafSamplesFn
                      ) -> Dict[Tuple[int, int], "_LeafMoments"]:
        """Matched-sample moments for every (partial leaf, query) pair.

        The batch's partial-leaf sample matrices are concatenated into
        one block, every query rectangle is tested against it in one
        broadcasted comparison, and the per-leaf moments the estimators
        need - matched count, sum, sum of squares, min and max of the
        aggregation attribute - come out of segment reductions
        (``reduceat``) over the leaf boundaries.  A segment reduction
        depends only on that leaf's own rows, so every moment is
        identical to what a single-query evaluation would produce.
        """
        moments: Dict[Tuple[int, int], _LeafMoments] = {}
        leaf_seg: Dict[int, int] = {}     # leaf id -> segment (-1: empty)
        blocks: List[np.ndarray] = []
        pair_lid: List[int] = []
        pair_qi: List[int] = []
        pair_seg: List[int] = []
        for qi, partial in enumerate(partials):
            for leaf in partial:
                lid = leaf.node_id
                seg = leaf_seg.get(lid)
                if seg is None:
                    rows = leaf_samples(leaf)
                    if rows.shape[0] == 0:
                        seg = -1
                    else:
                        seg = len(blocks)
                        blocks.append(rows)
                    leaf_seg[lid] = seg
                if seg < 0:
                    moments[(lid, qi)] = _NO_SAMPLES
                else:
                    pair_lid.append(lid)
                    pair_qi.append(qi)
                    pair_seg.append(seg)
        n_pairs = len(pair_qi)
        if n_pairs == 0:
            return moments
        seg_sizes = np.array([b.shape[0] for b in blocks], dtype=np.intp)
        seg_starts = np.zeros(len(blocks), dtype=np.intp)
        np.cumsum(seg_sizes[:-1], out=seg_starts[1:])
        pool = np.concatenate(blocks, axis=0)
        # Ragged element layout: pair p owns a run of its leaf's m_p rows.
        seg_arr = np.asarray(pair_seg, dtype=np.intp)
        pair_m = seg_sizes[seg_arr]
        bounds = np.zeros(n_pairs + 1, dtype=np.intp)
        np.cumsum(pair_m, out=bounds[1:])
        starts = bounds[:-1]
        idx = (np.arange(int(bounds[-1])) - np.repeat(starts, pair_m) +
               np.repeat(seg_starts[seg_arr], pair_m))
        qlo = np.array([queries[qi].rect.lo for qi in pair_qi])
        qhi = np.array([queries[qi].rect.hi for qi in pair_qi])
        mask = np.ones(idx.shape[0], dtype=bool)
        for dim, col in enumerate(self._pred_idx):
            v = pool[idx, col]
            mask &= (v >= np.repeat(qlo[:, dim], pair_m)) & \
                    (v <= np.repeat(qhi[:, dim], pair_m))
        cnts = np.add.reduceat(mask.astype(np.float64), starts)
        # Aggregation values, each element using its own pair's query
        # attribute (COUNT pairs borrow column 0; their values are never
        # read).
        attr_cols = np.array(
            [self.schema.index(queries[qi].attr)
             if queries[qi].agg.reads_column else 0 for qi in pair_qi],
            dtype=np.intp)
        vals = pool[idx, np.repeat(attr_cols, pair_m)]
        mvals = np.where(mask, vals, 0.0)
        s = np.add.reduceat(mvals, starts)
        s2 = np.add.reduceat(mvals * mvals, starts)
        vmin = np.minimum.reduceat(np.where(mask, vals, math.inf), starts)
        vmax = np.maximum.reduceat(np.where(mask, vals, -math.inf),
                                   starts)
        for p in range(n_pairs):
            moments[(pair_lid[p], pair_qi[p])] = _LeafMoments(
                int(pair_m[p]), int(cnts[p]), float(s[p]), float(s2[p]),
                float(vmin[p]), float(vmax[p]))
        return moments

    def _answer_sum_count(self, query: Query, cover: List[DPTNode],
                          partial: List[DPTNode], moments_of: "MomentsFn",
                          memo: "_NodeMemo") -> QueryResult:
        is_count = query.agg is AggFunc.COUNT
        pos = None if is_count else self.stat_pos(query.attr)
        agg = 0.0
        var_c = 0.0
        all_exact = True
        counts = memo.counts()
        if not is_count:
            sums, varsums = memo.sums(pos), memo.varsums(pos)
        for node in cover:
            if is_count:
                agg += counts[node._i]
            else:
                agg += sums[node._i]
                var_c += varsums[node._i]
            all_exact = all_exact and memo.exact[node._i]
        samp = 0.0
        var_s = 0.0
        for leaf in partial:
            mom = moments_of(leaf)
            n_i = counts[leaf._i]
            if is_count:
                c = float(mom.count)
                est, var = estimators.sum_partial_moments(n_i, mom.m, c, c)
            else:
                est, var = estimators.sum_partial_moments(n_i, mom.m,
                                                          mom.s, mom.s2)
            samp += est
            var_s += var
        exact = all_exact and not partial
        return QueryResult(agg + samp, var_c, var_s, exact,
                           n_covered=len(cover), n_partial=len(partial))

    def _answer_avg(self, query: Query, cover: List[DPTNode],
                    partial: List[DPTNode], moments_of: "MomentsFn",
                    memo: "_NodeMemo") -> QueryResult:
        pos = self.stat_pos(query.attr)
        n_q = 0.0
        counts = memo.counts()
        for node in cover:
            n_q += counts[node._i]
        for leaf in partial:
            n_q += counts[leaf._i]
        # The normalizer rides along in ``details`` so shard merging can
        # reweight per-shard means into the union estimator (merge.py).
        if n_q <= 0:
            return QueryResult(math.nan, 0.0, 0.0, False,
                               n_covered=len(cover), n_partial=len(partial),
                               details={"n_q": n_q})
        est = 0.0
        var_c = 0.0
        all_exact = True
        sums, varbases = memo.sums(pos), memo.varbases(pos)
        for node in cover:
            est += sums[node._i] / n_q
            w_i = counts[node._i] / n_q
            var_c += (w_i * w_i) * varbases[node._i]
            all_exact = all_exact and memo.exact[node._i]
        var_s = 0.0
        for leaf in partial:
            mom = moments_of(leaf)
            c_est, c_var = estimators.avg_partial_moments(
                counts[leaf._i], n_q, mom.m, mom.count, mom.s, mom.s2)
            est += c_est
            var_s += c_var
        exact = all_exact and not partial
        return QueryResult(est, var_c, var_s, exact,
                           n_covered=len(cover), n_partial=len(partial),
                           details={"n_q": n_q})

    def _answer_variance(self, query: Query, cover: List[DPTNode],
                         partial: List[DPTNode], moments_of: "MomentsFn",
                         memo: "_NodeMemo") -> QueryResult:
        """VARIANCE/STDDEV composed from COUNT, SUM and sum-of-squares.

        Section 6.6: "aggregate functions such as STDDEV that can be
        composed using SUM and CNT" - every node maintains sum(a^2)
        alongside sum(a), so E[a^2] - E[a]^2 is a plug-in estimate.
        No confidence interval is reported (the delta-method variance of
        the composition is out of the paper's scope); ``details`` flags
        this.
        """
        pos = self.stat_pos(query.attr)
        count_est = 0.0
        sum_est = 0.0
        sumsq_est = 0.0
        all_exact = True
        counts, sums, sumsqs = (memo.counts(), memo.sums(pos),
                                memo.sums(pos, squares=True))
        for node in cover:
            count_est += counts[node._i]
            sum_est += sums[node._i]
            sumsq_est += sumsqs[node._i]
            all_exact = all_exact and memo.exact[node._i]
        for leaf in partial:
            mom = moments_of(leaf)
            if mom.m <= 0:
                continue
            count, total, totalsq = estimators.moments_partial(
                counts[leaf._i], mom.m, mom.count, mom.s, mom.s2)
            count_est += count
            sum_est += total
            sumsq_est += totalsq
        # Plug-in moments ride along in ``details`` so shard merging can
        # re-compose the union's VARIANCE/STDDEV exactly (merge.py).
        moments = (count_est, sum_est, sumsq_est)
        if count_est <= 0:
            return QueryResult(math.nan, 0.0, 0.0, False,
                               n_covered=len(cover),
                               n_partial=len(partial),
                               details={"ci": "unavailable",
                                        "moments": moments})
        mean = sum_est / count_est
        variance = max(0.0, sumsq_est / count_est - mean * mean)
        est = variance if query.agg is AggFunc.VARIANCE else \
            math.sqrt(variance)
        exact = all_exact and not partial
        return QueryResult(est, 0.0, 0.0, exact,
                           n_covered=len(cover), n_partial=len(partial),
                           details={"ci": "unavailable",
                                    "moments": moments})

    def _answer_minmax(self, query: Query, cover: List[DPTNode],
                       partial: List[DPTNode], moments_of: "MomentsFn",
                       memo: "_NodeMemo") -> QueryResult:
        pos = self.stat_pos(query.attr)
        is_max = query.agg is AggFunc.MAX
        candidates: List[float] = []
        all_exact = True
        extremes = memo.extremes(pos, is_max)
        for node in cover:
            value, exact = extremes[node._i]
            if value is None:
                # A covered node with no extremum information at all
                # cannot prove the answer: its true MIN/MAX is unknown,
                # so the result must not be reported as exact.
                all_exact = False
                continue
            candidates.append(value)
            all_exact = all_exact and exact
        for leaf in partial:
            mom = moments_of(leaf)
            if mom.count > 0:
                candidates.append(mom.vmax if is_max else mom.vmin)
        if not candidates:
            # Every candidate source was missing: no estimate exists,
            # and the answer is certainly not exact.
            return QueryResult(math.nan, 0.0, 0.0, False,
                               n_covered=len(cover), n_partial=len(partial))
        est = max(candidates) if is_max else min(candidates)
        exact = all_exact and not partial
        return QueryResult(est, 0.0, 0.0, exact,
                           n_covered=len(cover), n_partial=len(partial))

    #: The estimator of each family a tree answers (the sketch family
    #: never reaches one: :attr:`template` carries no sketch columns).
    _ANSWER = {AggFamily.ADDITIVE: _answer_sum_count,
               AggFamily.RATIO: _answer_avg,
               AggFamily.MOMENTS: _answer_variance,
               AggFamily.EXTREME: _answer_minmax}


def inflate_rect(rect: Rectangle, domain: Rectangle) -> Rectangle:
    """``rect`` with each edge it shares with ``domain`` moved to infinity
    (the rectangle a tree built over ``domain`` gives that node)."""
    return Rectangle(
        tuple(-math.inf if a == o else a
              for a, o in zip(rect.lo, domain.lo)),
        tuple(math.inf if b == o else b
              for b, o in zip(rect.hi, domain.hi)))


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
