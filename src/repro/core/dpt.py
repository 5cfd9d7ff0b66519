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

Maintenance is vectorized: :meth:`DynamicPartitionTree.insert_rows` /
:meth:`~DynamicPartitionTree.delete_rows` /
:meth:`~DynamicPartitionTree.add_catchup_rows` route an ``(n, d)``
coordinate batch to leaves with vectorized rectangle tests and apply
grouped per-node statistics along the root-to-leaf paths; the per-row
methods delegate to the same machinery.

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
from .node import DPTNode
from .queries import AggFunc, Query, QueryResult, Rectangle

LeafSamplesFn = Callable[[DPTNode], np.ndarray]


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


class _NodeMemo:
    """Per-batch memo of node statistic scalars.

    Queries in one batch overlap heavily on covered nodes; memoizing per
    (node, statistic) turns the repeated estimate method calls into dict
    hits while keeping the per-query accumulation order - and therefore
    the float result - exactly what a solo :meth:`DynamicPartitionTree.
    query` computes.
    """

    __slots__ = ("_tree", "_count", "_sum", "_sumsq", "_varsum",
                 "_varbase", "_minmax")

    def __init__(self, tree: "DynamicPartitionTree") -> None:
        self._tree = tree
        self._count: Dict[int, float] = {}
        self._sum: Dict[Tuple[int, int], float] = {}
        self._sumsq: Dict[Tuple[int, int], float] = {}
        self._varsum: Dict[Tuple[int, int], float] = {}
        self._varbase: Dict[Tuple[int, int], float] = {}
        self._minmax: Dict[Tuple[int, int, bool],
                           Tuple[Optional[float], bool]] = {}

    def count(self, node: DPTNode) -> float:
        v = self._count.get(node.node_id)
        if v is None:
            t = self._tree
            v = node.count_estimate(t.n0, t.h_total)
            self._count[node.node_id] = v
        return v

    def sum(self, node: DPTNode, pos: int) -> float:
        key = (node.node_id, pos)
        v = self._sum.get(key)
        if v is None:
            t = self._tree
            v = node.sum_estimate(pos, t.n0, t.h_total)
            self._sum[key] = v
        return v

    def sumsq(self, node: DPTNode, pos: int) -> float:
        key = (node.node_id, pos)
        v = self._sumsq.get(key)
        if v is None:
            t = self._tree
            v = node.sumsq_estimate(pos, t.n0, t.h_total)
            self._sumsq[key] = v
        return v

    def varsum(self, node: DPTNode, pos: int) -> float:
        key = (node.node_id, pos)
        v = self._varsum.get(key)
        if v is None:
            t = self._tree
            v = node.catchup_var_sum(pos, t.n0, t.h_total)
            self._varsum[key] = v
        return v

    def varbase(self, node: DPTNode, pos: int) -> float:
        key = (node.node_id, pos)
        v = self._varbase.get(key)
        if v is None:
            v = node.catchup_var_base(pos)
            self._varbase[key] = v
        return v

    def minmax(self, node: DPTNode, pos: int, is_max: bool
               ) -> Tuple[Optional[float], bool]:
        key = (node.node_id, pos, is_max)
        v = self._minmax.get(key)
        if v is None:
            v = node.max_estimate(pos) if is_max \
                else node.min_estimate(pos)
            self._minmax[key] = v
        return v


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
        self.root = self._build(spec, self._mm_pos, minmax_k)
        self._inflate_edges()
        self.leaves: List[DPTNode] = []
        self._leaf_pos: Dict[int, int] = {}
        self._index_leaves()
        self.n_updates = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, spec: PartitionNode, mm_pos: Tuple[int, ...],
               minmax_k: int) -> DPTNode:
        node = DPTNode(self._next_id, spec.rect, len(self.stat_attrs),
                       minmax_attrs=mm_pos, minmax_k=minmax_k)
        self._next_id += 1
        self._nodes.append(node)
        for child_spec in spec.children:
            child = self._build(child_spec, mm_pos, minmax_k)
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
        for child_spec in spec.children:
            child = self._build(child_spec, self._mm_pos, self._minmax_k)
            child.parent = node
            node.children.append(child)
        new_nodes = self._nodes[before:]
        self._nodes = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            self._nodes.append(n)
            stack.extend(n.children)
        self._index_leaves()
        return new_nodes

    def _index_leaves(self) -> None:
        self.leaves = [n for n in self._nodes if n.is_leaf]
        self._leaf_pos = {n.node_id: i for i, n in enumerate(self.leaves)}
        self._index_frontier_order()

    def _index_frontier_order(self) -> None:
        """Precompute the frontier traversal as flat arrays.

        ``_dfs_nodes`` lists every node in the exact order the scalar
        :meth:`frontier` stack visits them (children expanded last-in
        first-out), so batched classification can emit per-query node
        lists in the identical order by walking positions ascending.
        ``_dfs_levels`` groups child->parent links by depth for the
        vectorized reachability propagation.  Node rects only change
        through structure changes, which all funnel through
        :meth:`_index_leaves`.
        """
        order: List[DPTNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        self._dfs_nodes = order
        pos = {n.node_id: i for i, n in enumerate(order)}
        self._dfs_lo = np.array([n.rect.lo for n in order])
        self._dfs_hi = np.array([n.rect.hi for n in order])
        self._dfs_leaf = np.array([n.is_leaf for n in order], dtype=bool)
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

    def subtree_leaf_count(self, node: DPTNode) -> int:
        count = 0
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                count += 1
            stack.extend(n.children)
        return count

    def add_catchup_row_subtree(self, subtree_root: DPTNode,
                                row: np.ndarray) -> None:
        """Catch-up propagation restricted to a subtree (Appendix E).

        Used when seeding a partially re-partitioned region: the ancestor
        path keeps its statistics, only the fresh descendants accumulate.
        """
        stats = self._stat_values(row)
        coords = self._coords(row)
        node = subtree_root
        while not node.is_leaf:
            for child in node.children:
                if child.rect.contains_point(coords):
                    node = child
                    break
            else:
                node = min(node.children,
                           key=lambda c: _rect_distance(c.rect, coords))
            node.add_catchup(stats)

    def add_catchup_rows_subtree(self, subtree_root: DPTNode,
                                 rows: np.ndarray) -> None:
        """Vectorized subtree catch-up: one grouped pass per node.

        The batched counterpart of :meth:`add_catchup_row_subtree`, used
        by partial re-partitioning to seed a fresh subtree from all the
        pooled samples in its region at once.  Child selection matches
        the scalar path (first containing child, else nearest by L1
        rectangle distance with first-minimum tie-breaking); the subtree
        root itself keeps its statistics, exactly as in the scalar
        routine.
        """
        rows = self._as_batch(rows)
        n = rows.shape[0]
        if n == 0:
            return
        stats = rows[:, self._stat_idx]
        coords = rows[:, self._pred_idx]
        stack: List[Tuple[DPTNode, np.ndarray]] = \
            [(subtree_root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if node is not subtree_root:
                node.add_catchup_batch(stats[idx])
            if node.is_leaf:
                continue
            unassigned = np.ones(idx.size, dtype=bool)
            for child in node.children:
                if not unassigned.any():
                    break
                sub = idx[unassigned]
                inside = child.rect.contains_points(coords[sub])
                if inside.any():
                    stack.append((child, sub[inside]))
                    where = np.flatnonzero(unassigned)
                    unassigned[where[inside]] = False
            if unassigned.any():
                # numeric edge case: snap leftovers to the nearest child
                sub = idx[unassigned]
                dists = np.stack([child.rect.distances(coords[sub])
                                  for child in node.children])
                choice = np.argmin(dists, axis=0)
                for ci, child in enumerate(node.children):
                    sel = sub[choice == ci]
                    if sel.size:
                        stack.append((child, sel))

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
    def _coords(self, row: np.ndarray) -> np.ndarray:
        return row[self._pred_idx]

    def _stat_values(self, row: np.ndarray) -> np.ndarray:
        return row[self._stat_idx]

    def route_leaf(self, coords: Sequence[float]) -> DPTNode:
        """The leaf whose partition contains ``coords``."""
        node = self.root
        while not node.is_leaf:
            for child in node.children:
                if child.rect.contains_point(coords):
                    node = child
                    break
            else:  # numeric edge case: snap to the nearest child
                node = min(node.children,
                           key=lambda c: _rect_distance(c.rect, coords))
        return node

    def _path(self, coords: Sequence[float]) -> List[DPTNode]:
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            for child in node.children:
                if child.rect.contains_point(coords):
                    node = child
                    break
            else:
                node = min(node.children,
                           key=lambda c: _rect_distance(c.rect, coords))
            path.append(node)
        return path

    def _route_batch(self, coords: np.ndarray
                     ) -> Tuple[List[Tuple[DPTNode, np.ndarray]],
                                np.ndarray]:
        """Route an ``(n, d)`` coordinate batch to leaves in one sweep.

        Returns ``(assignments, leaf_of)``: ``assignments`` lists every
        node lying on some row's root-to-leaf path together with the
        indices of the rows routed through it (the root carries all
        rows), ``leaf_of`` maps each row to its leaf's position in
        :attr:`leaves`.  Child selection matches :meth:`_path` exactly -
        first containing child, else nearest by L1 rectangle distance
        with first-minimum tie-breaking - so the batch and per-row paths
        land every row on the same leaf.
        """
        n = coords.shape[0]
        leaf_of = np.empty(n, dtype=np.intp)
        assignments: List[Tuple[DPTNode, np.ndarray]] = []
        stack: List[Tuple[DPTNode, np.ndarray]] = \
            [(self.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            assignments.append((node, idx))
            if node.is_leaf:
                leaf_of[idx] = self._leaf_pos[node.node_id]
                continue
            unassigned = np.ones(idx.size, dtype=bool)
            for child in node.children:
                if not unassigned.any():
                    break
                sub = idx[unassigned]
                inside = child.rect.contains_points(coords[sub])
                if inside.any():
                    stack.append((child, sub[inside]))
                    where = np.flatnonzero(unassigned)
                    unassigned[where[inside]] = False
            if unassigned.any():
                # numeric edge case: snap leftovers to the nearest child
                sub = idx[unassigned]
                dists = np.stack([child.rect.distances(coords[sub])
                                  for child in node.children])
                choice = np.argmin(dists, axis=0)
                for ci, child in enumerate(node.children):
                    rows = sub[choice == ci]
                    if rows.size:
                        stack.append((child, rows))
        return assignments, leaf_of

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
        leaf_of = self.insert_rows(
            np.asarray(row, dtype=np.float64)[None, :])
        return self.leaves[int(leaf_of[0])]

    def delete_row(self, row: np.ndarray) -> DPTNode:
        leaf_of = self.delete_rows(
            np.asarray(row, dtype=np.float64)[None, :])
        return self.leaves[int(leaf_of[0])]

    def insert_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized insert of an ``(n, n_attrs)`` row block.

        Every node on a root-to-leaf path receives its rows' delta
        statistics as one grouped accumulation instead of n scalar
        updates.  Returns per-row leaf positions (indices into
        :attr:`leaves`).
        """
        rows = self._as_batch(rows)
        n = rows.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.intp)
        self.n_updates += n
        if n == 1:
            # scalar route: a one-row reduction equals the row exactly,
            # so this path is bit-identical to the batched one
            stats = rows[0, self._stat_idx]
            path = self._path(rows[0, self._pred_idx])
            for node in path:
                node.apply_insert(stats)
            return np.array([self._leaf_pos[path[-1].node_id]],
                            dtype=np.intp)
        stats = rows[:, self._stat_idx]
        assignments, leaf_of = self._route_batch(rows[:, self._pred_idx])
        for node, idx in assignments:
            node.apply_insert_batch(stats[idx])
        return leaf_of

    def delete_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized delete of an ``(n, n_attrs)`` row block."""
        rows = self._as_batch(rows)
        n = rows.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.intp)
        self.n_updates += n
        if n == 1:
            stats = rows[0, self._stat_idx]
            path = self._path(rows[0, self._pred_idx])
            for node in path:
                node.apply_delete(stats)
            return np.array([self._leaf_pos[path[-1].node_id]],
                            dtype=np.intp)
        stats = rows[:, self._stat_idx]
        assignments, leaf_of = self._route_batch(rows[:, self._pred_idx])
        for node, idx in assignments:
            node.apply_delete_batch(stats[idx])
        return leaf_of

    def add_catchup_row(self, row: np.ndarray) -> DPTNode:
        """Propagate one archival sample through the tree (Section 4.3)."""
        row = np.asarray(row, dtype=np.float64)
        stats = row[self._stat_idx]
        path = self._path(row[self._pred_idx])
        for node in path:
            node.add_catchup(stats)
        return path[-1]

    def add_catchup_rows(self, rows: np.ndarray) -> None:
        """Vectorized catch-up: one grouped accumulation per path node."""
        rows = self._as_batch(rows)
        if rows.shape[0] == 0:
            return
        stats = rows[:, self._stat_idx]
        assignments, _ = self._route_batch(rows[:, self._pred_idx])
        for node, idx in assignments:
            node.add_catchup_batch(stats[idx])

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
        comparison (:meth:`_match_masks`), and only the final per-query
        estimation - a pure function of that query's own frontier and
        matched samples - runs per query.  Results are returned in
        request order and match :meth:`query` exactly.
        """
        queries = list(queries)
        if not queries:
            return []
        for query in queries:
            if query.predicate_attrs != self.predicate_attrs:
                raise ValueError(
                    f"query predicate attrs {query.predicate_attrs} do "
                    f"not match synopsis attrs {self.predicate_attrs}")
        if len(queries) == 1:
            cover, partial = self.frontier(queries[0].rect)
            covers, partials = [cover], [partial]
        else:
            covers, partials = self.frontier_many(
                [q.rect for q in queries])
        moments = self._leaf_moments(queries, partials, leaf_samples)
        # Node statistics are memoized across the batch: overlapping
        # cover sets pay one estimate computation per node.
        memo = _NodeMemo(self)
        results: List[QueryResult] = []
        for qi, query in enumerate(queries):
            def moments_of(leaf: DPTNode, qi: int = qi) -> "_LeafMoments":
                return moments[(leaf.node_id, qi)]
            results.append(self._answer(query, covers[qi], partials[qi],
                                        moments_of, memo))
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
            [0 if queries[qi].agg is AggFunc.COUNT
             else self.schema.index(queries[qi].attr) for qi in pair_qi],
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

    def _answer(self, query: Query, cover: List[DPTNode],
                partial: List[DPTNode], moments_of: "MomentsFn",
                memo: "_NodeMemo") -> QueryResult:
        if query.agg in (AggFunc.SUM, AggFunc.COUNT):
            return self._answer_sum_count(query, cover, partial,
                                          moments_of, memo)
        if query.agg is AggFunc.AVG:
            return self._answer_avg(query, cover, partial,
                                    moments_of, memo)
        if query.agg in (AggFunc.VARIANCE, AggFunc.STDDEV):
            return self._answer_variance(query, cover, partial,
                                         moments_of, memo)
        return self._answer_minmax(query, cover, partial,
                                   moments_of, memo)

    # -- helpers -------------------------------------------------------- #
    def _match_masks(self, lo: np.ndarray, hi: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
        """Boolean ``(n_queries, m)`` matrix of rows matching each rect.

        One broadcasted comparison per predicate dimension replaces the
        per-query mask loop; boolean tests are exact, so every mask row
        equals the mask a single-query evaluation would produce.
        """
        mask = np.ones((lo.shape[0], rows.shape[0]), dtype=bool)
        for dim, col in enumerate(self._pred_idx):
            vals = rows[:, col]
            mask &= (vals >= lo[:, dim, None]) & (vals <= hi[:, dim, None])
        return mask

    def _matched(self, query: Query, rows: np.ndarray
                 ) -> Tuple[np.ndarray, int]:
        """(matched aggregation values, stratum size) for a partial leaf."""
        m_i = rows.shape[0]
        if m_i == 0:
            return np.empty(0), 0
        lo = np.asarray(query.rect.lo, dtype=np.float64)[None, :]
        hi = np.asarray(query.rect.hi, dtype=np.float64)[None, :]
        mask = self._match_masks(lo, hi, rows)[0]
        if query.agg is AggFunc.COUNT:
            return np.ones(int(mask.sum())), m_i
        return rows[mask, self.schema.index(query.attr)], m_i

    def _answer_sum_count(self, query: Query, cover: List[DPTNode],
                          partial: List[DPTNode], moments_of: "MomentsFn",
                          memo: "_NodeMemo") -> QueryResult:
        is_count = query.agg is AggFunc.COUNT
        pos = None if is_count else self.stat_pos(query.attr)
        agg = 0.0
        var_c = 0.0
        all_exact = True
        for node in cover:
            if is_count:
                agg += memo.count(node)
            else:
                agg += memo.sum(node, pos)
                var_c += memo.varsum(node, pos)
            all_exact = all_exact and node.exact
        samp = 0.0
        var_s = 0.0
        for leaf in partial:
            mom = moments_of(leaf)
            n_i = memo.count(leaf)
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
        for node in cover:
            n_q += memo.count(node)
        for leaf in partial:
            n_q += memo.count(leaf)
        # The normalizer rides along in ``details`` so shard merging can
        # reweight per-shard means into the union estimator (merge.py).
        if n_q <= 0:
            return QueryResult(math.nan, 0.0, 0.0, False,
                               n_covered=len(cover), n_partial=len(partial),
                               details={"n_q": n_q})
        est = 0.0
        var_c = 0.0
        all_exact = True
        for node in cover:
            est += memo.sum(node, pos) / n_q
            w_i = memo.count(node) / n_q
            var_c += (w_i * w_i) * memo.varbase(node, pos)
            all_exact = all_exact and node.exact
        var_s = 0.0
        for leaf in partial:
            mom = moments_of(leaf)
            c_est, c_var = estimators.avg_partial_moments(
                memo.count(leaf), n_q, mom.m, mom.count, mom.s, mom.s2)
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
        for node in cover:
            count_est += memo.count(node)
            sum_est += memo.sum(node, pos)
            sumsq_est += memo.sumsq(node, pos)
            all_exact = all_exact and node.exact
        for leaf in partial:
            mom = moments_of(leaf)
            if mom.m <= 0:
                continue
            count, total, totalsq = estimators.moments_partial(
                memo.count(leaf), mom.m, mom.count, mom.s, mom.s2)
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
        for node in cover:
            value, exact = memo.minmax(node, pos, is_max)
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


def inflate_rect(rect: Rectangle, domain: Rectangle) -> Rectangle:
    """``rect`` with each edge it shares with ``domain`` moved to infinity
    (the rectangle a tree built over ``domain`` gives that node)."""
    return Rectangle(
        tuple(-math.inf if a == o else a
              for a, o in zip(rect.lo, domain.lo)),
        tuple(math.inf if b == o else b
              for b, o in zip(rect.hi, domain.hi)))


def _rect_distance(rect: Rectangle, coords: Sequence[float]) -> float:
    """L1 distance from a point to a rectangle (0 when inside)."""
    dist = 0.0
    for lo, hi, x in zip(rect.lo, rect.hi, coords):
        if x < lo:
            dist += lo - x
        elif x > hi:
            dist += x - hi
    return dist
