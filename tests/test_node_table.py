"""Differential oracle for the partition tree's node table (PR 18).

The tree's statistics moved from one object per node to one
struct-of-arrays table (:class:`repro.core.node.NodeTable`) written by
a single router and a single grouped-update kernel.  The contract is
*bit identity with the object tree it replaced*, so that tree is frozen
here - node write methods, the five descent loops, the bounded heaps,
copied verbatim from the parent commit - and driven beside the live one
through hypothesis-generated sequences of insert / delete / catch-up /
subtree catch-up batches of 1..200 rows, with a ``replace_subtree`` and
a snapshot round trip in the middle.  After every step the routed
leaves, every column of the node table and every heap must agree
exactly, the frozen nodes taken in preorder (the table's row order).
The frozen per-node estimates (``FrozenNode.count_estimate`` & co.)
are the reference the table's estimate columns are pinned to.

Two places where the frozen tree's answer depended on an accident of
its implementation are pinned as what they now are, not copied:

* a row no child contains (on a tiling tree: a NaN coordinate, or a
  row handed to a subtree whose region it lies outside of) was pushed
  onto the frozen batch walk's stack a second time, so its node
  received *two* partial batches, the stray rows first; the kernel
  gives every node one batch in row order.  The NaN sequences therefore
  drive the frozen tree through its own row-at-a-time path (same
  placement rule, rows in order) with dyadic values, whose sums are
  exact however they are associated; the float sequences seed subtrees
  with rows of their own region, as ``partial_repartition`` does;
* with a single statistic column numpy reduces a contiguous vector
  pairwise, so the frozen sums carried that rounding beyond 8 rows per
  node; the kernel accumulates in row order for every width
  (``test_one_column_sums_like_any_other``).
"""

import bisect
import math
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.dpt as dpt_module
from repro.core.dpt import DynamicPartitionTree, inflate_rect
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.persist import load_synopsis, save_synopsis
from repro.core.queries import Rectangle
from repro.core.table import Table
from repro.partitioning.spec import TreeSpec, tree_from_intervals

# +-inf coordinates are statistic values too: inf - inf in a sum warns
# (in the frozen tree and the live one alike) and compares equal as NaN
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------- #
# the object tree, frozen at b37de6b (write path only)
# ---------------------------------------------------------------------- #
class FrozenTopK:
    def __init__(self, k=32, largest=True):
        self.k = k
        self.largest = largest
        self._values: List[float] = []
        self.exact = True

    def insert(self, value):
        value = float(value)
        bisect.insort(self._values, value)
        if len(self._values) > self.k:
            if self.largest:
                self._values.pop(0)
            else:
                self._values.pop()

    def delete(self, value):
        value = float(value)
        i = bisect.bisect_left(self._values, value)
        if i >= len(self._values) or self._values[i] != value:
            return
        if len(self._values) == 1:
            self.exact = False
            return
        self._values.pop(i)


class FrozenMinMax:
    def __init__(self, k=32):
        self._max = FrozenTopK(k, largest=True)
        self._min = FrozenTopK(k, largest=False)

    def insert(self, value):
        self._max.insert(value)
        self._min.insert(value)

    def delete(self, value):
        self._max.delete(value)
        self._min.delete(value)


class FrozenNode:
    def __init__(self, node_id, rect, n_stats, minmax_attrs=(),
                 minmax_k=32):
        self.node_id = node_id
        self.rect = rect
        self.children: List["FrozenNode"] = []
        self.parent: Optional["FrozenNode"] = None
        self.h = 0
        self.csum = np.zeros(n_stats)
        self.csumsq = np.zeros(n_stats)
        self.cmin = np.full(n_stats, math.inf)
        self.cmax = np.full(n_stats, -math.inf)
        self.delta_count = 0
        self.dsum = np.zeros(n_stats)
        self.dsumsq = np.zeros(n_stats)
        self.minmax: Dict[int, FrozenMinMax] = {
            pos: FrozenMinMax(minmax_k) for pos in minmax_attrs}

    @property
    def is_leaf(self):
        return not self.children

    def add_catchup(self, stat_values):
        self.h += 1
        self.csum += stat_values
        self.csumsq += stat_values * stat_values
        np.minimum(self.cmin, stat_values, out=self.cmin)
        np.maximum(self.cmax, stat_values, out=self.cmax)

    def add_catchup_batch(self, stat_batch):
        n = stat_batch.shape[0]
        if n == 0:
            return
        self.h += n
        self.csum += stat_batch.sum(axis=0)
        self.csumsq += (stat_batch * stat_batch).sum(axis=0)
        np.minimum(self.cmin, stat_batch.min(axis=0), out=self.cmin)
        np.maximum(self.cmax, stat_batch.max(axis=0), out=self.cmax)

    def apply_insert(self, stat_values):
        self.delta_count += 1
        self.dsum += stat_values
        self.dsumsq += stat_values * stat_values
        for pos, mm in self.minmax.items():
            mm.insert(float(stat_values[pos]))

    def apply_insert_batch(self, stat_batch):
        n = stat_batch.shape[0]
        if n == 0:
            return
        self.delta_count += n
        self.dsum += stat_batch.sum(axis=0)
        self.dsumsq += (stat_batch * stat_batch).sum(axis=0)
        for pos, mm in self.minmax.items():
            for v in stat_batch[:, pos]:
                mm.insert(float(v))

    def apply_delete(self, stat_values):
        self.delta_count -= 1
        self.dsum -= stat_values
        self.dsumsq -= stat_values * stat_values
        for pos, mm in self.minmax.items():
            mm.delete(float(stat_values[pos]))

    def apply_delete_batch(self, stat_batch):
        n = stat_batch.shape[0]
        if n == 0:
            return
        self.delta_count -= n
        self.dsum -= stat_batch.sum(axis=0)
        self.dsumsq -= (stat_batch * stat_batch).sum(axis=0)
        for pos, mm in self.minmax.items():
            for v in stat_batch[:, pos]:
                mm.delete(float(v))

    # the per-node estimates, frozen at 563bc84 (they read a handle's
    # table ``_t`` at row ``_i``: see ``row_handle``)
    def count_estimate(self, n0: int, h_total: float) -> float:
        t, i = self._t, self._i
        delta = int(t.delta_count[i])
        if h_total <= 0:
            return float(max(delta, 0))
        return (float(t.h[i]) / h_total) * n0 + delta

    def sum_estimate(self, pos: int, n0: int, h_total: float,
                     squares: bool = False) -> float:
        t, i = self._t, self._i
        c, d = (t.csumsq, t.dsumsq) if squares else (t.csum, t.dsum)
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
        if h <= 0:
            return 0.0
        s, s2 = float(t.csum[i, pos]), float(t.csumsq[i, pos])
        val, cube = h * s2 - s * s, h * h * h
        return max(0.0, val / cube if scale is None else scale / cube * val)

    def min_estimate(self, pos: int) -> Optional[float]:
        """The node MIN over the tracked attr (None when unknown)."""
        candidates = []
        seen = float(self._t.cmin[self._i, pos])
        if math.isfinite(seen):
            candidates.append(seen)
        mm = self.minmax.get(pos)               # (top-k, bottom-k)
        if mm is not None and mm[1].top() is not None:
            candidates.append(mm[1].top())
        if not candidates:
            return None
        # Sampled nodes: the observed min is an inner approximation.
        return min(candidates)

    def max_estimate(self, pos: int) -> Optional[float]:
        candidates = []
        seen = float(self._t.cmax[self._i, pos])
        if math.isfinite(seen):
            candidates.append(seen)
        mm = self.minmax.get(pos)
        if mm is not None and mm[0].top() is not None:
            candidates.append(mm[0].top())
        if not candidates:
            return None
        return max(candidates)


def _frozen_distances(rect, points):
    """``Rectangle.distances`` as the batch walks used it."""
    pts = np.asarray(points, dtype=np.float64)
    lo = np.asarray(rect.lo)
    hi = np.asarray(rect.hi)
    below = np.clip(lo - pts, 0.0, None)
    above = np.clip(pts - hi, 0.0, None)
    # inf - inf at an unbounded edge yields NaN; an unbounded side
    # can never be violated, so its term is zero.
    below[np.isnan(below)] = 0.0
    above[np.isnan(above)] = 0.0
    return below.sum(axis=1) + above.sum(axis=1)


def _frozen_rect_distance(rect, coords):
    dist = 0.0
    for lo, hi, x in zip(rect.lo, rect.hi, coords):
        if x < lo:
            dist += lo - x
        elif x > hi:
            dist += x - hi
    return dist


class FrozenTree:
    def __init__(self, spec, schema, predicate_attrs, stat_attrs=None,
                 minmax_attrs=None, minmax_k=32):
        self.schema = tuple(schema)
        self.predicate_attrs = tuple(predicate_attrs)
        self.stat_attrs = tuple(stat_attrs) if stat_attrs else self.schema
        self._stat_pos = {a: i for i, a in enumerate(self.stat_attrs)}
        self._pred_idx = np.array([self.schema.index(a)
                                   for a in self.predicate_attrs])
        self._stat_idx = np.array([self.schema.index(a)
                                   for a in self.stat_attrs])
        minmax_attrs = tuple(minmax_attrs) if minmax_attrs is not None \
            else self.stat_attrs
        self._mm_pos = tuple(self._stat_pos[a] for a in minmax_attrs
                             if a in self._stat_pos)
        self._minmax_k = minmax_k
        self._nodes: List[FrozenNode] = []
        self._next_id = 0
        self.root = self._build({n.row: n for n in spec.walk()}, 0,
                                self._mm_pos, minmax_k)
        orig = self.root.rect
        for node in self._nodes:
            node.rect = inflate_rect(node.rect, orig)
        self._index_leaves()

    def _build(self, nodes, row, mm_pos, minmax_k):
        node = FrozenNode(self._next_id, nodes[row].rect, len(self.stat_attrs),
                          minmax_attrs=mm_pos, minmax_k=minmax_k)
        self._next_id += 1
        self._nodes.append(node)
        for kid in nodes[row].children:
            child = self._build(nodes, kid, mm_pos, minmax_k)
            child.parent = node
            node.children.append(child)
        return node

    def replace_subtree(self, node, spec):
        node.children = []
        before = len(self._nodes)
        nodes = {n.row: n for n in spec.walk()}
        for kid in nodes[0].children:
            child = self._build(nodes, kid, self._mm_pos, self._minmax_k)
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

    def _index_leaves(self):
        self.leaves = [n for n in self._nodes if n.is_leaf]
        self._leaf_pos = {n.node_id: i for i, n in enumerate(self.leaves)}

    def nodes(self):
        return iter(self._nodes)

    def add_catchup_row_subtree(self, subtree_root, row):
        stats = row[self._stat_idx]
        coords = row[self._pred_idx]
        node = subtree_root
        while not node.is_leaf:
            for child in node.children:
                if child.rect.contains_point(coords):
                    node = child
                    break
            else:
                node = min(node.children,
                           key=lambda c: _frozen_rect_distance(c.rect,
                                                               coords))
            node.add_catchup(stats)

    def add_catchup_rows_subtree(self, subtree_root, rows):
        rows = np.asarray(rows, dtype=np.float64)
        n = rows.shape[0]
        if n == 0:
            return
        stats = rows[:, self._stat_idx]
        coords = rows[:, self._pred_idx]
        stack = [(subtree_root, np.arange(n))]
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
                sub = idx[unassigned]
                dists = np.stack([_frozen_distances(child.rect, coords[sub])
                                  for child in node.children])
                choice = np.argmin(dists, axis=0)
                for ci, child in enumerate(node.children):
                    sel = sub[choice == ci]
                    if sel.size:
                        stack.append((child, sel))

    def route_leaf(self, coords):
        node = self.root
        while not node.is_leaf:
            for child in node.children:
                if child.rect.contains_point(coords):
                    node = child
                    break
            else:
                node = min(node.children,
                           key=lambda c: _frozen_rect_distance(c.rect,
                                                               coords))
        return node

    def _path(self, coords):
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            for child in node.children:
                if child.rect.contains_point(coords):
                    node = child
                    break
            else:
                node = min(node.children,
                           key=lambda c: _frozen_rect_distance(c.rect,
                                                               coords))
            path.append(node)
        return path

    def _route_batch(self, coords):
        n = coords.shape[0]
        leaf_of = np.empty(n, dtype=np.intp)
        assignments = []
        stack = [(self.root, np.arange(n))]
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
                sub = idx[unassigned]
                dists = np.stack([_frozen_distances(child.rect, coords[sub])
                                  for child in node.children])
                choice = np.argmin(dists, axis=0)
                for ci, child in enumerate(node.children):
                    rows = sub[choice == ci]
                    if rows.size:
                        stack.append((child, rows))
        return assignments, leaf_of

    def insert_rows(self, rows):
        n = rows.shape[0]
        if n == 1:
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

    def delete_rows(self, rows):
        n = rows.shape[0]
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

    def add_catchup_row(self, row):
        stats = row[self._stat_idx]
        path = self._path(row[self._pred_idx])
        for node in path:
            node.add_catchup(stats)
        return path[-1]

    def add_catchup_rows(self, rows):
        if rows.shape[0] == 0:
            return
        stats = rows[:, self._stat_idx]
        assignments, _ = self._route_batch(rows[:, self._pred_idx])
        for node, idx in assignments:
            node.add_catchup_batch(stats[idx])


# ---------------------------------------------------------------------- #
# worlds: a 1-D 64-leaf tree, an uneven 2-D k-d tree, a wide 1-D tree
# ---------------------------------------------------------------------- #
def spec_1d() -> TreeSpec:
    cuts = np.linspace(0.0, 100.0, 65)[1:-1]
    return tree_from_intervals(cuts, Rectangle((0.0,), (100.0,)))


def spec_2d() -> TreeSpec:
    """Median-ish k-d splits, one branch left shallow on purpose so
    rows finish their descent at different levels."""
    parent, rects = [], []
    stack = [(Rectangle((0.0, 0.0), (100.0, 100.0)), 5, 0, -1)]
    while stack:
        rect, depth, dim, up = stack.pop()
        parent.append(up)
        rects.append(rect)
        if depth and not (rect.lo[0] >= 50.0 and depth <= 2):
            cut = rect.lo[dim] + 0.4375 * (rect.hi[dim] - rect.lo[dim])
            stack += [(half, depth - 1, 1 - dim, len(rects) - 1)
                      for half in rect.split(dim, cut)[::-1]]
    return TreeSpec.of(parent, rects)


def spec_wide() -> TreeSpec:
    """Fan-out 5 at the root, 3 below: a ragged child table, its rows
    in build order (not preorder)."""
    parent, rects = [-1], [Rectangle((0.0,), (100.0,))]
    for up, k in ((0, 5), (2, 3), (5, 2)):
        start = rects[up].lo[0]
        for cut in np.linspace(start, rects[up].hi[0], k + 1)[1:]:
            parent.append(up)
            rects.append(Rectangle((start,), (float(cut),)))
            start = math.nextafter(float(cut), math.inf)
    return TreeSpec.of(parent, rects)


WORLDS = {
    "1d": dict(spec=spec_1d, schema=("x", "a", "b"), pred=("x",),
               minmax=("a", "x"), k=4),
    "2d": dict(spec=spec_2d, schema=("x", "y", "a"), pred=("x", "y"),
               minmax=("a",), k=32),
    "wide": dict(spec=spec_wide, schema=("x", "a"), pred=("x",),
                 minmax=None, k=2),
}


def build_pair(world):
    w = WORLDS[world]
    args = (w["spec"](), w["schema"], w["pred"])
    kwargs = dict(minmax_attrs=w["minmax"], minmax_k=w["k"])
    return FrozenTree(*args, **kwargs), \
        DynamicPartitionTree(*args, **kwargs)


def cut_values(tree) -> np.ndarray:
    """Every finite rectangle edge of the tree, and its neighbours."""
    edges = {e for node in tree.nodes()
             for e in node.rect.lo + node.rect.hi if math.isfinite(e)}
    return np.array(sorted(edges | {math.nextafter(e, math.inf)
                                    for e in edges}
                           | {math.nextafter(e, -math.inf)
                              for e in edges}))


def draw_rows(rng, n, world, cuts, nan: bool) -> np.ndarray:
    """``n`` rows: coordinates in the domain, exactly on cuts, far
    outside the build-time domain and at +-inf (NaN on request); other
    columns arbitrary floats, or dyadic (exactly summable) with NaN."""
    w = WORLDS[world]
    d = len(w["pred"])
    coords = rng.uniform(-5.0, 105.0, (n, d))
    kind = rng.random((n, d))
    on_cut = kind < 0.25
    coords[on_cut] = rng.choice(cuts, int(on_cut.sum()))
    far = (kind >= 0.25) & (kind < 0.30)
    coords[far] = rng.choice([-1e12, 1e12, -1e3, 1e3], int(far.sum()))
    inf = (kind >= 0.30) & (kind < 0.34)
    coords[inf] = rng.choice([-math.inf, math.inf], int(inf.sum()))
    n_other = len(w["schema"]) - d
    if nan:
        coords = np.where(np.isinf(coords), coords,
                          np.round(np.clip(coords, -1e3, 1e3) * 8) / 8)
        coords[(kind >= 0.34) & (kind < 0.42)] = math.nan
        other = rng.integers(-2 ** 16, 2 ** 16, (n, n_other)) / 8.0
    else:
        other = rng.normal(size=(n, n_other)) * \
            10.0 ** rng.integers(-3, 6, (n, 1))
        dup = rng.random(n) < 0.2            # ties for the heaps
        other[dup] = np.round(other[dup])
    return np.concatenate([coords, other], axis=1)


def rows_inside(rect, rng, n, world, cuts) -> np.ndarray:
    """Up to ``n`` drawn rows whose coordinates lie in ``rect``."""
    rows = draw_rows(rng, 64 * n, world, cuts, nan=False)
    d = len(WORLDS[world]["pred"])
    return rows[rect.contains_points(rows[:, :d])][:n]


def heaps(node):
    return {pos: (repr(mm._max._values), repr(mm._min._values),
                  mm._max.exact, mm._min.exact)
            for pos, mm in node.minmax.items()}


def table_heaps(table, row):
    return {pos: (repr(top.tops[row]._values), repr(bottom.tops[row]._values),
                  top.tops[row].exact, bottom.tops[row].exact)
            for pos, (top, bottom) in table.columns.items()}


def preorder(frozen: FrozenTree) -> List[FrozenNode]:
    """The frozen tree's nodes parent first, first child first: the
    live table's row order."""
    out, stack = [], [frozen.root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def leaf_rects(leaves, leaf_of) -> list:
    """Routed leaves by rectangle (the trees number leaves apart once
    a subtree is replaced: the frozen one in its registry's walk order)."""
    return [leaves[i].rect for i in np.asarray(leaf_of).tolist()]


FIELDS = ("csum", "csumsq", "cmin", "cmax", "dsum", "dsumsq")


def assert_same(frozen: FrozenTree, tree: DynamicPartitionTree, step):
    old_nodes, new_nodes = preorder(frozen), tree.nodes()
    assert len(old_nodes) == len(new_nodes), step
    table = tree.table
    for i, (old, new) in enumerate(zip(old_nodes, new_nodes)):
        assert new.row == i, step
        assert old.rect == new.rect, step
        assert [c.rect for c in old.children] == \
            [c.rect for c in tree.children(new)], step
        assert (old.h, old.delta_count) == \
            (table.h[i], table.delta_count[i]), (step, i)
        for field in FIELDS:
            a, b = getattr(old, field), getattr(table, field)[i]
            assert np.array_equal(a, b, equal_nan=True), \
                (step, i, field, a, b)
        assert heaps(old) == table_heaps(table, i), (step, i)
    assert [n.rect for n in old_nodes if n.is_leaf] == \
        [n.rect for n in tree.leaves], step


_ENGINES: Dict[str, JanusAQP] = {}


def roundtrip(tree: DynamicPartitionTree, world) -> DynamicPartitionTree:
    """``tree`` through ``save_synopsis`` / ``load_synopsis`` (an engine
    over the same template lends its pool and configuration)."""
    w = WORLDS[world]
    if world not in _ENGINES:
        rng = np.random.default_rng(3)
        table = Table(w["schema"], capacity=600)
        table.insert_many(rng.uniform(0, 100, (500, len(w["schema"]))))
        engine = JanusAQP(table, "a", w["pred"], config=JanusConfig(
            k=4, sample_rate=0.1, min_pool=32, minmax_k=w["k"],
            check_every=10 ** 9, seed=1))
        engine.initialize()
        _ENGINES[world] = engine
    engine = _ENGINES[world]
    engine.dpt = tree
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/tree.npz"
        save_synopsis(engine, path)
        return load_synopsis(path, engine.table).dpt


def replacement_spec(node) -> Optional[TreeSpec]:
    """Three leaves, two levels, tiling ``node.rect`` along dim 0."""
    lo = max(node.rect.lo[0], -10.0)
    hi = min(node.rect.hi[0], 110.0)
    if not lo < hi:
        return None
    try:
        left, right = node.rect.split(0, lo + 0.5 * (hi - lo))
        far_left, near_left = left.split(0, lo + 0.25 * (hi - lo))
    except ValueError:
        return None
    return TreeSpec.of([-1, 0, 1, 1, 0],
                       [node.rect, left, far_left, near_left, right])


# batch sizes straddle the small-batch cut-over of the router
SIZES = st.one_of(st.integers(1, 200),
                  st.sampled_from([1, 2, dpt_module.LEVELWISE_MIN_ROWS - 1,
                                   dpt_module.LEVELWISE_MIN_ROWS,
                                   dpt_module.LEVELWISE_MIN_ROWS + 1,
                                   80, 200]))
OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "delete", "catchup",
                               "subtree", "subtree_row", "replace",
                               "roundtrip"]),
              SIZES, st.integers(0, 2 ** 31 - 1)),
    min_size=3, max_size=10)


def run_sequence(world, ops, nan):
    frozen, tree = build_pair(world)
    cuts = cut_values(frozen)
    inserted: List[np.ndarray] = []
    assert_same(frozen, tree, "fresh")

    def old_way(method, rows, *subtree_root):
        """The frozen tree's batch path - or, with NaN about, its
        row-at-a-time one (module docstring)."""
        if not nan:
            return method(*subtree_root, rows)
        out = [method(*subtree_root, rows[i:i + 1])
               for i in range(rows.shape[0])]
        return np.concatenate(out) if out[0] is not None else None

    for step, (kind, n, seed) in enumerate(ops):
        rng = np.random.default_rng(seed)
        rows = draw_rows(rng, n, world, cuts, nan)
        where = (step, kind, n, seed)
        if kind == "insert":
            inserted.append(rows)
            assert leaf_rects(frozen.leaves,
                              old_way(frozen.insert_rows, rows)) == \
                leaf_rects(tree.leaves, tree.insert_rows(rows)), where
        elif kind == "delete":
            if inserted and rng.random() < 0.8:   # mostly tracked values
                pool = np.concatenate(inserted)
                rows = pool[rng.integers(0, len(pool), n)]
            assert leaf_rects(frozen.leaves,
                              old_way(frozen.delete_rows, rows)) == \
                leaf_rects(tree.leaves, tree.delete_rows(rows)), where
        elif kind == "catchup":
            old_way(frozen.add_catchup_rows, rows)
            tree.add_catchup_rows(rows)
        elif kind in ("subtree", "subtree_row"):
            order = preorder(frozen)
            inner = [i for i, node in enumerate(order) if not node.is_leaf]
            at = inner[int(rng.integers(len(inner)))]
            old_u, new_u = order[at], tree.node(at)
            if not nan:
                rows = rows_inside(old_u.rect, rng, n, world, cuts)
            if rows.shape[0] == 0:
                continue
            if kind == "subtree":
                old_way(frozen.add_catchup_rows_subtree, rows, old_u)
                tree.add_catchup_rows(rows, new_u)
            else:
                frozen.add_catchup_row_subtree(old_u, rows[0])
                tree.add_catchup_rows(rows[:1], new_u)
        elif kind == "replace":
            order = preorder(frozen)
            inner = [i for i, node in enumerate(order)
                     if not node.is_leaf and node.parent is not None]
            at = inner[int(rng.integers(len(inner)))] if inner else 0
            spec = replacement_spec(order[at])
            if spec is None or not inner:
                continue
            old_u, new_u = order[at], tree.node(at)
            old_new = frozen.replace_subtree(old_u, spec)
            new_new = tree.replace_subtree(new_u, spec)
            assert [n.rect for n in old_new] == \
                [tree.node(row).rect for row in new_new]
            # seed and rescale the fresh subtree the way
            # partial_repartition does (h turns real-valued)
            if not nan:
                rows = rows_inside(spec.rect, rng, n, world, cuts)
            old_way(frozen.add_catchup_rows_subtree, rows, old_u)
            tree.add_catchup_rows(rows, new_u)
            for node in old_new:
                node.h *= 1.375
                node.csum *= 1.375
                node.csumsq *= 1.375
            tree.table.rescale(new_new, 1.375)
        else:
            tree = roundtrip(tree, world)
        assert_same(frozen, tree, where)


@pytest.mark.parametrize("world", ["1d", "2d", "wide"])
@settings(max_examples=25, deadline=None)
@given(ops=OPS)
def test_node_table_matches_the_frozen_object_tree(world, ops):
    run_sequence(world, ops, nan=False)


@pytest.mark.parametrize("world", ["1d", "2d", "wide"])
@settings(max_examples=15, deadline=None)
@given(ops=OPS)
def test_nan_coordinates_take_the_same_paths(world, ops):
    run_sequence(world, ops, nan=True)


def test_scripted_sequence_covers_every_step_kind():
    """Hypothesis may not draw every kind in 25 examples; this does."""
    ops = [("insert", 200, 1), ("catchup", 80, 2), ("insert", 1, 3),
           ("delete", 17, 4), ("subtree", 40, 5), ("replace", 30, 6),
           ("insert", 15, 7), ("roundtrip", 1, 8), ("insert", 16, 9),
           ("subtree_row", 1, 10), ("delete", 200, 11),
           ("replace", 3, 12), ("catchup", 2, 13), ("roundtrip", 1, 14),
           ("delete", 1, 15)]
    for world in WORLDS:
        run_sequence(world, ops, nan=False)
        run_sequence(world, ops, nan=True)


# ---------------------------------------------------------------------- #
# the router: two walks and a 1-D search, one rule
# ---------------------------------------------------------------------- #
def leaf_finders(tree):
    """The router's ways to find an ``(n, d)`` batch's leaves below a
    start row, called directly: both walks, and the 1-D search where
    the tree allows it."""
    finders = {"rows": lambda coords, start: tree.table.leaf_pos[
                   [tree._walk(point, start) for point in coords.tolist()]],
               "levels": tree._walk_levels}
    if tree._leaf_hi is not None:
        finders["search"] = lambda coords, start: tree._search_leaves(
            coords[:, 0], start)
    return finders


def reference_pairs(tree, leaf, start, keep_start):
    """(node, data row) pairs from each leaf's parent links, sorted."""
    pairs = []
    for i, pos in enumerate(leaf.tolist()):
        row = tree.leaves[pos].row
        while True:
            if row != start or keep_start:
                pairs.append((row, i))
            if row == start:
                break
            row = int(tree.table.parent[row])
            assert row >= 0, "the leaf is not below the start row"
    return sorted(pairs)


def assert_one_route(tree, coords, start, keep_start):
    """Every leaf finder, expanded, gives the same ``(ids, rows,
    leaf_of)``, each node's rows ascending, the pairs those of the
    leaves' paths, and ``_route`` is one of them."""
    routes = {}
    for name, find in leaf_finders(tree).items():
        leaf = find(coords, start)
        routes[name] = (*tree._expand(leaf, start, keep_start), leaf)
    ids, src, leaf = routes["rows"]
    for name, route in routes.items():
        for got, want in zip(route, (ids, src, leaf)):
            assert np.array_equal(got, want), name
    # within a node, pairs come in ascending data-row order
    assert all(np.all(np.diff(src[ids == node]) > 0)
               for node in np.unique(ids))
    assert sorted(zip(ids.tolist(), src.tolist())) == \
        reference_pairs(tree, leaf, start, keep_start)
    routed = tree._route(coords, start, keep_start)
    assert all(np.array_equal(got, want)
               for got, want in zip(routed, (ids, src, leaf)))
    return leaf


@pytest.mark.parametrize("world", ["1d", "2d", "wide"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 120), seed=st.integers(0, 2 ** 31 - 1),
       subtree=st.booleans(), replace=st.booleans())
def test_row_walk_and_level_walk_take_identical_paths(world, n, seed,
                                                      subtree, replace):
    frozen, tree = build_pair(world)
    assert (tree._leaf_hi is not None) == (world != "2d")
    rng = np.random.default_rng(seed)
    if replace:
        order = preorder(frozen)
        inner = [i for i, node in enumerate(order)
                 if not node.is_leaf and node.parent is not None]
        at = inner[int(rng.integers(len(inner)))]
        spec = replacement_spec(order[at])
        if spec is not None:
            frozen.replace_subtree(order[at], spec)
            tree.replace_subtree(tree.node(at), spec)
            assert (tree._leaf_hi is not None) == (world != "2d")
    rows = draw_rows(rng, n, world, cut_values(tree), nan=True)
    coords = rows[:, tree._pred_idx]
    coords[rng.random(coords.shape) < 0.05] = -0.0
    inner = [node.row for node in tree.nodes() if tree.children(node)]
    start = inner[int(rng.integers(len(inner)))] if subtree else 0
    leaf = assert_one_route(tree, coords, start, not subtree)
    if not subtree:
        # ... and they are the paths route_leaf / the frozen _path take
        for i in rng.integers(0, n, min(n, 10)):
            ref = tree.leaves[int(leaf[i])]
            assert tree.route_leaf(tuple(coords[i])) is ref
            assert frozen._path(coords[i])[-1].rect == ref.rect


def closed_tiling(cuts) -> TreeSpec:
    """Halving splits whose children both hold their cut, unlike
    ``Rectangle.split``'s and :func:`tree_from_intervals`'s."""
    parent, rects = [-1], [Rectangle((-4.0,), (4.0,))]
    stack = [(0, list(cuts))]
    while stack:
        up, inner = stack.pop()
        if inner:
            mid, rect = len(inner) // 2, rects[up]
            halves = (Rectangle(rect.lo, (inner[mid],)),
                      Rectangle((inner[mid],), rect.hi))
            for half, part in zip(halves, (inner[:mid], inner[mid + 1:])):
                parent.append(up)
                rects.append(half)
                stack.append((len(rects) - 1, part))
    return TreeSpec.of(parent, rects)


def test_the_search_walks_every_edge_case():
    """Cuts at -0.0 / 0.0 and at the build domain's own edges (the
    inflated outer leaves then overlap), children that share their cut,
    points on every cut, just beside it, at +-0, +-inf and NaN, from
    every start row."""
    edges = [-4.0, -1.0, -0.0, math.nextafter(0.0, 1.0), 2.0, 4.0]
    points = [math.nan, -math.inf, math.inf, -0.0, 0.0, 1e308, -1e308]
    for e in edges:
        points += [e, math.nextafter(e, -math.inf),
                   math.nextafter(e, math.inf)]
    coords = np.array(points)[:, None]
    domain = Rectangle((-4.0,), (4.0,))
    specs = [tree_from_intervals(cuts, domain) for cuts in
             (edges[1:-1], edges, [-4.0, -4.0, 0.0, 4.0, 4.0])]
    specs += [closed_tiling(cuts) for cuts in
              ([-1.0, -0.0, 2.0], [-3.0, -1.0, 0.0, 2.0, 3.0])]
    for spec in specs:
        tree = DynamicPartitionTree(spec, ("x", "a"), ("x",))
        assert tree._leaf_hi is not None
        for start in range(len(tree.table)):
            if tree.table.kids[start]:
                for keep_start in (True, False):
                    assert_one_route(tree, coords, start, keep_start)


def test_the_search_steps_aside_for_trees_it_cannot_read():
    """A 1-D tree whose children are out of key order (or leave a gap)
    routes by the walks, which still agree."""
    spec = TreeSpec.of([-1, 0, 0], [Rectangle((0.0,), (10.0,)),
                                     Rectangle((5.0,), (10.0,)),
                                     Rectangle((0.0,), (5.0,))])
    gap = TreeSpec.of([-1, 0, 0], [Rectangle((0.0,), (10.0,)),
                                    Rectangle((0.0,), (4.0,)),
                                    Rectangle((6.0,), (10.0,))])
    for spec in (spec, gap):
        tree = DynamicPartitionTree(spec, ("x", "a"), ("x",))
        assert tree._leaf_hi is None
        coords = np.array([[-1.0], [0.0], [4.0], [5.0], [5.5], [10.0],
                           [math.nan], [math.inf]])
        assert_one_route(tree, coords, 0, True)


def test_one_column_sums_like_any_other():
    """The kernel adds a node's rows in row order whatever the number
    of statistic columns (the object tree's one-column sums were
    numpy's pairwise reduction instead - see the module docstring)."""
    spec = spec_1d()
    one = DynamicPartitionTree(spec, ("x", "a"), ("x",),
                               stat_attrs=("a",))
    two = DynamicPartitionTree(spec, ("x", "a"), ("x",))
    rng = np.random.default_rng(0)
    for n in (3, 40, 200, 7):
        rows = np.column_stack([rng.uniform(0, 100, n),
                                rng.normal(size=n) * 1e3])
        one.insert_rows(rows)
        two.insert_rows(rows)
        one.add_catchup_rows(rows)
        two.add_catchup_rows(rows)
    assert np.array_equal(one.table.dsum[:, 0], two.table.dsum[:, 1])
    assert np.array_equal(one.table.csumsq[:, 0],
                          two.table.csumsq[:, 1])
    # the root saw every row: its sum is the running row-order sum
    expect = 0.0
    rng = np.random.default_rng(0)
    for n in (3, 40, 200, 7):
        rng.uniform(0, 100, n)
        batch = 0.0
        for v in rng.normal(size=n) * 1e3:
            batch += v
        expect += batch
    assert one.table.dsum[0, 0] == expect


# ---------------------------------------------------------------------- #
# count guards
# ---------------------------------------------------------------------- #
def python_calls(fn, *args) -> int:
    """Python-level and C-level calls made while ``fn(*args)`` runs."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1
    sys.setprofile(tracer)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def test_insert_cost_does_not_depend_on_nodes_touched():
    """An 80-row insert makes the same number of calls whether its rows
    share one leaf (7 nodes touched) or spread over all 64 (127): the
    router works level by level and the kernel per column, neither per
    node.  Heaps are saturated and the values mid-range, so the
    pre-filter leaves them nothing to do in either batch."""
    tree = DynamicPartitionTree(spec_1d(), ("x", "a"), ("x",),
                                minmax_attrs=("a",), minmax_k=32)
    rng = np.random.default_rng(0)
    seed_rows = np.column_stack([rng.uniform(0, 100, 8000),
                                 rng.uniform(0, 100, 8000)])
    tree.insert_rows(seed_rows)
    same_leaf = np.column_stack([rng.uniform(9.5, 10.9, 80),
                                 np.full(80, 50.0)])
    spread = np.column_stack([np.linspace(0.5, 99.5, 80),
                              np.full(80, 50.0)])
    assert len(set(tree.route_rows(same_leaf[:, :1]).tolist())) == 1
    assert len(set(tree.route_rows(spread[:, :1]).tolist())) >= 60
    few = python_calls(tree.insert_rows, same_leaf)
    many = python_calls(tree.insert_rows, spread)
    assert few == many
    assert many < 250       # ~7 levels x a dozen array ops + the kernel
    # deletes and catch-up ride the same router and kernel
    assert python_calls(tree.delete_rows, same_leaf) == \
        python_calls(tree.delete_rows, spread)
    assert python_calls(tree.add_catchup_rows, same_leaf) == \
        python_calls(tree.add_catchup_rows, spread)


def test_sampled_rows_do_not_descend_twice(monkeypatch):
    """``insert_many(80 rows)``: one routing call for the batch; the
    rows the reservoir accepted are filed under the leaves it found, so
    nothing descends again, per tid or per block."""
    rng = np.random.default_rng(2)
    table = Table(("x", "a"), capacity=40_000)
    table.insert_many(rng.uniform(0, 100, (4000, 2)))
    engine = JanusAQP(table, "a", ("x",), config=JanusConfig(
        k=16, sample_rate=0.05, min_pool=64, check_every=10 ** 9, seed=4))
    engine.initialize()
    calls = {"route": 0, "route_leaf": 0}
    route, route_leaf = DynamicPartitionTree._route, \
        DynamicPartitionTree.route_leaf

    def counted_route(self, coords, *args):
        calls["route"] += 1
        return route(self, coords, *args)

    def counted_route_leaf(self, coords):
        calls["route_leaf"] += 1
        return route_leaf(self, coords)
    monkeypatch.setattr(DynamicPartitionTree, "_route", counted_route)
    monkeypatch.setattr(DynamicPartitionTree, "route_leaf",
                        counted_route_leaf)
    accepted_some = 0
    for _ in range(30):
        before = set(engine.reservoir.tids())
        target = engine.reservoir.target_size
        calls.update(route=0, route_leaf=0)
        engine.insert_many(rng.uniform(0, 100, (80, 2)))
        accepted = set(engine.reservoir.tids()) - before
        # (+1 in the rare batch that also grows and re-draws the pool)
        regrown = engine.reservoir.target_size != target
        assert calls["route"] == 1 + regrown
        assert calls["route_leaf"] == 0
        accepted_some += bool(accepted)
    assert accepted_some >= 5
    # every pooled row sits in the block of the leaf the tree routes it to
    for leaf in engine.dpt.leaves:
        block = engine.pool.matrix(leaf.node_id)
        assert all(route_leaf(engine.dpt, row[engine._pred_idx]) is leaf
                   for row in block)
    assert sum(engine.pool.sizes().values()) == engine.pool_size


# ---------------------------------------------------------------------- #
# estimates: a column entry is the node's own number
# ---------------------------------------------------------------------- #
def row_handle(table, row) -> FrozenNode:
    """A frozen node over ``table``'s row ``row``, read the way the
    per-node estimates read a tree node's handle."""
    node = FrozenNode.__new__(FrozenNode)
    node._t, node._i = table, row
    node.minmax = {pos: (top.tops[row], bottom.tops[row])
                   for pos, (top, bottom) in table.columns.items()}
    return node


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), h_total_zero=st.booleans())
def test_estimate_columns_equal_per_node_estimates(seed, h_total_zero):
    """``NodeTable.count_estimates`` & co. evaluate the formulas of the
    frozen per-node ``count_estimate`` & co. for every node at once, to
    the bit - empty nodes, rescaled ``h`` and drained (inexact) MIN/MAX
    heaps included."""
    _, tree = build_pair("2d")
    rng = np.random.default_rng(seed)
    cuts = cut_values(tree)
    tree.set_population(int(rng.integers(0, 10 ** 6)))
    rows = draw_rows(rng, 150, "2d", cuts, nan=False)
    tree.insert_rows(rows)
    if not h_total_zero:
        tree.add_catchup_rows(draw_rows(rng, 120, "2d", cuts, nan=False))
    tree.delete_rows(rows[:120])
    tree.delete_rows(draw_rows(rng, 40, "2d", cuts, nan=False))
    nodes = tree.nodes()
    for node in nodes[1::7]:
        tree.table.rescale(range(node.row, node.row + 1), 1.375)
    table, totals = tree.table, (tree.n0, tree.h_total)
    handles = [row_handle(table, node.row) for node in nodes]
    assert (tree.h_total <= 0) == h_total_zero
    assert not all(top.exact for top in table.columns[2][0].tops)
    with np.errstate(all="ignore"):
        for pos in range(3):
            columns = {
                "count": (table.count_estimates(*totals),
                          lambda n: n.count_estimate(*totals)),
                "sum": (table.sum_estimates(pos, *totals),
                        lambda n: n.sum_estimate(pos, *totals)),
                "sumsq": (table.sum_estimates(pos, *totals, True),
                          lambda n: n.sum_estimate(pos, *totals, True)),
                "varsum": (table.catchup_var_sums(pos, *totals),
                           lambda n: n.catchup_var_sum(pos, *totals)),
                "varbase": (table.catchup_var_bases(pos),
                            lambda n: n.catchup_var_base(pos)),
                "min": (table.extreme_estimates(pos, False),
                        lambda n: n.min_estimate(pos)),
                "max": (table.extreme_estimates(pos, True),
                        lambda n: n.max_estimate(pos)),
            }
            for name, (column, entry) in columns.items():
                if name not in ("min", "max"):
                    assert column.dtype == np.float64, name
                    column = column.tolist()
                assert repr(column) == repr([entry(n) for n in handles]), \
                    (name, pos)
