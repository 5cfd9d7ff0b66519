"""Static Partition Tree: the PASS synopsis (paper Section 2.3, [30]).

An SPT is the static ancestor of the DPT: the same two-layer structure
(hierarchical aggregation + per-leaf stratified samples) but with *exact*
node statistics computed by a full scan at construction time, and no
update support.  JanusAQP's experiments use it as the accuracy reference
(the "DPT without re-optimization" baseline is an SPT whose statistics
were exact at time zero) and for Table 3's partitioner comparison.

It is a client of :class:`~repro.core.dpt.DynamicPartitionTree`: the
scan goes into the tree's exact-delta columns, as if every row had been
inserted after an empty epoch (no catch-up, ``n0 = 0``), so the tree's
own estimators answer with no catch-up variance.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, QueryResult, Rectangle
from repro.index.range_index import RangeIndex
from repro.partitioning.kdtree import KDTreePartitioner
from repro.partitioning.onedim import OneDimPartitioner
from repro.partitioning.spec import TreeSpec

from .dp import DPPartitioner
from .equidepth import equidepth_tree


class StaticPartitionTree:
    """Exact-statistics partition tree with frozen leaf samples."""

    def __init__(self, spec: TreeSpec, schema: Sequence[str],
                 predicate_attrs: Sequence[str], data: np.ndarray,
                 sample_rate: float = 0.01, seed: int = 0,
                 stat_attrs: Optional[Sequence[str]] = None) -> None:
        self._tree = DynamicPartitionTree(spec, schema, predicate_attrs,
                                          stat_attrs=stat_attrs)
        data = np.asarray(data, dtype=np.float64)
        self.n = data.shape[0]
        self._empty = np.empty((0, len(self._tree.schema)))
        self._leaf_rows: Dict[int, np.ndarray] = {}
        self._populate(data, sample_rate, np.random.default_rng(seed))

    # ------------------------------------------------------------------ #
    def _populate(self, data: np.ndarray, sample_rate: float,
                  rng: np.random.Generator) -> None:
        """Every node's full-scan count, sum, sum of squares, min and max
        (each row in every node whose closed rectangle holds it), plus
        per-leaf stratified samples."""
        tree = self._tree
        schema, t = tree.schema, tree.table
        coords = data[:, [schema.index(a) for a in tree.predicate_attrs]]
        stats = data[:, [schema.index(a) for a in tree.stat_attrs]]
        for row in range(len(t)):
            mask = ((coords >= t.lo[row]) & (coords <= t.hi[row])).all(axis=1)
            sub = stats[mask]
            if not sub.shape[0]:
                continue
            t.delta_count[row] = sub.shape[0]
            t.dsum[row], t.dsumsq[row] = sub.sum(axis=0), \
                (sub * sub).sum(axis=0)
            t.cmin[row], t.cmax[row] = sub.min(axis=0), sub.max(axis=0)
            if t.leaf_pos[row] >= 0:
                rows = data[mask]
                want = max(1, int(round(sample_rate * rows.shape[0])))
                pick = rng.choice(rows.shape[0], size=min(want,
                                                          rows.shape[0]),
                                  replace=False)
                self._leaf_rows[int(t.node_id[row])] = rows[pick]

    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return self._tree.k

    @property
    def tree(self) -> DynamicPartitionTree:
        return self._tree

    def query(self, query: Query) -> QueryResult:
        """The tree's answer; exact when no leaf was only partly covered
        (every covered node's statistics are exact) and it is a number."""
        result = self._tree.query(query, lambda leaf: self._leaf_rows.get(
            leaf.node_id, self._empty))
        result.exact = result.n_partial == 0 and \
            not math.isnan(result.estimate)
        return result


def build_spt(data: np.ndarray, schema: Sequence[str], agg_attr: str,
              predicate_attrs: Sequence[str], k: int = 128,
              sample_rate: float = 0.01, partitioner: str = "bs",
              focus_agg: AggFunc = AggFunc.SUM, seed: int = 0,
              max_partition_samples: int = 4000,
              stat_attrs: Optional[Sequence[str]] = None
              ) -> StaticPartitionTree:
    """Construct a PASS synopsis over in-memory data.

    ``partitioner`` selects the optimization algorithm: ``"bs"`` (the
    paper's binary-search algorithm), ``"dp"`` (the PASS dynamic
    program), ``"equidepth"`` or ``"kd"`` (any dimensionality).  The
    first three are one-dimensional; above one predicate attribute
    ``"bs"`` (the default) selects ``"kd"`` and the other two raise.
    Partitioning runs over at most ``max_partition_samples`` uniform
    samples of the data, like the real systems do.
    """
    d = len(predicate_attrs)
    if partitioner not in ("bs", "dp", "equidepth", "kd"):
        raise ValueError(f"unknown partitioner {partitioner!r}")
    if d > 1 and partitioner in ("dp", "equidepth"):
        raise ValueError(f"partitioner {partitioner!r} is one-dimensional; "
                         f"got {d} predicate attributes")
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    m = min(n, max_partition_samples)
    pick = rng.choice(n, size=m, replace=False) if m < n else np.arange(n)
    sample = data[pick]
    pred_idx = [list(schema).index(a) for a in predicate_attrs]
    agg_idx = list(schema).index(agg_attr)
    if partitioner == "kd" or d > 1:
        index = RangeIndex(d)
        index.add_many(np.arange(sample.shape[0]), sample[:, pred_idx],
                       sample[:, agg_idx])
        lo = tuple(float(x) for x in data[:, pred_idx].min(axis=0))
        hi = tuple(float(x) for x in data[:, pred_idx].max(axis=0))
        spec = KDTreePartitioner(focus_agg).partition(
            index, k, n_population=n, root_rect=Rectangle(lo, hi)).tree
    else:
        keys = sample[:, pred_idx[0]]
        values = sample[:, agg_idx]
        domain = (float(data[:, pred_idx[0]].min()),
                  float(data[:, pred_idx[0]].max()))
        if partitioner == "bs":
            spec = OneDimPartitioner(focus_agg).partition(
                keys, values, k, n_population=n, domain=domain).tree
        elif partitioner == "dp":
            spec = DPPartitioner(focus_agg).partition(
                keys, values, k, n_population=n, domain=domain).tree
        else:
            spec = equidepth_tree(keys, k, domain=domain)
    return StaticPartitionTree(spec, schema, predicate_attrs, data,
                               sample_rate=sample_rate, seed=seed,
                               stat_attrs=stat_attrs)
