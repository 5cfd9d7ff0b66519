"""Static Partition Tree: the PASS synopsis (paper Section 2.3, [30]).

An SPT is the static ancestor of the DPT: the same two-layer structure
(hierarchical aggregation + per-leaf stratified samples) but with *exact*
node statistics computed by a full scan at construction time, and no
update support.  JanusAQP's experiments use it as the accuracy reference
(the "DPT without re-optimization" baseline is an SPT whose statistics
were exact at time zero) and for Table 3's partitioner comparison.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..partitioning.dp import DPPartitioner
from ..partitioning.equidepth import equidepth_tree
from ..partitioning.onedim import OneDimPartitioner
from ..partitioning.kdtree import KDTreePartitioner
from ..partitioning.spec import TreeSpec
from ..index.range_index import RangeIndex
from .dpt import DynamicPartitionTree
from .queries import AggFunc, Query, QueryResult, Rectangle


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
        self._tree.set_population(self.n)
        self._leaf_rows: Dict[int, np.ndarray] = {}
        self._populate(data, sample_rate, np.random.default_rng(seed))

    # ------------------------------------------------------------------ #
    def _populate(self, data: np.ndarray, sample_rate: float,
                  rng: np.random.Generator) -> None:
        """Full-scan exact statistics plus per-leaf stratified samples."""
        schema = self._tree.schema
        pred_idx = [schema.index(a) for a in self._tree.predicate_attrs]
        stat_idx = [schema.index(a) for a in self._tree.stat_attrs]
        stats = data[:, stat_idx]
        # Assign every row to its leaf, then roll statistics up the tree.
        leaf_rows: Dict[int, list] = {leaf.node_id: []
                                      for leaf in self._tree.leaves}
        coords = data[:, pred_idx]
        tree, zeros = self._tree, np.zeros(len(stat_idx))
        for node in tree.nodes():
            mask = np.ones(data.shape[0], dtype=bool)
            for dim in range(coords.shape[1]):
                mask &= (coords[:, dim] >= node.rect.lo[dim]) & \
                        (coords[:, dim] <= node.rect.hi[dim])
            sub = stats[mask]
            if sub.shape[0]:
                tree.table.set_exact_base(
                    node.row, sub.shape[0], sub.sum(axis=0),
                    (sub * sub).sum(axis=0), sub.min(axis=0), sub.max(axis=0))
            else:
                tree.table.set_exact_base(node.row, 0, zeros, zeros)
            if not tree.children(node) and sub.shape[0]:
                rows = data[mask]
                want = max(1, int(round(sample_rate * rows.shape[0])))
                pick = rng.choice(rows.shape[0], size=min(want,
                                                          rows.shape[0]),
                                  replace=False)
                leaf_rows[node.node_id] = rows[pick]
        self._leaf_rows = {k: (np.asarray(v) if len(v) else
                               np.empty((0, len(schema))))
                           for k, v in leaf_rows.items()}

    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return self._tree.k

    @property
    def tree(self) -> DynamicPartitionTree:
        return self._tree

    def query(self, query: Query) -> QueryResult:
        return self._tree.query(
            query, lambda leaf: self._leaf_rows.get(
                leaf.node_id, np.empty((0, len(self._tree.schema)))))


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
        index = RangeIndex(d, seed=seed)
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
