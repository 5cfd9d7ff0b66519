"""Partial re-partitioning (paper, Appendix E).

Full re-partitioning rebuilds the entire tree; *partial* re-partitioning
only rebuilds the neighbourhood of a problematic leaf: the subtree rooted
``psi`` levels above it is re-optimized over the current samples in its
region, while every node outside the subtree keeps its statistics.  The
benefits the paper names: it is faster (near-linear in the subtree's
samples) and queries outside the region keep their sharp estimates.

The fresh subtree is seeded from the pooled reservoir samples inside its
region and its catch-up accumulators are rescaled so that the children's
population estimates stay consistent with the untouched ancestor: the
children receive a combined catch-up weight equal to the ancestor's
current population expressed in catch-up-sample units
(``h_equiv = count_est(u) * h_total / N0``).  This mirrors the paper's
"restart the catch-up phase over the new tree [for] the nodes that were
changed" with an immediately-consistent starting point; subsequent
global catch-up keeps improving every node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..partitioning.kdtree import KDTreePartitioner
from ..partitioning.onedim import OneDimPartitioner
from ..partitioning.spec import PartitionNode
from .dpt import DynamicPartitionTree
from .node import DPTNode
from .queries import Rectangle


@dataclass
class PartialRepartitionReport:
    subtree_root_id: int
    n_leaves: int
    n_seed_samples: int
    seconds: float


def ancestor_at(leaf: DPTNode, psi: int) -> DPTNode:
    """The ancestor ``psi`` levels above ``leaf`` (clamped at the root)."""
    node = leaf
    for _ in range(psi):
        if node.parent is None:
            break
        node = node.parent
    return node


def partial_repartition(janus, leaf: DPTNode, psi: int = 2
                        ) -> PartialRepartitionReport:
    """Re-partition the neighbourhood of ``leaf`` on a JanusAQP system.

    ``psi`` is the paper's pre-defined level parameter.  The subtree's
    leaf budget is preserved (``l_u`` leaves before and after).
    """
    t0 = time.perf_counter()
    dpt: DynamicPartitionTree = janus.dpt
    u = ancestor_at(leaf, psi)
    if u is dpt.root:
        # Degenerates to a full re-partition; delegate to the system.
        janus.reoptimize()
        return PartialRepartitionReport(dpt.root.node_id, janus.dpt.k, 0,
                                        time.perf_counter() - t0)
    l_u = dpt.subtree_leaf_count(u)
    spec = _partition_region(janus, u.rect, l_u)
    # Remember the ancestor's h-equivalent population before the swap.
    h_total = dpt.h_total
    n0 = dpt.n0
    if n0 > 0 and h_total > 0:
        h_equiv = u.count_estimate(n0, h_total) * h_total / n0
    else:
        h_equiv = 0.0
    dpt.replace_subtree(u, spec)
    # Seed the fresh subtree from the pooled samples in its region: one
    # vectorized region report, one table gather, one batched subtree
    # routing pass (pool members are live rows, and the synopsis-resident
    # copies are verbatim, so the gather equals the per-tid dict reads).
    _, _, tids = janus.sample_index.report(u.rect)
    n_seed = int(tids.shape[0])
    if n_seed:
        dpt.add_catchup_rows_subtree(u, janus.table.rows_for(tids))
    # Rescale so the children's combined weight matches the ancestor.
    if n_seed > 0 and h_equiv > 0:
        factor = h_equiv / n_seed
        stack = list(u.children)
        while stack:
            node = stack.pop()
            node.h *= factor
            node.csum *= factor
            node.csumsq *= factor
            stack.extend(node.children)
    janus._rebuild_leaf_cache()     # first: the strata read routes from it
    if janus.strata is not None:
        janus.strata.reroute(janus._route_tid)
    if janus.trigger is not None:
        janus.trigger.rebase(dpt)
    # Epoch bump goes through the engine so it happens under its lock;
    # a bare `janus.data_epoch += 1` here would race the locked
    # read-modify-write cycles of the ingest paths (janus-lint JL102).
    janus.bump_epoch()
    report = PartialRepartitionReport(u.node_id, l_u, n_seed,
                                      time.perf_counter() - t0)
    # getattr: tests drive this with bare engine stand-ins that lack
    # the metrics instruments.
    hist = getattr(janus, "_h_repartition", None)
    if hist is not None:
        hist.observe(report.seconds)
    return report


def auto_partial_repartition(janus, leaf: DPTNode, max_psi: int = 6,
                             improvement: float = 0.8
                             ) -> PartialRepartitionReport:
    """Appendix E's automatic variant: grow ``psi`` until the region's
    max-variance improves by the requested factor (or the root is hit).
    """
    oracle = janus.trigger.oracle if janus.trigger is not None else None
    for psi in range(1, max_psi + 1):
        u = ancestor_at(leaf, psi)
        if u is janus.dpt.root:
            break
        before = oracle.max_variance(u.rect).variance if oracle else 0.0
        report = partial_repartition(janus, leaf, psi)
        after = max((oracle.max_variance(lf.rect).variance
                     for lf in _subtree_leaves(u)), default=0.0) \
            if oracle else 0.0
        if before <= 0 or after <= improvement * before:
            return report
        leaf = _subtree_leaves(u)[0]
    return partial_repartition(janus, leaf, max_psi)


def _subtree_leaves(node: DPTNode):
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n.is_leaf:
            out.append(n)
        stack.extend(n.children)
    return out


def _partition_region(janus, rect: Rectangle, k: int) -> PartitionNode:
    """Run the system's partitioner restricted to one region."""
    d = len(janus.predicate_attrs)
    coords, values, tids = janus.sample_index.report(rect)
    if coords.shape[0] == 0:
        return PartitionNode(rect)
    if d == 1:
        lo = rect.lo[0]
        hi = rect.hi[0]
        order = np.argsort(tids, kind="stable")   # canonical tid order
        result = OneDimPartitioner(
            janus.config.focus_agg, delta=janus.config.delta).partition(
                coords[order, 0], values[order], k,
                n_population=max(len(janus.table), 1),
                domain=(lo, hi))
        return result.tree
    result = KDTreePartitioner(
        janus.config.focus_agg, delta=janus.config.delta).partition(
            janus.sample_index, k, n_population=max(len(janus.table), 1),
            root_rect=rect)
    return result.tree
