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

from .node import DPTNode


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
    leaf budget is preserved (``l_u`` leaves before and after).  The
    work is the engine's rebuild pipeline scoped to the ancestor (the
    whole tree when ``psi`` reaches the root), run under the engine's
    lock: readers and writers never see a half-replaced subtree.
    """
    t0 = time.perf_counter()
    with janus._lock:
        scope = ancestor_at(leaf, psi)
        if scope is janus.dpt.root:
            scope = None            # degenerates to a full re-partition
        janus._rebuild(scope=scope)
        u = scope or janus.dpt.root
        return PartialRepartitionReport(
            u.node_id, janus.dpt.subtree_leaf_count(u),
            janus.sample_index.count(u.rect), time.perf_counter() - t0)


def auto_partial_repartition(janus, leaf: DPTNode, max_psi: int = 6,
                             improvement: float = 0.8
                             ) -> PartialRepartitionReport:
    """Appendix E's automatic variant: grow ``psi`` until the region's
    max-variance improves by the requested factor (or the root is hit).
    """
    with janus._lock:
        oracle = janus.trigger.oracle
        for psi in range(1, max_psi + 1):
            u = ancestor_at(leaf, psi)
            if u is janus.dpt.root:
                break
            before = oracle.max_variance(u.rect).variance
            report = partial_repartition(janus, leaf, psi)
            leaves = [n for n in janus.dpt.subtree_nodes(u) if n.is_leaf]
            after = max(oracle.max_variance(lf.rect).variance
                        for lf in leaves)
            if before <= 0 or after <= improvement * before:
                return report
            leaf = leaves[0]
        return partial_repartition(janus, leaf, max_psi)
