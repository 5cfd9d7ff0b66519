"""Re-partitioning triggers (paper Section 5.4 and Appendix E).

JanusAQP monitors its own synopsis health and re-partitions when the
current tree is no longer good:

1. **Under-represented leaf** - a leaf whose stratum holds far fewer
   samples than the ``log m`` floor cannot support robust estimators.
2. **Variance drift** - each leaf remembers the (approximate) max
   variance ``M_i`` at construction time; when an update moves the
   current ``M_i'`` outside ``[M_i / beta, beta * M_i]`` the partitioning
   *may* be stale.

Either condition only makes the leaf a *candidate*: the system then
computes a fresh partitioning R' over the current samples and commits it
only when ``M(R') < M(R) / beta`` - otherwise the current tree is still
within a beta-factor of the best achievable and is kept.  Users may also
force periodic re-partitioning (``every_n_updates``), which is what the
Figure 10 experiment uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..partitioning.maxvar import MaxVarOracle
from ..sampling.pool import SamplePool
from .dpt import DynamicPartitionTree
from .node import NodeRef
from .queries import Rectangle


class TriggerAction(enum.Enum):
    NONE = "none"
    CANDIDATE = "candidate"       # compute R' and compare against R
    FORCED = "forced"             # periodic/user-forced re-partition


@dataclass
class TriggerConfig:
    beta: float = 10.0
    check_every: int = 256        # updates between drift checks
    every_n_updates: Optional[int] = None   # periodic forcing, if set


@dataclass
class TriggerState:
    baseline: Dict[int, float] = field(default_factory=dict)  # leaf -> M_i
    updates_since_check: int = 0
    updates_since_repartition: int = 0
    # Lifetime counts (never reset: the engine keeps one trigger).
    n_checks: int = 0             # drift checks that came due
    n_candidates: int = 0
    n_forced: int = 0


class RepartitionTrigger:
    """Drift detector over one DPT's leaves.

    Each leaf's current ``M_i'`` is memoised between pool changes, so a
    check costs oracle calls for the leaves the pool changed under, not
    for all k.  The SUM and COUNT oracles are pure functions of the pool
    points in the leaf's closed rectangle, and the leaves tile with
    disjoint closed rectangles, so the one leaf whose rectangle holds a
    point is the stratum the pool files it under: :meth:`pool_changed`
    drops the entries of the strata a change touched.  The AVG oracle is
    not ``rect_local``, so any change drops them all - as does a pool
    change nobody reported (``pool.version`` ran ahead).  A memoised
    value is thus always bit-equal to a fresh oracle call.
    """

    def __init__(self, config: TriggerConfig, oracle: MaxVarOracle,
                 pool: SamplePool) -> None:
        self.config = config
        self.oracle = oracle
        self.pool = pool          # its strata are the leaves' samples
        self.state = TriggerState()
        self._pos: Dict[int, int] = {}    # rebased tree's leaf id -> row
        # M_i' per row, None = dirty; ``_lock`` is the owning engine's.
        self._memo: List[Optional[float]] = []  # guarded-by: _lock
        self._version = -1                    # pool.version memo is for

    # ------------------------------------------------------------------ #
    def rebase(self, dpt: DynamicPartitionTree) -> None:  # requires-lock: _lock
        """Record per-leaf baseline variances for a (new) tree."""
        self._pos = {leaf.node_id: i for i, leaf in enumerate(dpt.leaves)}
        self.pool_changed((None,))
        self.state.baseline = {leaf.node_id: self.leaf_variance(leaf)
                               for leaf in dpt.leaves}
        self.state.updates_since_check = 0
        self.state.updates_since_repartition = 0

    def pool_changed(self, reports: Sequence[Optional[np.ndarray]]  # requires-lock: _lock
                     ) -> None:
        """Account the mutating calls made on :attr:`pool` since the
        last report: per call, the stratum keys it touched (what
        :class:`~repro.sampling.pool.SamplePool` returns).  A ``None``
        among them (a redraw, or the tree changed) drops the memo, as
        does a version that moved by more calls than reported.
        """
        version = self.pool.version
        if version != self._version + len(reports) or \
                not self.oracle.rect_local or \
                any(keys is None for keys in reports):
            self._memo = [None] * len(self._pos)
        else:
            for keys in reports:
                for key in set(keys.tolist()):
                    i = self._pos.get(key)
                    if i is not None:
                        self._memo[i] = None
        self._version = version

    def leaf_variance(self, leaf: NodeRef) -> float:  # requires-lock: _lock
        """``M_i'``: the leaf's max variance under the current samples."""
        i = self._pos.get(leaf.node_id)
        if i is None:                    # not a leaf of the rebased tree
            return self.oracle.max_variance(leaf.rect).variance
        if self.pool.version != self._version:
            self.pool_changed((None,))
        var = self._memo[i]
        if var is None:
            var = self._memo[i] = \
                self.oracle.max_variance(leaf.rect).variance
        return var

    def current_max_variance(self, dpt: DynamicPartitionTree) -> float:  # requires-lock: _lock
        """M(R): worst leaf variance under the current samples."""
        return max((self.leaf_variance(leaf) for leaf in dpt.leaves),
                   default=0.0)

    # ------------------------------------------------------------------ #
    def on_update_batch(self, dpt: DynamicPartitionTree,  # requires-lock: _lock
                        leaf_counts: Iterable[Tuple[NodeRef, int]]
                        ) -> TriggerAction:
        """Account a whole update batch in one call.

        ``leaf_counts`` pairs each touched leaf with the number of batch
        rows routed to it; the ``check_every`` counters advance by the
        batch total.  When a drift check comes due, every touched leaf
        is examined in one consolidated check (a superset of the
        single-leaf checks one row at a time would have run inside the
        batch), and the counter keeps its remainder so the check cadence
        stays one per ``check_every`` updates across batch boundaries.
        A one-row update is ``[(leaf, 1)]``.
        """
        leaf_counts = list(leaf_counts)
        total = sum(count for _, count in leaf_counts)
        self.state.updates_since_check += total
        self.state.updates_since_repartition += total
        cfg = self.config
        if (cfg.every_n_updates is not None and
                self.state.updates_since_repartition >= cfg.every_n_updates):
            self.state.n_forced += 1
            return TriggerAction.FORCED
        if self.state.updates_since_check < cfg.check_every:
            return TriggerAction.NONE
        self.state.updates_since_check %= cfg.check_every
        self.state.n_checks += 1
        for leaf, _ in leaf_counts:
            if self._under_represented(leaf) or \
                    self._variance_drifted(leaf):
                self.state.n_candidates += 1
                return TriggerAction.CANDIDATE
        return TriggerAction.NONE

    def _under_represented(self, leaf: NodeRef) -> bool:
        """Section 5.4's robustness floor: a leaf holding fewer than
        ``log |S|`` pooled rows (the ``(1/alpha) log m`` population floor
        over the population-to-sample ratio ``1/alpha``)."""
        floor = math.log(max(len(self.pool), 2))
        return self.pool.stratum_size(leaf.node_id) < floor

    def _variance_drifted(self, leaf: NodeRef) -> bool:  # requires-lock: _lock
        baseline = self.state.baseline.get(leaf.node_id)
        if baseline is None:
            return False
        current = self.leaf_variance(leaf)
        beta = self.config.beta
        if baseline <= 0:
            return current > 0
        drifted = not (baseline / beta <= current <= beta * baseline)
        if not drifted:
            # refresh to avoid re-checking an accepted drift forever
            self.state.baseline[leaf.node_id] = max(baseline, current)
        return drifted

    # ------------------------------------------------------------------ #
    def confirm(self, new_max_variance: float,
                old_max_variance: float) -> bool:
        """Commit rule: ``M(R') < M(R) / beta``."""
        if old_max_variance <= 0:
            return False
        return new_max_variance < old_max_variance / self.config.beta

    def confirm_rects(self, rects: Iterable[Rectangle],
                      old_max_variance: float) -> bool:
        """:meth:`confirm` on ``max(M(r) for r in rects)``, stopping at
        the first rectangle whose variance alone decides a rejection."""
        old = old_max_variance
        return self.confirm(0.0, old) and all(
            self.confirm(self.oracle.max_variance(rect).variance, old)
            for rect in rects)
