"""Shard placement and global-tid bookkeeping for the sharded coordinator.

:class:`~repro.core.sharded.ShardedJanusAQP` answers the same two
questions for every batch, whether its shards live in this process or
in fleet workers (:mod:`repro.service.fleet`): *which shard gets each
new row* and *which shard currently owns a global tid*.  The logic
lives here once:

* :class:`PlacementMap` - the lock-guarded owner of the placement
  rule (``hash`` / ``range`` / ``attr`` modes, with ``attr`` cuts
  struck lazily from the first batch that carries finite routing
  values), the global-tid-to-(shard, local-tid) maps and the tid
  counter.  The coordinator holds exactly one;
* :func:`stagger_trigger` - the phase-offset of per-shard forced
  repartition counters (the one-shard-rebuilds-at-a-time cadence).
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["PlacementMap", "stagger_trigger"]


def stagger_trigger(shard, shard_id: int, n_shards: int) -> None:
    """Phase-offset a shard's forced-repartition counter.

    Under balanced placement every shard crosses a shared
    ``repartition_every`` threshold in the *same* ingest batch, so all
    N rebuilds would land on one request.  Setting shard s's update
    counter to ``s/N`` of the period right after its first build
    spreads the first firing across the period; afterwards each shard
    re-fires every R local updates and the offsets persist, so at most
    one shard is rebuilding at a time.  Runs on every path that first
    builds a shard - eager initialize, lazy ingest build, rebalance
    into an empty shard, snapshot restore, and a fleet worker's
    warm start - with the identical formula, which the fleet's
    answer-identity gate depends on.
    """
    period = shard.config.repartition_every
    trigger = shard.trigger
    if not period or trigger is None:
        return
    trigger.state.updates_since_repartition = \
        shard_id * int(period) // n_shards


class PlacementMap:
    """Lock-guarded global-tid bookkeeping of a sharded coordinator.

    Owns the global-tid-to-(shard, local-tid) maps, the tid counter and
    the ``attr`` placement bounds.  Ingest is split begin/commit: tids
    are assigned and placed under the lock, the shards ingest outside
    it, and the ownership rows are written back under the lock once the
    local tids are known - so a concurrent liveness probe never sees a
    half-written batch.

    Every method takes :attr:`lock` itself.  The lock is reentrant and
    public so a multi-step read-modify-write (a rebalance moving
    ownership, ``save_sharded``'s consistency gate) can hold it across
    several calls; it is always the *outermost* lock - nothing that
    holds a shard or summary lock ever waits on it.
    """

    def __init__(self, n_shards: int, sharding: str,
                 range_block: int = 8192, route_col: int = 0,
                 attr_bounds: Optional[np.ndarray] = None) -> None:
        self.n_shards = int(n_shards)
        self.sharding = sharding
        self.range_block = int(range_block)
        self.route_col = int(route_col)
        self.lock = threading.RLock()
        self.attr_bounds = attr_bounds  # guarded-by: lock
        self._shard_of = np.full(64, -1, dtype=np.int64)  # guarded-by: lock
        self._local_tid = np.zeros(64, dtype=np.int64)  # guarded-by: lock
        self._next_tid = 0  # guarded-by: lock

    def _grow(self, need: int) -> None:  # requires-lock: lock
        """Capacity doubling (``-1`` marks dead/unassigned slots)."""
        cap = self._shard_of.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        grown_of = np.full(new_cap, -1, dtype=np.int64)
        grown_of[:cap] = self._shard_of
        grown_local = np.zeros(new_cap, dtype=np.int64)
        grown_local[:cap] = self._local_tid
        self._shard_of, self._local_tid = grown_of, grown_local

    def restore(self, shard_of: np.ndarray, local_tid: np.ndarray) -> None:
        """Adopt (not copy) the tid maps of a ``save_sharded`` manifest,
        one row per assigned tid."""
        with self.lock:
            self._shard_of = np.asarray(shard_of, dtype=np.int64)
            self._local_tid = np.asarray(local_tid, dtype=np.int64)
            self._next_tid = int(shard_of.shape[0])

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    def begin_insert(self, rows: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Assign global tids and place a row batch; returns
        ``(tids, placement)``.  Ownership is not yet visible - commit
        with :meth:`commit_insert` once the per-shard local tids are
        known."""
        n = rows.shape[0]
        with self.lock:
            tids = np.arange(self._next_tid, self._next_tid + n,
                             dtype=np.int64)
            self._next_tid += n
            self._grow(self._next_tid)
            placement = self._place(tids, rows)
        return tids, placement

    def _place(self, tids: np.ndarray,  # requires-lock: lock
               rows: np.ndarray) -> np.ndarray:
        """Initial shard placement for a new batch (vectorized).

        ``hash``/``range`` place by tid; ``attr`` places by the routing
        attribute's value against :attr:`attr_bounds`.  Values past the
        outer bounds land on the edge shards; NaNs sort past every
        bound onto the last shard - placement never affects
        correctness, only routing selectivity.  Missing bounds are
        struck here, at the quantiles of the batch's finite values
        (NaNs must not skew the cuts); with no finite value at all
        there is nothing to cut yet and the batch lands on shard 0.
        """
        if self.sharding == "hash":
            return tids % self.n_shards
        if self.sharding == "range":
            return (tids // self.range_block) % self.n_shards
        vals = rows[:, self.route_col]
        if self.attr_bounds is None:
            finite = vals[np.isfinite(vals)]
            if finite.size == 0:
                return np.zeros(tids.shape[0], dtype=np.int64)
            self.attr_bounds = np.quantile(
                finite, np.arange(1, self.n_shards) / self.n_shards)
        return np.searchsorted(self.attr_bounds, vals,
                               side="right").astype(np.int64)

    def commit_insert(self, tids: np.ndarray, placement: np.ndarray,
                      ingested: List[Tuple[np.ndarray, np.ndarray]]
                      ) -> None:
        """Publish ownership: one ``(sel, local_tids)`` pair per
        touched shard, with ``sel`` indexing into the batch."""
        with self.lock:
            for (sel, local) in ingested:
                g = tids[sel]
                self._shard_of[g] = placement[sel]
                self._local_tid[g] = local

    # ------------------------------------------------------------------ #
    # delete / move
    # ------------------------------------------------------------------ #
    def begin_delete(self, tid_arr: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate and claim a delete batch; returns
        ``(owners, local_tids)`` aligned with ``tid_arr``.

        A dead or duplicated tid raises ``KeyError`` before any
        ownership row is cleared, so the shards never end up
        half-deleted.
        """
        with self.lock:
            bad = (tid_arr < 0) | (tid_arr >= self._shard_of.shape[0])
            if not bad.any():
                owners = self._shard_of[tid_arr]
                bad = owners < 0
            if bad.any():
                raise KeyError(
                    f"tid {int(tid_arr[np.argmax(bad)])} is not live")
            if np.unique(tid_arr).size != tid_arr.size:
                raise KeyError("duplicate tid in delete batch")
            locals_ = self._local_tid[tid_arr]
            self._shard_of[tid_arr] = -1
        return owners, locals_

    def owned_in(self, lo_tid: int, hi_tid: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tids, owners, local_tids)`` of the live global tids in
        ``[lo_tid, hi_tid)``, ascending."""
        with self.lock:
            span = np.arange(max(0, int(lo_tid)),
                             min(int(hi_tid), self._next_tid),
                             dtype=np.int64)
            span = span[self._shard_of[span] >= 0]
            return span, self._shard_of[span], self._local_tid[span]

    def move(self, tids: np.ndarray, dst: int,
             local_tids: np.ndarray) -> None:
        """Rewrite ownership of ``tids`` to shard ``dst``.

        A rebalance holds :attr:`lock` from :meth:`owned_in` to here,
        so no delete can turn the gathered owners stale mid-move.
        """
        with self.lock:
            self._shard_of[tids] = dst
            self._local_tid[tids] = local_tids

    # ------------------------------------------------------------------ #
    # probes
    # ------------------------------------------------------------------ #
    def owner(self, tid: int) -> int:
        """The shard currently holding a live global tid."""
        t = int(tid)
        with self.lock:
            if 0 <= t < self._shard_of.shape[0] and self._shard_of[t] >= 0:
                return int(self._shard_of[t])
        raise KeyError(f"tid {tid} is not live")

    def live(self, tid: int) -> bool:
        """Liveness probe (a concurrent insert may be swapping the
        arrays out for bigger ones, hence the lock)."""
        t = int(tid)
        with self.lock:
            return bool(0 <= t < self._shard_of.shape[0]
                        and self._shard_of[t] >= 0)

    @property
    def next_tid(self) -> int:
        with self.lock:
            return self._next_tid

    def state_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(shard_of, local_tid)`` copies, one row per assigned tid."""
        with self.lock:
            n = self._next_tid
            return self._shard_of[:n].copy(), self._local_tid[:n].copy()
