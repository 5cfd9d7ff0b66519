"""Dynamic reservoir sampling under insertions and arbitrary deletions.

Section 4.2 of the paper, after Gibbons-Matias-Poosala [16] and Vitter's
classic reservoir algorithm [43]:

* the pooled sample has a *target* size ``2m`` and the invariant
  ``m <= |S| <= 2m`` (while the base data is large enough);
* **insert t**: if ``|S| < 2m`` add t, else accept t with probability
  ``|S| / |D|`` and, if accepted, replace a uniformly random member;
* **delete t**: if ``t`` is not sampled, do nothing; if it is, remove it -
  and when the reservoir has shrunk to ``m`` elements, discard it and
  re-draw ``2m`` fresh uniform samples from archival storage.

This procedure keeps ``S`` a uniform random sample of the live data at all
times.  Observers (the DPT's stratified leaf view, the partitioner's range
index) subscribe to add/remove/reset events so every structure built over
the pooled sample stays synchronized - the paper's "virtual partitions of
a single global sample".

Bulk streams use :meth:`DynamicReservoir.on_insert_many` /
:meth:`DynamicReservoir.on_delete_many`: one vectorized acceptance draw
per batch and one net membership notification to the observers; the
per-tid methods are wrappers over the batch path.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Optional, Protocol,
                    Sequence)

import numpy as np

from ..core.table import Table


class ReservoirObserver(Protocol):
    """Receives reservoir membership changes.

    Observers may additionally implement ``on_add_many(tids)`` /
    ``on_remove_many(tids)``; the reservoir's bulk operations use those
    when present (one call per batch) and fall back to the per-tid
    callbacks otherwise.
    """

    def on_add(self, tid: int) -> None: ...

    def on_remove(self, tid: int) -> None: ...

    def on_reset(self, tids: List[int]) -> None: ...


class DynamicReservoir:
    """A uniform sample of a :class:`Table` maintained under updates."""

    def __init__(self, table: Table, target_size: int,
                 seed: int = 0) -> None:
        if target_size < 2:
            raise ValueError("target_size must be >= 2")
        self.table = table
        self.target_size = target_size          # the paper's 2m
        self.min_size = max(1, target_size // 2)  # the paper's m
        self._rng = np.random.default_rng(seed)
        self._members: List[int] = []
        self._pos: Dict[int, int] = {}
        self._observers: List[ReservoirObserver] = []
        self.n_resamples = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, tid: int) -> bool:
        return tid in self._pos

    def tids(self) -> List[int]:
        return list(self._members)

    def subscribe(self, observer: ReservoirObserver) -> None:
        self._observers.append(observer)

    def unsubscribe(self, observer: ReservoirObserver) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------ #
    def set_target(self, target_size: int, resample: bool = True) -> None:
        """Re-size the pool (the paper's 2m tracks 2 * rate * |D|).

        Growing the target without resampling would bias the pool toward
        future arrivals, so by default the pool is re-drawn from archival
        storage - exactly step 4 of the re-initialization pipeline.
        """
        if target_size < 2:
            raise ValueError("target_size must be >= 2")
        self.target_size = target_size
        self.min_size = max(1, target_size // 2)
        if resample:
            self.initialize()

    def initialize(self) -> None:
        """Draw ``2m`` fresh uniform samples from archival storage."""
        tids = self.table.sample_tids(self.target_size, self._rng)
        self._members = [int(t) for t in tids]
        self._pos = {t: i for i, t in enumerate(self._members)}
        for obs in self._observers:
            obs.on_reset(list(self._members))

    def on_insert(self, tid: int) -> None:
        """Notify the reservoir that ``tid`` was inserted into the table."""
        self.on_insert_many((tid,))

    def on_insert_many(self, tids: Sequence[int]) -> None:
        """Notify the reservoir of a bulk insert in one call.

        ``tids`` must already be live in the table (call after
        :meth:`Table.insert_many`).  Statistically equivalent to calling
        :meth:`on_insert` per tid in arrival order: the acceptance
        probability of the i-th tid uses the live count as of *its*
        insertion, reconstructed from the final table size - but the
        whole batch takes one vectorized acceptance draw and observers
        receive one bulk notification of the net membership change.
        """
        tids = [int(t) for t in tids]
        if not tids:
            return
        added: List[int] = []
        removed: List[int] = []
        # Phase 1: fill to the target deterministically.
        n_fill = min(max(self.target_size - len(self._members), 0),
                     len(tids))
        for tid in tids[:n_fill]:
            self._add_silent(tid)
            added.append(tid)
        rest = tids[n_fill:]
        if rest:
            size = len(self._members)
            if size > 0 and len(self.table) > 0:
                # Live count as of each remaining tid's insertion.
                base = len(self.table) - len(rest)
                n_live = base + 1 + np.arange(len(rest))
                accept = self._rng.random(len(rest)) < (size / n_live)
                n_accepted = int(accept.sum())
                if n_accepted:
                    victims = self._rng.integers(size, size=n_accepted)
                    for tid, v_idx in zip(
                            (t for t, a in zip(rest, accept) if a),
                            victims):
                        victim = self._members[int(v_idx)]
                        self._remove_at(int(v_idx))
                        removed.append(victim)
                        self._add_silent(tid)
                        added.append(tid)
        self._notify_membership(added, removed)

    def on_delete(self, tid: int) -> None:
        """Notify the reservoir that ``tid`` was deleted from the table.

        Call *after* the table delete so a triggered resample cannot
        re-draw the deleted row.
        """
        self.on_delete_many((tid,))

    def on_delete_many(self, tids: Sequence[int]) -> None:
        """Notify the reservoir of a bulk delete in one call.

        Sampled members are evicted with one bulk observer notification;
        the shrink-below-``m`` resample check runs once after the whole
        batch (the per-tid path checks after every eviction, which is
        identical at batch size 1).
        """
        removed: List[int] = []
        for tid in tids:
            idx = self._pos.get(int(tid))
            if idx is None:
                continue
            self._remove_at(idx)
            removed.append(int(tid))
        self._notify_membership([], removed)
        if removed and len(self._members) < self.min_size and \
                len(self.table) >= self.min_size:
            self.n_resamples += 1
            self.initialize()

    # ------------------------------------------------------------------ #
    def _add_silent(self, tid: int) -> None:
        self._pos[tid] = len(self._members)
        self._members.append(tid)

    def _notify_membership(self, added: List[int],
                           removed: List[int]) -> None:
        """Publish the *net* membership change of a bulk operation.

        A tid added and then evicted within the same batch never reaches
        the observers, so their view always matches the final reservoir
        state.  Removals are published before additions (matching the
        per-event replace order); the two net sets are disjoint.
        """
        added_set = set(added)
        net_removed = [t for t in removed if t not in added_set]
        evicted = {t for t in removed if t in added_set}
        net_added = [t for t in added if t not in evicted]
        if not net_removed and not net_added:
            return
        for obs in self._observers:
            if net_removed:
                remove_many = getattr(obs, "on_remove_many", None)
                if remove_many is not None:
                    remove_many(net_removed)
                else:
                    for tid in net_removed:
                        obs.on_remove(tid)
            if net_added:
                add_many = getattr(obs, "on_add_many", None)
                if add_many is not None:
                    add_many(net_added)
                else:
                    for tid in net_added:
                        obs.on_add(tid)

    def _remove_at(self, idx: int) -> None:
        tid = self._members[idx]
        last = self._members[-1]
        self._members[idx] = last
        self._pos[last] = idx
        self._members.pop()
        del self._pos[tid]
