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
times.  The reservoir is the membership *policy* only: every mutating
call hands its net membership change back as a :class:`PoolChange`, and
the caller (:class:`~repro.sampling.pool.SamplePool`) applies it to
whatever is stored per member - the paper's "virtual partitions of a
single global sample".

Bulk streams use :meth:`DynamicReservoir.on_insert_many` /
:meth:`DynamicReservoir.on_delete_many`: one vectorized acceptance draw
and one net change per batch; the per-tid methods are wrappers over the
batch path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Sequence

import numpy as np

from ..core.table import Table


class PoolChange(NamedTuple):
    """Net membership change of one reservoir call.

    ``removed`` and ``added`` are disjoint and apply in that order (a
    tid added and evicted within one batch appears in neither).  A
    ``reset`` re-drew the whole pool: ``added`` is the new membership
    and everything held before it is gone.
    """

    removed: List[int]
    added: List[int]
    reset: bool = False


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
        self.n_resamples = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, tid: int) -> bool:
        return tid in self._pos

    def __iter__(self) -> Iterator[int]:
        """Members in the order they joined (a reset joins its draw in
        member order); :meth:`tids` is slot order, which evictions
        permute."""
        return iter(self._pos)

    def tids(self) -> List[int]:
        return list(self._members)

    # ------------------------------------------------------------------ #
    def set_target(self, target_size: int) -> PoolChange:
        """Re-size the pool (the paper's 2m tracks 2 * rate * |D|).

        A grown target filled only by future arrivals would bias the
        pool toward them, so the pool is re-drawn from archival storage
        - exactly step 4 of the re-initialization pipeline.
        """
        if target_size < 2:
            raise ValueError("target_size must be >= 2")
        self.target_size = target_size
        self.min_size = max(1, target_size // 2)
        return self.initialize()

    def initialize(self) -> PoolChange:
        """Draw ``2m`` fresh uniform samples from archival storage."""
        tids = self.table.sample_tids(self.target_size, self._rng)
        return self.restore([int(t) for t in tids])

    def restore(self, tids: Sequence[int]) -> PoolChange:
        """Adopt ``tids`` as the membership (a draw, or a snapshot's)."""
        self._members = list(tids)
        self._pos = {t: i for i, t in enumerate(self._members)}
        return PoolChange([], list(self._members), reset=True)

    def on_insert(self, tid: int) -> PoolChange:
        """Notify the reservoir that ``tid`` was inserted into the table."""
        return self.on_insert_many((tid,))

    def on_insert_many(self, tids: Sequence[int]) -> PoolChange:
        """Notify the reservoir of a bulk insert in one call.

        ``tids`` must already be live in the table (call after
        :meth:`Table.insert_many`).  Statistically equivalent to calling
        :meth:`on_insert` per tid in arrival order: the acceptance
        probability of the i-th tid uses the live count as of *its*
        insertion, reconstructed from the final table size - but the
        whole batch takes one vectorized acceptance draw and returns
        one net membership change.
        """
        tids = [int(t) for t in tids]
        added: List[int] = []
        removed: List[int] = []
        # Phase 1: fill to the target deterministically.
        n_fill = min(max(self.target_size - len(self._members), 0),
                     len(tids))
        for tid in tids[:n_fill]:
            self._add(tid)
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
                        self._add(tid)
                        added.append(tid)
        # Net of the batch: a tid added and then evicted inside it
        # never reaches the caller.
        added_set = set(added)
        evicted = {t for t in removed if t in added_set}
        return PoolChange([t for t in removed if t not in added_set],
                          [t for t in added if t not in evicted])

    def on_delete(self, tid: int) -> PoolChange:
        """Notify the reservoir that ``tid`` was deleted from the table.

        Call *after* the table delete so a triggered resample cannot
        re-draw the deleted row.
        """
        return self.on_delete_many((tid,))

    def on_delete_many(self, tids: Sequence[int]) -> PoolChange:
        """Notify the reservoir of a bulk delete in one call.

        Sampled members are evicted; the shrink-below-``m`` resample
        check runs once after the whole batch (the per-tid path checks
        after every eviction, which is identical at batch size 1) and
        turns the change into a reset.
        """
        removed: List[int] = []
        for tid in tids:
            idx = self._pos.get(int(tid))
            if idx is None:
                continue
            self._remove_at(idx)
            removed.append(int(tid))
        if removed and len(self._members) < self.min_size and \
                len(self.table) >= self.min_size:
            self.n_resamples += 1
            return self.initialize()
        return PoolChange(removed, [])

    # ------------------------------------------------------------------ #
    def _add(self, tid: int) -> None:
        self._pos[tid] = len(self._members)
        self._members.append(tid)

    def _remove_at(self, idx: int) -> None:
        tid = self._members[idx]
        last = self._members[-1]
        self._members[idx] = last
        self._pos[last] = idx
        self._members.pop()
        del self._pos[tid]
