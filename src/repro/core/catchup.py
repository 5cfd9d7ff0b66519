"""Catch-up phase: background refinement of node statistics (Section 4.3).

After a (re-)initialization the new tree's node statistics are estimates
seeded from the pooled reservoir sample.  The catch-up phase streams
additional uniform samples of the *snapshot* data (from archival storage
or from a broker topic) through the tree in random order, so the
SUM/COUNT/AVG statistics in every node remain unbiased while their
variance shrinks.  The paper runs catch-up "until we get 0.1 * |D|
samples"; the goal fraction is the user's accuracy/cost knob (Figure 7).

Two sources are supported:

* :meth:`CatchupRunner.run_from_table` - direct archival access, used by
  the main system path;
* :meth:`CatchupRunner.run_from_topic` - polls serialized records from a
  broker topic through an Appendix-A sampler, separately accounting
  *loading* (poll + parse) and *processing* (tree update) time, which is
  exactly the split of Figure 7's right plot.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable, ContextManager, Iterable, Optional

import numpy as np

from ..broker.broker import Topic
from ..broker.samplers import SequentialSampler, SingletonSampler
from .dpt import DynamicPartitionTree
from .table import Table


#: Rows per catch-up chunk.  One constant for every route of the
#: rebuild pipeline: the node sums are accumulated chunk by chunk, so a
#: second chunk size would be a second set of last-digit roundings.
CATCHUP_CHUNK = 2048


@dataclass
class CatchupReport:
    """Timing/volume accounting for one catch-up run."""

    goal: int = 0
    n_processed: int = 0
    loading_seconds: float = 0.0
    processing_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.loading_seconds + self.processing_seconds


class CatchupRunner:
    """Feeds snapshot samples into a DPT until a sample-count goal."""

    def __init__(self, dpt: DynamicPartitionTree,
                 seed: int = 0) -> None:
        self.dpt = dpt
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def run_from_table(self, table: Table,
                       snapshot_tids: Optional[np.ndarray], goal: int,
                       guard: Callable[[], ContextManager] =
                       contextlib.nullcontext) -> CatchupReport:
        """Sample ``goal`` snapshot rows uniformly (without replacement).

        ``snapshot_tids`` pins the epoch: rows inserted after
        re-initialization are excluded (they are tracked exactly by the
        delta statistics), and rows deleted since the snapshot are
        skipped.  Every chunk of ``CATCHUP_CHUNK`` rows is applied
        inside ``guard()``: the engine passes its lock-and-bump section,
        so a background rebuild yields to writers and readers between
        chunks while a caller that already holds the lock re-enters it
        for free.
        """
        report = CatchupReport(goal=goal)
        if snapshot_tids is None:
            snapshot_tids = table.live_tids()
        snapshot_tids = np.asarray(snapshot_tids)
        if snapshot_tids.size == 0 or goal <= 0:
            return report
        goal = min(goal, snapshot_tids.size)
        order = self._rng.permutation(snapshot_tids)[:goal]
        for start in range(0, order.size, CATCHUP_CHUNK):
            chunk = order[start:start + CATCHUP_CHUNK]
            with guard():
                t0 = time.perf_counter()
                live = chunk[table.live_mask(chunk)]
                rows = table.rows_for(live)
                t1 = time.perf_counter()
                self.dpt.add_catchup_rows(rows)
                report.processing_seconds += time.perf_counter() - t1
            report.loading_seconds += t1 - t0
            report.n_processed += int(live.size)
        return report

    # ------------------------------------------------------------------ #
    def run_from_topic(self, topic: Topic, goal: int,
                       sampler: Optional[object] = None,
                       poll_size: int = 10_000) -> CatchupReport:
        """Catch up by sampling serialized records from a broker topic.

        Loading time (polling, transfer, parsing) is reported separately
        from processing time (tree statistic updates) - Figure 7 (right).
        """
        report = CatchupReport(goal=goal)
        if sampler is None:
            rate = goal / max(topic.end_offset, 1)
            if rate > 0.10:
                sampler = SequentialSampler(topic, poll_size,
                                            seed=int(self._rng.integers(2**31)))
            else:
                sampler = SingletonSampler(
                    topic, seed=int(self._rng.integers(2**31)))
        before = sampler.stats.loading_seconds
        rows = sampler.sample(goal)
        report.loading_seconds = sampler.stats.loading_seconds - before
        t1 = time.perf_counter()
        if len(rows):
            self.dpt.add_catchup_rows(
                np.asarray(rows, dtype=np.float64))
        report.processing_seconds = time.perf_counter() - t1
        report.n_processed = len(rows)
        return report


def seed_from_reservoir(dpt: DynamicPartitionTree,
                        rows: Iterable[np.ndarray]) -> int:
    """Step 2 of the re-initialization pipeline (Figure 4).

    Populates approximate node statistics from the pooled reservoir
    sample - "the only blocking step in the re-initialization routine".
    Returns the number of rows seeded.

    The main path hands the pool over as one ``(n, n_attrs)`` matrix
    (a single vectorized table gather), which flows straight into the
    batched catch-up routing; re-wrapping and stacking per-row arrays
    is kept only for iterable callers.
    """
    if isinstance(rows, np.ndarray):
        if rows.shape[0] == 0:
            return 0
        dpt.add_catchup_rows(np.asarray(rows, dtype=np.float64))
        return int(rows.shape[0])
    block = [np.asarray(row, dtype=np.float64) for row in rows]
    if not block:
        return 0
    dpt.add_catchup_rows(np.stack(block))
    return len(block)
