"""Random samplers over a broker topic (paper, Appendix A).

Message brokers expose no random access: a consumer polls a contiguous
batch from an offset.  Appendix A proposes two unbiased samplers and
studies their latency trade-off (reproduced by
``benchmarks/bench_table4_samplers.py``):

* :class:`SingletonSampler` - each poll requests **one** record at a
  uniformly random offset.  Minimal transfer, one API round-trip per
  sample; best for small sample rates (the paper uses it for <=1%
  initialization sampling).
* :class:`SequentialSampler` - scans the whole topic in batches of
  ``poll_size`` and keeps a uniform subsample of each batch.  The entire
  log is transferred, but per-record API overhead is amortized; best for
  large catch-up rates (>=10%).

Both samplers return *parsed* rows and separately account the time spent
loading (polling + parsing, the "essential cost" of Figure 7's right plot)
so the catch-up benchmark can split loading from processing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .broker import Topic, decode_row

#: The batch :func:`choose_sampler`'s sequential sampler polls.
CATCHUP_POLL_SIZE = 10_000


@dataclass
class SampleStats:
    """Accounting for one sampling run."""

    n_polls: int = 0
    n_records_transferred: int = 0
    n_samples: int = 0
    loading_seconds: float = 0.0


class SingletonSampler:
    """One record per poll at a random offset: unbiased, low transfer."""

    def __init__(self, topic: Topic, seed: int = 0) -> None:
        self.topic = topic
        self._rng = np.random.default_rng(seed)
        self.stats = SampleStats()

    def sample(self, k: int) -> List[List[float]]:
        """Draw ``k`` uniform records (with replacement across polls)."""
        out: List[List[float]] = []
        end = self.topic.end_offset
        if end == 0:
            return out
        t0 = time.perf_counter()
        for _ in range(k):
            offset = int(self._rng.integers(end))
            batch = self.topic.poll(offset, 1)
            self.stats.n_polls += 1
            self.stats.n_records_transferred += len(batch)
            if batch:
                out.append(decode_row(batch[0]))
        self.stats.loading_seconds += time.perf_counter() - t0
        self.stats.n_samples += len(out)
        return out


class SequentialSampler:
    """Scan the topic in batches, keep a per-batch uniform subsample."""

    def __init__(self, topic: Topic, poll_size: int,
                 seed: int = 0) -> None:
        if poll_size < 1:
            raise ValueError("poll_size must be >= 1")
        self.topic = topic
        self.poll_size = poll_size
        self._rng = np.random.default_rng(seed)
        self.stats = SampleStats()

    def sample(self, k: int) -> List[List[float]]:
        """Draw ``k`` uniform records by scanning the whole topic."""
        end = self.topic.end_offset
        if end == 0 or k <= 0:
            return []
        rate = min(1.0, k / end)
        out: List[List[float]] = []
        t0 = time.perf_counter()
        offset = 0
        while offset < end:
            batch = self.topic.poll(offset, self.poll_size)
            if not batch:
                break
            self.stats.n_polls += 1
            self.stats.n_records_transferred += len(batch)
            keep = self._rng.random(len(batch)) < rate
            for record, kept in zip(batch, keep):
                if kept:
                    out.append(decode_row(record))
            offset += len(batch)
        self.stats.loading_seconds += time.perf_counter() - t0
        self.stats.n_samples += len(out)
        return out


def choose_sampler(topic: Topic, sample_rate: float, seed: int = 0):
    """The paper's policy: singleton for rates <~10%, sequential above.

    "Because the sample rate we use during initialization is no larger
    than 1%, we always use a singleton sampler during initialization...
    for the catch-up phase, if our catch-up rate is larger than 10% ...
    we will prefer to use a sequential sampler" (Appendix A).
    """
    if sample_rate > 0.10:
        return SequentialSampler(topic, CATCHUP_POLL_SIZE, seed=seed)
    return SingletonSampler(topic, seed=seed)
