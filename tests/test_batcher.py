"""The micro-batcher's admission contract (ISSUE 17), deterministically.

``execute`` is a stub gated on ``threading.Event``s, so every ordering
below is forced rather than raced; no assertion reads a wall clock.
Timeouts only bound how long a broken batcher may hang the suite.  The
poisoned-batch isolation test lives in ``tests/test_service.py``.
"""

import asyncio
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.batcher import MicroBatcher

NEVER_MS = 10_000.0     # a linger deadline no test waits out
WAIT = 5.0              # hang guard for every await/wait below


class Lane:
    """A recording ``execute`` whose calls block while ``gate`` is
    clear; ``entered`` fires when a call reaches the executor."""

    def __init__(self, gated: bool = False) -> None:
        self.calls = []
        self.gate = threading.Event()
        self.entered = threading.Event()
        if not gated:
            self.gate.set()

    def __call__(self, queries):
        self.calls.append(list(queries))
        self.entered.set()
        assert self.gate.wait(WAIT), "the test never released the lane"
        return [f"ok:{q}" for q in queries]


async def parked(batcher: MicroBatcher, n: int) -> None:
    """Let the loop run until ``n`` queries sit in the pending list."""
    for _ in range(1000):
        if len(batcher._pending) == n:
            return
        await asyncio.sleep(0)
    raise AssertionError(f"{len(batcher._pending)} parked, wanted {n}")


async def entered(lane: Lane) -> None:
    """Wait (off the loop) for a call to reach the executor."""
    ok = await asyncio.get_running_loop().run_in_executor(
        None, lane.entered.wait, WAIT)
    assert ok, "no batch reached the executor"
    lane.entered.clear()


def test_lone_submit_on_an_idle_batcher_does_not_wait_for_the_deadline():
    lane = Lane()

    async def scenario():
        batcher = MicroBatcher(lane, max_linger_ms=NEVER_MS)
        result = await asyncio.wait_for(batcher.submit("q"), 1.0)
        await batcher.close()
        return result, batcher.stats

    result, stats = asyncio.run(scenario())
    assert result == "ok:q"
    assert lane.calls == [["q"]]
    assert (stats.n_flush_idle, stats.n_flush_linger) == (1, 0)
    assert stats.to_dict()["n_flush_idle"] == 1


def test_same_tick_submits_share_one_batch():
    lane = Lane()

    async def scenario():
        batcher = MicroBatcher(lane, max_linger_ms=NEVER_MS)
        tasks = [asyncio.ensure_future(batcher.submit(q))
                 for q in "abcd"]
        results = await asyncio.wait_for(asyncio.gather(*tasks), WAIT)
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(scenario())
    assert results == ["ok:a", "ok:b", "ok:c", "ok:d"]
    assert lane.calls == [["a", "b", "c", "d"]]
    assert (stats.n_batches, stats.n_flush_idle) == (1, 1)


def test_queries_parked_behind_a_batch_leave_together_when_it_lands():
    lane = Lane(gated=True)

    async def scenario():
        batcher = MicroBatcher(lane, max_linger_ms=NEVER_MS)
        first = asyncio.ensure_future(batcher.submit("first"))
        await entered(lane)                     # the lane is now busy
        later = [asyncio.ensure_future(batcher.submit(i))
                 for i in range(10)]
        await parked(batcher, 10)
        assert lane.calls == [["first"]]        # nobody left early
        lane.gate.set()
        results = await asyncio.wait_for(asyncio.gather(first, *later),
                                         WAIT)
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(scenario())
    assert results == ["ok:first"] + [f"ok:{i}" for i in range(10)]
    assert lane.calls == [["first"], list(range(10))]
    assert (stats.n_flush_idle, stats.n_flush_drain) == (1, 1)
    assert stats.n_flush_linger == 0
    assert stats.max_batch_size == 10


def test_max_batch_still_splits_and_counts_full():
    lane = Lane()

    async def scenario():
        batcher = MicroBatcher(lane, max_batch=4,
                               max_linger_ms=NEVER_MS)
        results = await asyncio.wait_for(
            batcher.submit_many(list(range(10))), WAIT)
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(scenario())
    assert results == [f"ok:{i}" for i in range(10)]
    assert sorted(lane.calls) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert stats.n_flush_full == 2
    assert stats.n_batches == 3 and stats.n_queries == 10
    assert stats.max_batch_size == 4


def test_linger_deadline_bounds_the_wait_behind_a_stuck_lane():
    lane = Lane(gated=True)

    async def scenario():
        batcher = MicroBatcher(lane, max_linger_ms=1.0)
        stuck = asyncio.ensure_future(batcher.submit("stuck"))
        await entered(lane)
        late = asyncio.ensure_future(batcher.submit("late"))
        await entered(lane)         # left on a second lane, by deadline
        assert lane.calls == [["stuck"], ["late"]]
        assert not stuck.done()
        lane.gate.set()
        results = await asyncio.wait_for(asyncio.gather(stuck, late),
                                         WAIT)
        await batcher.close()
        return results, batcher.stats

    results, stats = asyncio.run(scenario())
    assert results == ["ok:stuck", "ok:late"]
    assert (stats.n_flush_idle, stats.n_flush_linger) == (1, 1)


def test_close_drains_parked_and_in_flight_work():
    lane = Lane(gated=True)

    async def scenario():
        batcher = MicroBatcher(lane, max_linger_ms=NEVER_MS)
        flying = asyncio.ensure_future(batcher.submit("flying"))
        await entered(lane)
        waiting = asyncio.ensure_future(batcher.submit("waiting"))
        await parked(batcher, 1)
        closing = asyncio.ensure_future(batcher.close())
        await entered(lane)         # close() sent the parked one off
        assert not closing.done()
        lane.gate.set()
        await asyncio.wait_for(closing, WAIT)
        assert flying.done() and waiting.done()
        with pytest.raises(RuntimeError):
            await batcher.submit("too late")
        return flying.result(), waiting.result()

    assert asyncio.run(scenario()) == ("ok:flying", "ok:waiting")


def test_every_flushed_member_observes_its_wait():
    lane = Lane()
    registry = MetricsRegistry()

    async def scenario():
        batcher = MicroBatcher(lane, max_batch=2, metrics=registry)
        await asyncio.wait_for(batcher.submit_many("abc"), WAIT)
        await batcher.close()

    asyncio.run(scenario())
    waits = registry.histogram("janus_service_batch_wait_seconds")
    assert waits.count == 3 and waits.sum >= 0.0
