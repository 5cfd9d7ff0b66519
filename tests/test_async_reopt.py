"""Tests for the multi-threaded re-initialization pipeline (Figure 4)."""

import math
import threading
import time

import numpy as np
import pytest

from repro.core.janus import JanusAQP, JanusConfig
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table
from repro.datasets.synthetic import nyc_taxi


@pytest.fixture
def world():
    ds = nyc_taxi(n=30_000, seed=0)
    table = Table(ds.schema, capacity=ds.n + 16)
    table.insert_many(ds.data[:15_000])
    cfg = JanusConfig(k=32, sample_rate=0.02, catchup_rate=0.10,
                      check_every=10 ** 9, seed=0)
    janus = JanusAQP(table, ds.agg_attr, ds.predicate_attrs, config=cfg)
    janus.initialize()
    return janus, table, ds


def full_count(ds):
    return Query(AggFunc.COUNT, ds.agg_attr, ds.predicate_attrs,
                 Rectangle((-math.inf,), (math.inf,)))


class TestAsyncReoptimize:
    def test_completes_and_counts(self, world):
        janus, table, ds = world
        thread = janus.reoptimize_async()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert janus.n_repartitions == 1
        assert janus.dpt.h_total > 0

    def test_updates_during_reoptimization(self, world):
        """Inserts proceed while the optimizer runs; totals stay exact."""
        janus, table, ds = world
        thread = janus.reoptimize_async()
        for row in ds.data[15_000:17_000]:
            janus.insert(row)
        thread.join(timeout=30)
        assert not thread.is_alive()
        res = janus.query(full_count(ds))
        assert res.estimate == pytest.approx(17_000, rel=0.01)

    def test_queries_served_during_reoptimization(self, world):
        janus, table, ds = world
        thread = janus.reoptimize_async()
        answered = 0
        q = full_count(ds)
        while thread.is_alive() and answered < 50:
            res = janus.query(q)
            assert res.estimate > 0
            answered += 1
        thread.join(timeout=30)
        assert answered > 0

    def test_concurrent_writer_thread(self, world):
        """A writer thread races the pipeline; nothing is lost."""
        janus, table, ds = world
        stop = threading.Event()
        inserted = []

        def writer():
            for row in ds.data[15_000:18_000]:
                if stop.is_set():
                    break
                inserted.append(janus.insert(row))

        w = threading.Thread(target=writer)
        w.start()
        t = janus.reoptimize_async()
        t.join(timeout=60)
        stop.set()
        w.join(timeout=60)
        assert not t.is_alive() and not w.is_alive()
        res = janus.query(full_count(ds))
        assert res.estimate == pytest.approx(15_000 + len(inserted),
                                             rel=0.01)

    def test_accuracy_after_async_reopt(self, world):
        janus, table, ds = world
        q = Query(AggFunc.SUM, ds.agg_attr, ds.predicate_attrs,
                  Rectangle((100.0,), (500.0,)))
        thread = janus.reoptimize_async()
        thread.join(timeout=30)
        truth = table.ground_truth(q)
        est = janus.query(q).estimate
        assert abs(est - truth) / abs(truth) < 0.15


def churned_avg_engine(seed, dim=2, n=6000):
    """An AVG-focus engine whose pool saw many small writes."""
    rng = np.random.default_rng(seed)
    schema = ["a"] + [f"p{j}" for j in range(dim)]
    data = np.column_stack([rng.lognormal(1, 1, n),
                            *(rng.uniform(0, 100, n) for _ in range(dim))])
    table = Table(schema, capacity=n + 16)
    table.insert_many(data[:n // 2])
    cfg = JanusConfig(k=16, sample_rate=0.1, catchup_rate=0.05,
                      check_every=10 ** 9, seed=seed,
                      focus_agg=AggFunc.AVG)
    janus = JanusAQP(table, "a", schema[1:], config=cfg)
    janus.initialize()
    for at in range(n // 2, n, 60):
        janus.insert_many(data[at:at + 60])
        janus.delete_many(rng.choice(table.live_tids(), 25,
                                     replace=False).tolist())
    return janus


@pytest.mark.parametrize("seed", [0, 1])
def test_avg_twins_reoptimize_to_the_same_tree(seed):
    """The AVG oracle's cells come from the live point set, so the
    locked build (live pool index) and the async one (an index over the
    frozen snapshot) install the same tree."""
    locked, unlocked = churned_avg_engine(seed), churned_avg_engine(seed)
    locked.reoptimize()
    unlocked.reoptimize_async().join(timeout=60)

    def tree_signature(janus):
        dpt = janus.dpt
        return [(node.rect, len(dpt.children(node))) for node in dpt.nodes()]

    assert tree_signature(locked) == tree_signature(unlocked)
