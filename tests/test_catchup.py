"""Tests for the catch-up phase and re-initialization pipeline pieces."""

import contextlib
import math

import numpy as np
import pytest

from repro.broker.broker import Topic, encode_rows
from repro.core.catchup import CATCHUP_CHUNK, CatchupRunner
from repro.core.dpt import DynamicPartitionTree
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.table import Table, table_from_array
from repro.partitioning.spec import tree_from_intervals

SCHEMA = ("x", "a")


def make_dpt(n0):
    spec = tree_from_intervals([25.0, 50.0, 75.0],
                               Rectangle((0.0,), (100.0,)))
    dpt = DynamicPartitionTree(spec, SCHEMA, ("x",))
    dpt.set_population(n0)
    return dpt


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    data = np.column_stack([rng.uniform(0, 100, 5000),
                            rng.lognormal(0, 1, 5000)])
    return table_from_array(SCHEMA, data)


class TestRunFromTable:
    def test_goal_reached(self, table):
        dpt = make_dpt(len(table))
        report = CatchupRunner(dpt, seed=1).run_from_table(
            table, table.live_tids(), goal=500)
        assert report.n_processed == 500
        assert dpt.h_total == 500
        assert report.processing_seconds > 0

    def test_no_duplicates(self, table):
        """Without-replacement sampling: h never exceeds the snapshot."""
        dpt = make_dpt(len(table))
        report = CatchupRunner(dpt, seed=1).run_from_table(
            table, table.live_tids(), goal=10_000)
        assert report.n_processed == len(table)

    def test_skips_deleted_rows(self, table):
        dpt = make_dpt(len(table))
        snapshot = table.live_tids()
        for tid in snapshot[:1000]:
            table.delete(int(tid))
        report = CatchupRunner(dpt, seed=2).run_from_table(
            table, snapshot, goal=5000)
        assert report.n_processed == 4000

    def test_zero_goal(self, table):
        dpt = make_dpt(len(table))
        report = CatchupRunner(dpt).run_from_table(
            table, table.live_tids(), goal=0)
        assert report.n_processed == 0

    def test_accuracy_improves_with_goal(self, table):
        """More catch-up -> smaller error on a covered-node query."""
        q = Query(AggFunc.SUM, "a", ("x",),
                  Rectangle((-math.inf,), (50.0,)))
        truth = table.ground_truth(q)
        empty = lambda leaf: np.empty((0, 2))
        errors = []
        for goal in (50, 500, 4000):
            errs = []
            for seed in range(5):
                dpt = make_dpt(len(table))
                CatchupRunner(dpt, seed=seed).run_from_table(
                    table, table.live_tids(), goal=goal)
                res = dpt.query(q, empty)
                errs.append(abs(res.estimate - truth) / truth)
            errors.append(np.mean(errs))
        assert errors[2] < errors[0]

    def test_variance_shrinks_with_goal(self, table):
        q = Query(AggFunc.SUM, "a", ("x",),
                  Rectangle((-math.inf,), (50.0,)))
        empty = lambda leaf: np.empty((0, 2))
        variances = []
        for goal in (100, 2000):
            dpt = make_dpt(len(table))
            CatchupRunner(dpt, seed=3).run_from_table(
                table, table.live_tids(), goal=goal)
            variances.append(dpt.query(q, empty).variance_catchup)
        assert variances[1] < variances[0]

    def test_guard_wraps_every_chunk(self, table):
        """Each chunk's rows reach the tree inside its own guard."""
        dpt = make_dpt(len(table))
        added = []

        @contextlib.contextmanager
        def guard():
            before = dpt.h_total
            yield
            added.append(dpt.h_total - before)

        CatchupRunner(dpt, seed=1).run_from_table(
            table, table.live_tids(), goal=5000, guard=guard)
        assert added == [CATCHUP_CHUNK, CATCHUP_CHUNK,
                         5000 - 2 * CATCHUP_CHUNK]


class TestRunFromTopic:
    def test_loading_vs_processing_split(self, table):
        rows = table.live_rows()
        topic = Topic("data")
        topic.produce_many(encode_rows(rows))
        dpt = make_dpt(len(table))
        report = CatchupRunner(dpt, seed=4).run_from_topic(topic, goal=400)
        assert report.n_processed > 0
        assert report.loading_seconds > 0
        assert report.processing_seconds > 0
        assert dpt.h_total == report.n_processed

    def test_sequential_for_large_goal(self, table):
        rows = table.live_rows()
        topic = Topic("data")
        topic.produce_many(encode_rows(rows))
        dpt = make_dpt(len(table))
        # goal > 10% of the topic: sequential sampler path
        report = CatchupRunner(dpt, seed=5).run_from_topic(topic,
                                                           goal=2000)
        assert report.n_processed > 1000


class TestSeedFromReservoir:
    def test_seeding(self, table):
        dpt = make_dpt(len(table))
        dpt.add_catchup_rows(table.rows_for(table.live_tids()[:100]))
        assert dpt.h_total == 100
