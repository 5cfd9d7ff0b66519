"""Traced run: the per-layer ledger, measured from outside.

No file under ``src/`` is touched: the ledger builds the whole stack at
the workload's sizing (server subprocess, fleet, ``load_sharded`` twin,
a single ``JanusAQP``), replays a fixed sample of the workload's own
generated inputs through each front door, and records a span around
the outermost client call and around a direct call of every layer's
public entry point **on the same input**.  Children are out-of-line
replicas of the work the parent did internally (they run right after
it), so a layer's self time is its span's duration minus the summed
durations of its children.  Spans carry ``id, parent, op_id, name,
start_ns, end_ns``, live in memory and are written to
``out/trace_<workload>.jsonl`` when the run ends.  Counters come from
public surfaces only (``/stats``, ``routing_stats()``,
``fleet_stats()``, ``n_repartitions``, ``ReoptReport``).

The sample scales with ``--seconds`` (40 reads, 6 query batches and
8 write batches per second of budget) so a traced run costs about
what an untraced one does.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import inputs as gen
import loadgen as lg
import workloads as wl
from repro.broker.frames import decode_result_block, encode_result_block
from repro.core.dpt import DynamicPartitionTree
from repro.core.merge import merge_planned
from repro.core.persist import load_sharded
from repro.core.queries import SKETCH_AGGS
from repro.core.routing import plan_query_subsets
from repro.core.table import Table
from repro.index.range_index import RangeIndex
from repro.partitioning.onedim import OneDimPartitioner
from repro.sampling.reservoir import DynamicReservoir
from repro.service.batcher import MicroBatcher
from repro.service.cache import ResultCache
from repro.service.sqlfront import compile_sql

READS_PER_S = 40
BATCHES_PER_S = 6
WRITES_PER_S = 8
#: The front door whose write pass is paced on the workload's own
#: schedule (the other doors replay the same ops unpaced).
OWN_DOOR = {"serve_hot": "server", "serve_cold_mixed": "server",
            "fleet_mixed": "fleet", "engine_stream": "janus"}


class Spans:
    """In-memory span log."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, parent: int, start_ns: int, end_ns: int,
            op_id: Optional[int] = None) -> int:
        sid = next(self._ids)
        self.rows.append((sid, parent, sid if op_id is None else op_id,
                          name, start_ns, end_ns))
        return sid

    def call(self, name: str, parent: int, op_id: Optional[int],
             fn: Callable, *args):
        """Time ``fn(*args)`` as one span: ``(result, span id, s)``."""
        t0 = time.perf_counter_ns()
        out = fn(*args)
        t1 = time.perf_counter_ns()
        return out, self.add(name, parent, t0, t1, op_id), (t1 - t0) / 1e9

    def durations(self, name: str) -> List[float]:
        return [(r[5] - r[4]) / 1e9 for r in self.rows if r[3] == name]

    def self_times(self, name: str) -> List[float]:
        """Duration minus the part the children cover, for every
        span called ``name`` that has children."""
        covered: Dict[int, int] = {}
        for _sid, parent, _op, _name, start, end in self.rows:
            if parent:
                covered[parent] = covered.get(parent, 0) + end - start
        return [(r[5] - r[4] - covered[r[0]]) / 1e9
                for r in self.rows if r[3] == name and r[0] in covered]

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "op_id", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def p50_us(samples: Sequence[float], per: float = 1.0) -> float:
    return statistics.median(samples) / per * 1e6


class Ledger:
    """The stack under test plus the probes that fill ``run.metrics``."""

    def __init__(self, run: wl.Run) -> None:
        self.run = run
        self.inp = run.inp
        self.spans = Spans()
        self.m = run.metrics
        n = run.seconds
        self.n_reads = max(20, int(READS_PER_S * n))
        self.n_batches = max(4, int(BATCHES_PER_S * n))
        self.ops = self.inp.writes[:max(9, int(WRITES_PER_S * n))]

    # ------------------------------------------------------------------ #
    # stack
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Ledger":
        self.closers: List[Callable] = []
        try:
            self.build_stack()
        except BaseException:
            self.__exit__()
            raise
        return self

    def build_stack(self) -> None:
        run, inp = self.run, self.inp
        rows = wl.seed_rows(inp)
        # Sketches are on in every traced stack so the sketch layer is
        # measurable on every workload; the solo engines isolate it.
        sketched = replace(inp, sketch=True)
        self.m["persist.save_s"] = wl.build_snapshot(sketched, rows,
                                                     run.snapshot)
        size = sum(f.stat().st_size for f in run.snapshot.iterdir())
        self.m["persist.snapshot_bytes_per_row"] = size / inp.n_seed
        # The twin loads first, alone, so persist.load_s is not timed
        # against the server's and the workers' own snapshot loads.
        t0 = time.perf_counter()
        self.twin = load_sharded(run.snapshot)
        self.m["persist.load_s"] = time.perf_counter() - t0
        self.closers.append(self.twin.close)
        self.server = lg.ServerProc(run.src_dir, run.snapshot,
                                    run.workdir / "server.log",
                                    run.placement)
        self.closers.append(self.server.stop)
        self.client = self.server.client()
        self.closers.append(self.client.close)
        self.fleet = wl.start_workers(run)
        self.closers.append(self.fleet.close)
        plain = wl.janus_config(replace(inp, sketch=False))
        self.solo = wl.build_solo(inp, rows, plain)
        self.solo_off = wl.build_solo(
            inp, rows, replace(plain, auto_repartition=False))
        self.solo_sketch = wl.build_solo(inp, rows,
                                         wl.janus_config(sketched))
        self.template = (self.twin.agg_attr, self.twin.predicate_attrs,
                         self.twin.stat_attrs)
        self.live = [s for s in range(self.twin.n_shards)
                     if self.twin.shards[s].dpt is not None]

    def __exit__(self, *exc) -> None:
        for close in reversed(self.closers):
            close()

    def compile(self, stmt: str):
        agg_attr, pred_attrs, stat_attrs = self.template
        return compile_sql(stmt, agg_attr, pred_attrs,
                           stat_attrs=stat_attrs)

    # ------------------------------------------------------------------ #
    # reads through the front door, one statement at a time
    # ------------------------------------------------------------------ #
    def statements(self, n: int) -> List[str]:
        inp = self.inp
        if inp.hot_sql:
            return [inp.hot_sql[i] for i in inp.read_order[0][:n]]
        return [inp.reads.sql(i) for i in range(n)]

    def shard_replicas(self, queries, root: int, parent: int):
        """Plan, per-shard execute and merge as direct calls - what
        ``ShardedJanusAQP.query_many`` just did internally."""
        sp, twin = self.spans, self.twin
        subsets, _, plan_s = sp.call(
            "routing.plan_query_subsets", parent, root,
            plan_query_subsets, queries, twin.predicate_attrs,
            twin.summaries, self.live)
        answers = {}
        for s in self.live:
            qis = [qi for qi, c in enumerate(subsets) if s in c]
            if qis:
                got, _, _ = sp.call("shard.query_many", parent, root,
                                    twin.shards[s].query_many,
                                    [queries[qi] for qi in qis])
                answers.update({(s, qi): r for qi, r in zip(qis, got)})
        _, _, merge_s = sp.call(
            "merge.merge_planned", parent, root, merge_planned, queries,
            subsets, lambda s, qi: answers[(s, qi)],
            lambda s: len(twin.tables[s]) == 0)
        return plan_s, merge_s

    def front_door_reads(self) -> None:
        run, sp, m = self.run, self.spans, self.m
        n_side = max(10, self.n_reads // 4)
        stmts = self.statements(self.n_reads + 3 * n_side)
        main, rest = stmts[:self.n_reads], stmts[self.n_reads:]
        cache = ResultCache()
        epoch = self.twin.data_epoch
        loop = asyncio.new_event_loop()
        batcher = MicroBatcher(lambda queries: [None] * len(queries))
        stats0 = self.client.stats()

        def one(stmt: str) -> None:
            res, root, _ = sp.call("server.sql", 0, None,
                                   self.client.sql, stmt)
            q, _, _ = sp.call("sqlfront.compile_sql", root, root,
                              self.compile, stmt)
            hit, _, _ = sp.call("cache.lookup", root, root,
                                cache.lookup, q, epoch)
            run.tally.check((hit is not None) == res.details["cached"],
                            f"replica cache and server disagree on "
                            f"{stmt!r}")
            if hit is None:
                sp.call("batcher.submit", root, root,
                        loop.run_until_complete, batcher.submit(q))
                want, sid, _ = sp.call("sharded.query1", root, root,
                                       self.twin.query_many, [q])
                self.shard_replicas([q], root, sid)
                sp.call("cache.store", root, root, cache.store, q,
                        want[0], epoch, epoch)
                run.tally.check(not lg.results_differ(res, want[0]),
                                f"served answer differs from the twin "
                                f"on {stmt!r}")
            if q.agg not in SKETCH_AGGS:
                sp.call("janus.query1", 0, None, self.solo.query_many,
                        [q])

        try:
            for stmt in list(self.inp.hot_sql) + main:  # warm, sample
                one(stmt)
        finally:
            loop.run_until_complete(batcher.close())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()
        # Span-recording overhead of the load generator itself: the
        # same call bare and wrapped, on fresh statements.
        t0 = time.perf_counter()
        for stmt in rest[:n_side]:
            self.client.sql(stmt)
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for stmt in rest[n_side:2 * n_side]:
            sp.call("server.sql.spanned", 0, None, self.client.sql, stmt)
        spanned = time.perf_counter() - t0
        m["loadgen.trace_overhead_pct"] = (spanned / bare - 1.0) * 100.0
        unaccounted = [self.explain(stmt) for stmt in rest[2 * n_side:]]
        m["server.unaccounted_share"] = statistics.median(unaccounted)
        stats1 = self.client.stats()

        def delta(section: str, key: str) -> float:
            return stats1[section][key] - stats0[section][key]

        lookups = delta("cache", "hits") + delta("cache", "misses")
        m["cache.hit_ratio"] = delta("cache", "hits") / lookups
        m["cache.rejected_stores"] = delta("cache", "rejected_stores")
        flushes = max(delta("batcher", "n_batches"), 1)
        m["batcher.avg_batch_size"] = \
            delta("batcher", "n_queries") / flushes
        m["batcher.flush_linger_share"] = \
            delta("batcher", "n_flush_linger") / flushes
        m["server.sql_self_us"] = p50_us(sp.self_times("server.sql"))
        for metric, span in (
                ("sqlfront.compile_us", "sqlfront.compile_sql"),
                ("cache.lookup_us", "cache.lookup"),
                ("cache.store_us", "cache.store"),
                ("batcher.lone_submit_us", "batcher.submit"),
                ("sharded.query1_us", "sharded.query1"),
                ("janus.query1_us", "janus.query1")):
            samples = sp.durations(span)
            m[metric] = p50_us(samples)
            run.counts[metric] = len(samples)
        run.counts["server.sql_self_us"] = len(main) + len(self.inp.hot_sql)

    def explain(self, stmt: str) -> float:
        """``1 - sum(EXPLAIN stage times) / client wall`` for one
        ``POST /sql`` with ``"explain": true``."""
        conn = http.client.HTTPConnection(self.server.host,
                                          self.server.port,
                                          timeout=lg.OP_TIMEOUT_S)
        try:
            body = json.dumps({"sql": stmt, "explain": True})
            t0 = time.perf_counter_ns()
            conn.request("POST", "/sql", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            t1 = time.perf_counter_ns()
        finally:
            conn.close()
        self.run.tally.check(response.status == 200 and
                             "explain" in payload,
                             f"explain failed on {stmt!r}")
        self.spans.add("server.sql.explain", 0, t0, t1)
        staged = sum(payload["explain"]["stages_us"].values())
        return 1.0 - staged / ((t1 - t0) / 1e3)

    def health(self) -> None:
        for _ in range(300):
            ok, _, _ = self.spans.call("server.health", 0, None,
                                       self.client.health)
            self.run.tally.check(ok, "GET /health failed")
        self.m["server.health_rtt_us"] = \
            p50_us(self.spans.durations("server.health"))

    # ------------------------------------------------------------------ #
    # 64-query batches: sharded twin, fleet, single engine
    # ------------------------------------------------------------------ #
    def batches(self) -> List[list]:
        inp, b = self.inp, gen.BATCH
        if inp.hot_sql:
            hot = [self.compile(s) for s in inp.hot_sql]
            order = inp.read_order[1]
            return [[hot[i] for i in order[k * b:(k + 1) * b]]
                    for k in range(self.n_batches)]
        return [inp.reads.queries(k * b, (k + 1) * b)
                for k in range(self.n_batches)]

    def query_batches(self) -> None:
        run, sp, m = self.run, self.spans, self.m
        b = gen.BATCH
        routed0 = self.twin.routing_stats()["shards_touched_hist"]
        wire0 = self.wire_bytes()
        plan, merge, ratio = [], [], []
        for batch in self.batches():
            want, root, twin_s = sp.call("sharded.query64", 0, None,
                                         self.twin.query_many, batch)
            plan_s, merge_s = self.shard_replicas(batch, root, root)
            plan.append(plan_s)
            merge.append(merge_s)
            got, froot, fleet_s = sp.call("fleet.query64", 0, None,
                                          self.fleet.query_many, batch)
            ratio.append(fleet_s / twin_s)
            sp.call("frames.codec", froot, froot,
                    lambda rs: decode_result_block(
                        encode_result_block(rs).tobytes()), want)
            for i, (g, w) in enumerate(zip(got, want)):
                run.tally.check(not lg.results_differ(g, w),
                                f"fleet answer {i} differs from the twin")
            tree = [q for q in batch if q.agg not in SKETCH_AGGS]
            _, jroot, _ = sp.call("janus.query64", 0, None,
                                  self.solo.query_many, tree)
            sp.call("dpt.frontier_many", jroot, jroot,
                    self.solo.dpt.frontier_many, [q.rect for q in tree])
        n_q = self.n_batches * b
        m["fleet.bytes_per_query"] = (self.wire_bytes() - wire0) / n_q
        routed = [now - was for now, was in zip(
            self.twin.routing_stats()["shards_touched_hist"], routed0)]
        m["routing.mean_shards_touched"] = \
            sum(k * c for k, c in enumerate(routed)) / sum(routed)
        m["routing.plan_us_per_query"] = p50_us(plan, b)
        m["merge.us_per_query"] = p50_us(merge, b)
        m["fleet.wire_overhead_ratio"] = statistics.median(ratio)
        run.notes["fleet_wire_base_us_per_query"] = \
            p50_us(sp.durations("sharded.query64"), b)
        for metric, span in (
                ("sharded.query64_us_per_query", "sharded.query64"),
                ("fleet.query64_us_per_query", "fleet.query64"),
                ("frames.codec_us_per_result", "frames.codec"),
                ("janus.query64_us_per_query", "janus.query64"),
                ("dpt.frontier_us_per_query", "dpt.frontier_many")):
            m[metric] = p50_us(sp.durations(span), b)
            run.counts[metric] = self.n_batches

    def wire_bytes(self) -> int:
        return sum(w["bytes_sent"] + w["bytes_received"] for w in
                   self.fleet.fleet_stats()["workers"].values())

    # ------------------------------------------------------------------ #
    # write batches through every door
    # ------------------------------------------------------------------ #
    def write_pass(self, door: str, apply: Callable, period: float,
                   parents: Optional[List[int]], watch=None):
        """Apply the write sample through one door.  Returns the span
        ids, durations, generator lags and whether ``watch`` (an
        engine) re-partitioned during each op."""
        sp, run = self.spans, self.run
        sids, durs, lags, repartitioned = [], [], [], []
        t0 = time.perf_counter() - self.ops[0].due
        for k, op in enumerate(self.ops):
            if period > 0:
                wait = t0 + op.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                lags.append(time.perf_counter() - (t0 + op.due))
            before = watch.n_repartitions if watch is not None else 0
            _, start, end = lg.timed_call(run.tally, apply, op)
            repartitioned.append(
                watch is not None and watch.n_repartitions != before)
            parent = parents[k] if parents else 0
            name = f"{door}.{'insert' if op.kind == 'i' else 'delete'}"
            sids.append(sp.add(name, parent, int(start * 1e9),
                               int(end * 1e9), parent or None))
            durs.append(end - start)
        return sids, durs, lags, repartitioned

    def writes(self) -> None:
        run, m, inp = self.run, self.m, self.inp
        data, ops = inp.data, self.ops
        doors = {
            "server": wl.write_via(self.client.insert_many,
                                   self.client.delete_many, data),
            "sharded": wl.write_via(self.twin.insert_many,
                                    self.twin.delete_many, data),
            "fleet": wl.write_via(self.fleet.insert_many,
                                  self.fleet.delete_many, data),
            "janus": wl.write_via(self.solo.insert_many,
                                  self.solo.delete_many, data),
        }
        own = OWN_DOOR[inp.workload]
        reparts0 = self.solo.n_repartitions
        durs: Dict[str, List[float]] = {}
        roots, durs[own], lags, flags = self.write_pass(
            own, doors[own], inp.write_period, None, self.solo)
        for door in doors:
            if door != own:
                _, durs[door], _, seen = self.write_pass(
                    door, doors[door], 0.0, roots, self.solo)
                if door == "janus":
                    flags = seen
        for name, engine in (("janus.no_maintenance", self.solo_off),
                             ("janus.sketched", self.solo_sketch)):
            _, durs[name], _, _ = self.write_pass(
                name, wl.write_via(engine.insert_many,
                                   engine.delete_many, data),
                0.0, roots)
        m["loadgen.writer_lag_max_ms"] = max(lags, default=0.0) * 1e3
        m["janus.n_repartitions"] = self.solo.n_repartitions - reparts0
        m["janus.maintenance_share"] = \
            1.0 - sum(durs["janus.no_maintenance"]) / sum(durs["janus"])
        m["sketch.ingest_overhead_ratio"] = \
            sum(durs["janus.sketched"]) / sum(durs["janus"])

        def per_row(door: str, kind: str, skip=()) -> float:
            return statistics.median(
                d / op.n_rows for op, d, s in
                zip(ops, durs[door], skip or [False] * len(ops))
                if op.kind == kind and not s) * 1e6

        m["server.insert_overhead_us_per_row"] = statistics.median(
            (a - b) / op.n_rows for op, a, b in
            zip(ops, durs["server"], durs["sharded"])
            if op.kind == "i") * 1e6
        m["sharded.insert_us_per_row"] = per_row("sharded", "i")
        m["sharded.delete_us_per_row"] = per_row("sharded", "d")
        m["fleet.insert_us_per_row"] = per_row("fleet", "i")
        m["janus.insert_us_per_row"] = per_row("janus", "i", flags)
        m["janus.delete_us_per_row"] = per_row("janus", "d", flags)
        # The three sharded doors applied the same ops: they must agree.
        probes = inp.identity.queries()
        want = self.twin.query_many(probes)
        served = wl.sql_answerer(run, self.client)(probes)
        wl.check_identity(run, served, want, "ledger: server")
        wl.check_identity(run, self.fleet.query_many(probes), want,
                          "ledger: fleet")

    # ------------------------------------------------------------------ #
    # single-engine internals, on the engine the writes just drove
    # ------------------------------------------------------------------ #
    def engine_internals(self) -> None:
        sp, m, inp, solo = self.spans, self.m, self.inp, self.solo
        ds = inp.ds
        if len(ds.predicate_attrs) != 1:
            raise ValueError("the ledger partitions a 1-D template")
        table = Table(ds.schema)
        table.insert_many(inp.data[:inp.n_seed])
        target = max(128, int(2 * gen.SAMPLE_RATE * len(table)))
        reservoir = DynamicReservoir(table, target, seed=inp.seed)
        reservoir.initialize()
        coords, values, tids = solo.sample_index.all_items()
        order = np.argsort(tids, kind="stable")
        domain = solo.table.domain(ds.predicate_attrs[0])
        for _ in range(3):
            spec, _, _ = sp.call(
                "partitioning.partition", 0, None,
                OneDimPartitioner(solo.config.focus_agg,
                                  delta=solo.config.delta).partition,
                coords[order, 0], values[order], gen.K_LEAVES,
                len(solo.table), domain)
            sp.call("range_index.add_many", 0, None,
                    RangeIndex(1, seed=inp.seed).add_many, tids, coords,
                    values)
        dpt = DynamicPartitionTree(spec.tree, ds.schema,
                                   ds.predicate_attrs,
                                   stat_attrs=solo.stat_attrs,
                                   minmax_attrs=(ds.agg_attr,))
        dpt.set_population(len(solo.table))
        per_row = {"table.insert_many": [], "reservoir.update": [],
                   "dpt.insert_rows": []}
        for op in self.ops:
            if op.kind == "i":
                rows = inp.data[op.a:op.b]
                new, _, s = sp.call("table.insert_many", 0, None,
                                    table.insert_many, rows)
                per_row["table.insert_many"].append(s / op.n_rows)
                _, _, s = sp.call("reservoir.update", 0, None,
                                  reservoir.on_insert_many, new)
                per_row["reservoir.update"].append(s / op.n_rows)
                _, _, s = sp.call("dpt.insert_rows", 0, None,
                                  dpt.insert_rows, rows)
                per_row["dpt.insert_rows"].append(s / op.n_rows)
            else:
                gone = op.tids.tolist()
                table.delete_many(gone)
                _, _, s = sp.call("reservoir.update", 0, None,
                                  reservoir.on_delete_many, gone)
                per_row["reservoir.update"].append(s / op.n_rows)
        m["table.insert_us_per_row"] = p50_us(per_row["table.insert_many"])
        m["reservoir.update_us_per_row"] = \
            p50_us(per_row["reservoir.update"])
        m["dpt.insert_rows_us_per_row"] = p50_us(per_row["dpt.insert_rows"])
        m["partitioning.build_ms"] = \
            p50_us(sp.durations("partitioning.partition")) / 1e3
        m["range_index.build_ms"] = \
            p50_us(sp.durations("range_index.add_many")) / 1e3
        reports = []
        for _ in range(3):
            report, _, _ = sp.call("janus.reoptimize", 0, None,
                                   solo.reoptimize)
            reports.append(report)
        m["janus.reopt_ms"] = \
            p50_us(sp.durations("janus.reoptimize")) / 1e3
        for metric, part in (
                ("janus.reopt_optimize_ms", lambda r: r.optimize_seconds),
                ("janus.reopt_blocking_ms", lambda r: r.blocking_seconds),
                ("janus.reopt_catchup_ms",
                 lambda r: r.catchup.total_seconds)):
            m[metric] = statistics.median(map(part, reports)) * 1e3

    def sketches_and_fleet(self) -> None:
        sp, m = self.spans, self.m
        queries = [self.compile(s) for s in gen.SKETCH_SQL]
        for _ in range(30):
            sp.call("sketch.query", 0, None, self.twin.query_many,
                    queries)
        m["sketch.query_us"] = p50_us(sp.durations("sketch.query"),
                                      len(queries))
        workers = self.fleet.fleet_stats()["workers"].values()
        m["fleet.worker_rtt_us"] = statistics.mean(
            w["p50_seconds"] for w in workers) * 1e6
        m["fleet.restarts"] = sum(w["restarts"] for w in workers)
        self.run.tally.check(m["fleet.restarts"] == 0,
                             "fleet worker restarted")


def run_traced(run: wl.Run, trace_path: Path) -> None:
    with Ledger(run) as ledger:
        try:
            wl.settle()
            ledger.health()
            ledger.front_door_reads()
            ledger.query_batches()
            ledger.writes()
            ledger.engine_internals()
            ledger.sketches_and_fleet()
        finally:
            ledger.spans.write(trace_path)
    run.notes["n_spans"] = len(ledger.spans.rows)
