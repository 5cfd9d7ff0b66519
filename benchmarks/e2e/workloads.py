"""The four workloads' untraced runs: set-up, passes, correctness.

Each ``run_<workload>`` drives the program on its **defaults** - the
benchmark passes sizing only (``k``, ``sample_rate``, ``n_shards``,
``sketch_attrs``, row counts) - and returns the
end-to-end metrics, every one of them on every workload.

A run is ``PASSES`` passes: each sets the program up afresh (server
subprocess, fleet, engine), warms it and plays the same window of
``--seconds / PASSES`` seconds on the same inputs.  Every latency is
first brought to nominal cpu speed (``loadgen.Speed``); an operation's
latency is the median of its executions in the passes, and the timing
metrics are statistics over operations (README, "Speed" and "Passes"):

* reads are timed per call (``read_p50_ms`` / ``read_p99_ms``);
  ``read_qps`` is what the closed-loop readers complete per second at
  those latencies;
* writes are timed from their due time (open loop) or from the
  previous completion (closed loop: ``serve_hot``'s quiet-server burst
  and ``engine_stream``), insert and delete batches pooled
  (``write_p50_ms``; ``write_stall_ms`` is the mean of the slowest 1%);
* accuracy (``median_rel_err`` / ``p95_rel_err`` / ``ci_coverage_95``)
  is what a caller of that workload's front door sees, against ground
  truth the benchmark computes from its own row bookkeeping;
* the correctness checks, accuracy, ``synopsis_bytes_per_row`` and
  ``peak_rss_mb`` come from the last pass; ``setup_s`` is the median
  of all the passes' set-ups.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs as gen
import loadgen as lg
from repro.core.janus import JanusAQP, JanusConfig
from repro.core.persist import load_sharded, save_sharded
from repro.core.queries import AggFunc, Query, Rectangle
from repro.core.sharded import ShardedJanusAQP
from repro.core.table import Table
from repro.service.fleet import FleetCoordinator
from repro.service.sqlfront import compile_sql

PASSES = 3                  # fresh program + same window, per run
ENGINE_SETUPS = 5           # engine_stream sets up in 70 ms: 5 per pass
SQL_CHUNK = 64              # statements per /sql batch in the checks
HOT_READ_SHARE = 0.5        # serve_hot: read phase, then write burst


@dataclass
class Run:
    """One run's context and everything it reports."""

    inp: gen.Inputs
    seconds: float              # measured time of the whole run
    workdir: Path               # scratch inside the benchmark's out/
    src_dir: Path
    placement: lg.Placement
    passes: int = PASSES
    setups: List[tuple] = field(default_factory=list)   # (start, end)
    tally: lg.Tally = field(default_factory=lg.Tally)
    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)   # samples
    notes: Dict[str, float] = field(default_factory=dict)  # diagnostics

    @property
    def snapshot(self) -> Path:
        return self.workdir / "snapshot"

    @property
    def window(self) -> float:
        """Seconds one pass measures."""
        return self.seconds / self.passes


def janus_config(inp: gen.Inputs) -> JanusConfig:
    return JanusConfig(k=gen.K_LEAVES, sample_rate=gen.SAMPLE_RATE,
                       sketch_attrs=gen.SKETCH_ATTRS if inp.sketch else ())


def build_snapshot(inp: gen.Inputs, rows: np.ndarray, snapshot: Path
                   ) -> float:
    """Build the attr-placed sharded engine on the seed rows and
    ``save_sharded`` it; returns the seconds the save took."""
    ds = inp.ds
    engine = ShardedJanusAQP(ds.schema, ds.agg_attr, ds.predicate_attrs,
                             n_shards=max(inp.n_shards, 1),
                             sharding="attr", config=janus_config(inp))
    try:
        engine.insert_many(rows)
        engine.initialize()
        shutil.rmtree(snapshot, ignore_errors=True)
        t0 = time.perf_counter()
        save_sharded(engine, snapshot)
        return time.perf_counter() - t0
    finally:
        engine.close()


def build_solo(inp: gen.Inputs, rows: np.ndarray,
               config: Optional[JanusConfig] = None) -> JanusAQP:
    ds = inp.ds
    table = Table(ds.schema)
    table.insert_many(rows)
    engine = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                      config=config or janus_config(inp))
    engine.initialize()
    return engine


def seed_rows(inp: gen.Inputs) -> np.ndarray:
    """Data generation as the set-up pays it (same bytes as the
    pre-materialised inputs; the generator is deterministic)."""
    return gen.load_table(inp.data.shape[0]).data[:inp.n_seed]


def timed_setup(run: Run, setup: Callable[[], object]):
    """One set-up, timed (``report_setup`` takes the median of them
    all, so work moved into set-up shows and one slow spawn does
    not)."""
    t0 = time.perf_counter()
    handle = setup()
    run.setups.append((t0, time.perf_counter()))
    return handle


def report_setup(run: Run, speed: Optional[lg.Speed]) -> None:
    """``setup_s`` at nominal cpu speed.  Set-up runs on the load
    generator's cpu - builds, loads, and the server's start-up until
    it answers - and scales with its speed."""
    spans = np.asarray(run.setups)
    took = spans[:, 1] - spans[:, 0]
    if speed is not None:
        took = took / speed.between(spans[:, 0], spans[:, 1])
    run.metrics["setup_s"] = float(np.median(took))
    run.counts["setup_s"] = int(took.size)


def probe_speeds(run: Run) -> List[Optional[lg.Speed]]:
    """End the probes; the speed of (the load generator's cpu, the
    program's cpu) over the run, None where a probe logged nothing."""
    return [lg.Speed(log, lg.NOMINAL_PROBE_S) if log.shape[0] >= 20
            else None for log in run.placement.stop()]


@contextmanager
def phase(run: Run, name: str):
    """Record where a run's wall clock goes (``notes['t_<name>_s']``)."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        key = f"t_{name}_s"
        run.notes[key] = run.notes.get(key, 0.0) + \
            time.perf_counter() - t0


def settle() -> None:
    """Before a pass's clock starts: collect garbage once (the
    previous pass's program included) and move what is left, the
    materialised inputs above all, out of the collector's way."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------- #
# applying writes
# ---------------------------------------------------------------------- #
def write_via(insert_many: Callable, delete_many: Callable,
              data: np.ndarray) -> Callable:
    """``apply(op)`` for one front door; an insert whose returned tids
    are not the expected row indices raises (counted as failed)."""
    def apply(op: gen.WriteOp) -> None:
        if op.kind == "i":
            tids = insert_many(data[op.a:op.b])
            if list(tids) != list(range(op.a, op.b)):
                raise RuntimeError(f"insert returned tids "
                                   f"{list(tids)[:3]}.. for rows {op.a}..")
        else:
            delete_many(op.tids)
    apply.__name__ = "write"
    return apply


def replay_into(engine, data: np.ndarray, done) -> None:
    """Feed the twin exactly the writes the program applied."""
    apply = write_via(engine.insert_many, engine.delete_many, data)
    for op in done:
        apply(op)


# ---------------------------------------------------------------------- #
# correctness and accuracy
# ---------------------------------------------------------------------- #
def sql_many(client, statements: List[str], tally: lg.Tally) -> list:
    out = []
    for i in range(0, len(statements), SQL_CHUNK):
        chunk = statements[i:i + SQL_CHUNK]
        got, _, _ = lg.timed_call(tally, client.sql_many, chunk)
        out.extend(got if got is not None else [None] * len(chunk))
    return out


def check_identity(run: Run, served: list, expected: list, what: str
                   ) -> None:
    """Bit-identity of quiescent answers against the twin."""
    for i, (got, want) in enumerate(zip(served, expected)):
        run.tally.check(got is not None and
                        not lg.results_differ(got, want),
                        f"{what}: answer {i} differs from the twin")


def check_exact(run: Run, results: list, truths: np.ndarray, what: str
                ) -> None:
    """Exact-flagged answers must equal the truth.  (MIN/MAX
    conservatism is not gated: with deletes in the stream the seed
    commit itself returns an occasional MAX above the live maximum.)"""
    for res, truth in zip(results, truths):
        if res is None or math.isnan(truth) or not res.exact or \
                math.isnan(res.estimate):
            continue
        ok = math.isclose(res.estimate, truth, rel_tol=1e-9, abs_tol=1e-9)
        run.tally.check(ok, f"{what}: exact answer {res.estimate!r} != "
                            f"truth {truth!r}")


def unbounded_count_check(run: Run, answer: Callable, n_live: int,
                          what: str) -> None:
    """``COUNT(*)`` over the whole table must equal the live row
    count: node counts move by exact deltas, so a lost, duplicated or
    misplaced write shows here.  (Unbounded SUM is *not* exact in the
    program - seed statistics come from a 10% catch-up sample - so it
    is only checked when the answer carries the exact flag.)"""
    ds = run.inp.ds
    query = Query(AggFunc.COUNT, ds.agg_attr, tuple(ds.predicate_attrs),
                  Rectangle((-math.inf,), (math.inf,)))
    res = answer([query])[0]
    run.tally.check(res is not None and res.estimate == float(n_live),
                    f"{what}: unbounded COUNT "
                    f"{getattr(res, 'estimate', None)!r} != {n_live}")


@dataclass
class Accuracy:
    """Relative errors and CI hits pooled over evaluations."""

    errors: List[float] = field(default_factory=list)
    covered: int = 0
    n_ci: int = 0

    def add(self, results: list, truths: np.ndarray) -> None:
        for res, truth in zip(results, truths):
            if res is None or math.isnan(truth) or truth == 0 or \
                    math.isnan(res.estimate):
                continue
            self.errors.append(abs(res.estimate - truth) / abs(truth))
            lo, hi = res.ci(1.96)
            self.n_ci += 1
            self.covered += int(lo <= truth <= hi)

    def report(self, run: Run) -> None:
        run.metrics["median_rel_err"] = lg.pct(self.errors, 50)
        run.metrics["p95_rel_err"] = lg.pct(self.errors, 95)
        run.metrics["ci_coverage_95"] = self.covered / self.n_ci
        for name in ("median_rel_err", "p95_rel_err", "ci_coverage_95"):
            run.counts[name] = len(self.errors)


@dataclass
class Pass:
    """What one pass timed: per reader one ``(start, end)`` row per
    call, and the write batches' ``(due, start, end)`` rows."""

    reads: List[np.ndarray]
    writes: np.ndarray


#: Per workload and kind of operation: how its latency scales with the
#: slowdown of (the load generator's cpu, the program's cpu), as the
#: exponents of ``latency ~ slowdown0**a0 * slowdown1**a1``; see README,
#: "Speed".  Fitted when the benchmark was defined (ten runs a workload
#: across slowdowns of 1.07-1.86, refitted with ten more): about 1 on the
#: cpu that does the work, less where the caller mostly waits (a lone
#: ``/sql`` read spends 2 of its 3.4 ms in the batcher's linger timer),
#: above 1 where the code suffers more than the speed sample does.
SPEED_EXPONENTS = {
    "serve_hot": {"read": (0.3, 1.0), "write": (0.4, 1.0)},
    "serve_cold_mixed": {"read": (0.1, 0.5), "write": (0.0, 1.1)},
    "fleet_mixed": {"read": (0.4, 1.2), "write": (0.2, 1.0)},
    "engine_stream": {"read": (1.0,), "write": (1.0,)},
}
WARMUP_WRITES = 5           # a pass's first writes are not measured
TAIL_SHARE = 0.01           # write_stall_ms: the slowest 1% of batches


def report_timings(run: Run, passes: List[Pass], queries_per_call: int,
                   speeds: List[Optional[lg.Speed]]) -> None:
    """The read and write metrics.  Every latency is first brought to
    nominal cpu speed; an operation's latency is then the median of
    its executions in the passes, and the metrics are statistics over
    operations (README, "Speed" and "Passes")."""
    exponents = SPEED_EXPONENTS[run.inp.workload]

    def slowdown(when: np.ndarray, kind: str) -> np.ndarray:
        out = np.ones_like(when)
        for speed, power in zip(speeds, exponents[kind]):
            if speed is not None:
                out *= speed.at(when) ** power
        return out

    def per_op(series: List[np.ndarray]) -> np.ndarray:
        n = min(len(x) for x in series)
        return np.median([x[:n] for x in series], axis=0)

    readers = [per_op([(p.reads[r][:, 1] - p.reads[r][:, 0]) /
                       slowdown(p.reads[r][:, 0], "read") for p in passes])
               for r in range(len(passes[0].reads))]
    lat = np.concatenate(readers)
    run.metrics["read_p50_ms"] = lg.pct(lat, 50) * 1e3
    run.metrics["read_p99_ms"] = lg.pct(lat, 99) * 1e3
    # Closed loop: a reader completes one call per latency.
    run.metrics["read_qps"] = sum(queries_per_call / x.mean()
                                  for x in readers)
    for name in ("read_p50_ms", "read_p99_ms", "read_qps"):
        run.counts[name] = int(lat.size)
    from_due, service = (
        per_op([(p.writes[:, 2] - p.writes[:, since]) /
                slowdown(p.writes[:, 1], "write")
                for p in passes])[WARMUP_WRITES:] for since in (0, 1))
    ops = run.inp.writes[WARMUP_WRITES:WARMUP_WRITES + from_due.size]
    inserts = np.array([op.kind == "i" for op in ops])
    n_tail = max(1, int(round(from_due.size * TAIL_SHARE)))
    run.metrics["write_p50_ms"] = lg.pct(from_due, 50) * 1e3
    run.metrics["write_stall_ms"] = \
        float(np.sort(from_due)[-n_tail:].mean()) * 1e3
    run.metrics["ingest_rows_per_s"] = \
        sum(op.n_rows for op in ops if op.kind == "i") / \
        service[inserts].sum()
    run.counts["write_p50_ms"] = int(from_due.size)
    run.counts["write_stall_ms"] = n_tail
    run.counts["ingest_rows_per_s"] = int(inserts.sum())
    run.notes["writer_lag_max_ms"] = max(
        float((p.writes[:, 1] - p.writes[:, 0]).max()) for p in passes) * 1e3
    run.notes["passes"] = len(passes)
    for i, speed in enumerate(speeds):
        if speed is not None:
            run.notes[f"slowdown_cpu{i}_median"] = \
                float(np.median(speed.factor))


def quiescent_checks(run: Run, answer: Callable, twin, done, when: str,
                     measure: bool = False,
                     extra_sql: Tuple[str, ...] = ()) -> None:
    """Identity against the twin and exactness against the truth, all
    through ``answer(queries) -> results``, the workload's own front
    door; ``measure`` adds the accuracy and storage metrics."""
    inp = run.inp
    probes = inp.identity.queries() + [
        compile_sql(s, twin.agg_attr, twin.predicate_attrs,
                    stat_attrs=twin.stat_attrs) for s in extra_sql]
    served = answer(probes)
    check_identity(run, served, twin.query_many(probes), when)
    live = inp.data[gen.live_mask(inp.data.shape[0], inp.n_seed, done)]
    check_exact(run, served[:len(inp.identity)],
                gen.ground_truth(live, inp.ds, inp.identity), when)
    unbounded_count_check(run, answer, live.shape[0], when)
    if measure:
        accuracy = Accuracy()
        accuracy.add(answer(inp.evals.queries()),
                     gen.ground_truth(live, inp.ds, inp.evals))
        accuracy.report(run)
        run.metrics["synopsis_bytes_per_row"] = \
            twin.storage_cost_bytes() / live.shape[0]
        run.counts["synopsis_bytes_per_row"] = 1


# ---------------------------------------------------------------------- #
# serve_hot / serve_cold_mixed
# ---------------------------------------------------------------------- #
def start_server(run: Run) -> lg.ServerProc:
    build_snapshot(run.inp, seed_rows(run.inp), run.snapshot)
    return lg.ServerProc(run.src_dir, run.snapshot,
                         run.workdir / "server.log", run.placement)


def render_sql(q: Query) -> str:
    """The statement that compiles back to exactly ``q``."""
    if q.agg is AggFunc.COUNT_DISTINCT:
        call = f"COUNT(DISTINCT {q.attr})"
    elif q.param is not None:
        call = f"{q.agg.value}({q.attr}, {q.param!r})"
    else:
        call = f"{q.agg.value}({'*' if q.agg is AggFunc.COUNT else q.attr})"
    lo, hi = q.rect.lo[0], q.rect.hi[0]
    where = "" if math.isinf(lo) and math.isinf(hi) else \
        f" WHERE {q.predicate_attrs[0]} BETWEEN {lo!r} AND {hi!r}"
    return f"SELECT {call} FROM trips{where}"


def sql_answerer(run: Run, client) -> Callable:
    """Answer ``Query`` probes through ``POST /sql``."""
    return lambda queries: sql_many(
        client, [render_sql(q) for q in queries], run.tally)


def engine_answerer(run: Run, engine) -> Callable:
    """Answer ``Query`` probes through ``engine.query_many``."""
    def answer(queries):
        got, _, _ = lg.timed_call(run.tally, engine.query_many, queries)
        return got if got is not None else [None] * len(queries)
    return answer


def read_batches(inp: gen.Inputs) -> List[List[Query]]:
    """The ``query_many(64)`` read pool of the in-process workloads."""
    return [inp.reads.queries(i * gen.BATCH, (i + 1) * gen.BATCH)
            for i in inp.read_order[0]]


def run_serve(run: Run) -> None:
    inp = run.inp
    extra = tuple(inp.hot_sql)
    passes: List[Pass] = []
    for k in range(run.passes):
        last = k + 1 == run.passes
        server = timed_setup(run, lambda: start_server(run))
        twin, clients = None, []
        try:
            clients = [server.client(), server.client()]
            answer = sql_answerer(run, clients[0])
            if last:
                with phase(run, "twin"):
                    twin = load_sharded(run.snapshot)
                with phase(run, "checks"):
                    quiescent_checks(run, answer, twin, [], "before",
                                     extra_sql=extra)
            with phase(run, "window"):
                passes.append(serve_window(run, clients))
            if last:
                with phase(run, "twin"):
                    replay_into(twin, inp.data, inp.writes)
                with phase(run, "checks"):
                    quiescent_checks(run, answer, twin, inp.writes,
                                     "after", measure=True,
                                     extra_sql=extra)
                run.metrics["peak_rss_mb"] = lg.peak_rss_mb(server.pid)
                run.counts["peak_rss_mb"] = 1
                stats = clients[0].stats()
                run.notes["cache_hit_ratio"] = stats["cache"]["hit_ratio"]
                run.notes["batcher_avg_batch"] = \
                    stats["batcher"]["avg_batch_size"]
        finally:
            for client in clients:
                client.close()
            if twin is not None:
                twin.close()
            server.stop()
    speeds = probe_speeds(run)
    report_setup(run, speeds[0] if speeds else None)
    report_timings(run, passes, 1, speeds)


def serve_window(run: Run, clients) -> Pass:
    """One pass's measured window."""
    inp, hot = run.inp, run.inp.workload == "serve_hot"
    apply = write_via(clients[1].insert_many, clients[1].delete_many,
                      inp.data)
    if hot:
        sql = inp.hot_sql
        for client in clients:              # fill the cache
            for stmt in sql:
                client.sql(stmt)
        read = [(lambda i, c=c: c.sql(sql[i])) for c in clients]
        orders = inp.read_order
    else:
        sql = inp.reads.sqls()
        n_warm = min(200, len(sql) // 10)   # drawn from the pool's tail
        for stmt in sql[-n_warm:]:
            clients[0].sql(stmt)
        read = [lambda i: clients[0].sql(sql[i])]
        orders = [inp.read_order[0][:len(sql) - n_warm]]
    settle()
    tallies = [lg.Tally() for _ in range(3)]
    t0 = time.perf_counter() + 0.02
    read_s = run.window * (HOT_READ_SHARE if hot else 1.0)
    readers = [lg.in_thread(lg.closed_loop, fn, order, t0 + read_s, tally)
               for fn, order, tally in zip(read, orders, tallies)]
    if hot:     # quiet-server closed-loop write burst after the reads
        lat = [lg.finish(t) for t in readers]
        writes = lg.run_writes(inp.writes, apply, 0.0, 0.0, tallies[2])
    else:       # paced writer beside the reader
        writer = lg.in_thread(lg.run_writes, inp.writes, apply, t0,
                              inp.write_period, tallies[2])
        lat = [lg.finish(t) for t in readers]
        writes = lg.finish(writer)
    for tally in tallies:
        run.tally.absorb(tally)
    return Pass(lat, writes.array())


# ---------------------------------------------------------------------- #
# fleet_mixed
# ---------------------------------------------------------------------- #
def start_workers(run: Run) -> FleetCoordinator:
    """A fleet on the snapshot, its workers moved to the program's cpu
    (they inherit the load generator's pinning when spawned)."""
    fleet = FleetCoordinator(run.snapshot)
    for pid in run.placement.program_children():
        run.placement.adopt(pid)
    return fleet


def start_fleet(run: Run):
    build_snapshot(run.inp, seed_rows(run.inp), run.snapshot)
    fleet = start_workers(run)
    try:
        return fleet, load_sharded(run.snapshot)
    except BaseException:
        fleet.close()
        raise


def stop_fleet(handle) -> None:
    fleet, twin = handle
    twin.close()
    fleet.close()


def fleet_window(run: Run, fleet) -> Pass:
    """One pass's measured window."""
    inp = run.inp
    batches = read_batches(inp)
    for batch in batches[:20]:
        fleet.query_many(batch)
    settle()
    tallies = [lg.Tally(), lg.Tally()]
    t0 = time.perf_counter() + 0.02
    apply = write_via(fleet.insert_many, fleet.delete_many, inp.data)
    reader = lg.in_thread(lg.closed_loop, fleet.query_many,
                          itertools.cycle(batches), t0 + run.window,
                          tallies[0])
    writer = lg.in_thread(lg.run_writes, inp.writes, apply, t0,
                          inp.write_period, tallies[1])
    lat = lg.finish(reader)
    writes = lg.finish(writer)
    for tally in tallies:
        run.tally.absorb(tally)
    return Pass([lat], writes.array())


def run_fleet(run: Run) -> None:
    inp = run.inp
    passes: List[Pass] = []
    for k in range(run.passes):
        last = k + 1 == run.passes
        fleet, twin = timed_setup(run, lambda: start_fleet(run))
        try:
            answer = engine_answerer(run, fleet)
            with phase(run, "checks"):
                quiescent_checks(run, answer, twin, [], "before")
            with phase(run, "window"):
                passes.append(fleet_window(run, fleet))
            if last:
                with phase(run, "twin"):
                    replay_into(twin, inp.data, inp.writes)
                with phase(run, "checks"):
                    quiescent_checks(run, answer, twin, inp.writes,
                                     "after", measure=True)
            restarts = sum(w["restarts"] for w in
                           fleet.fleet_stats()["workers"].values())
            run.tally.check(restarts == 0, f"{restarts} worker restart(s)")
            if last:
                pids = [os.getpid()] + run.placement.program_children()
                run.metrics["peak_rss_mb"] = sum(map(lg.peak_rss_mb, pids))
                run.counts["peak_rss_mb"] = len(pids)
        finally:
            stop_fleet((fleet, twin))
    speeds = probe_speeds(run)
    report_setup(run, speeds[0] if speeds else None)
    report_timings(run, passes, gen.BATCH, speeds)


# ---------------------------------------------------------------------- #
# engine_stream
# ---------------------------------------------------------------------- #
def engine_pass(run: Run, engine: JanusAQP, evaluate: bool,
                speed: List[tuple]) -> Pass:
    """Paper Section 6.2 protocol on one default-trigger JanusAQP:
    single thread, one write batch then one ``query_many(64)``; with
    ``evaluate``, an untimed accuracy checkpoint every tenth of it.
    The thread never idles, so it takes its cpu's speed samples
    itself, one after every batch pair."""
    inp = run.inp
    batches = read_batches(inp)
    apply = write_via(engine.insert_many, engine.delete_many, inp.data)
    answer = engine_answerer(run, engine)
    accuracy = Accuracy()
    every = max(1, len(inp.writes) // gen.N_CHECKPOINTS)
    per_eval = len(inp.evals) // gen.N_CHECKPOINTS
    engine.query_many(batches[-1])
    settle()
    writes = lg.PacedWrites()
    reads: List[tuple] = []
    for i, op in enumerate(inp.writes):
        _, start, end = lg.timed_call(run.tally, apply, op)
        writes.record(start, start, end)    # closed loop: due = start
        _, r0, r1 = lg.timed_call(run.tally, engine.query_many,
                                  batches[i % len(batches)])
        reads.append((r0, r1))
        speed.append(lg.speed_sample())
        if evaluate and (i + 1) % every == 0:
            done = inp.writes[:i + 1]
            live = inp.data[gen.live_mask(inp.data.shape[0], inp.n_seed,
                                          done)]
            k = (i + 1) // every - 1     # a fresh slice of rectangles
            evals = inp.evals.slice(k * per_eval, (k + 1) * per_eval)
            results = answer(evals.queries())
            truths = gen.ground_truth(live, inp.ds, evals)
            accuracy.add(results, truths)
            check_exact(run, results, truths, f"batch {i}")
            check_exact(run, answer(inp.identity.queries()),
                        gen.ground_truth(live, inp.ds, inp.identity),
                        f"batch {i}")
            unbounded_count_check(run, answer, live.shape[0],
                                  f"batch {i}")
    if evaluate:
        accuracy.report(run)
        run.metrics["synopsis_bytes_per_row"] = \
            engine.storage_cost_bytes() / len(engine.table)
        run.counts["synopsis_bytes_per_row"] = 1
        run.notes["n_repartitions"] = engine.n_repartitions
    return Pass([np.asarray(reads)], writes.array())


def run_engine(run: Run) -> None:
    inp = run.inp
    passes: List[Pass] = []
    speed: List[tuple] = []
    for k in range(run.passes):
        for _ in range(ENGINE_SETUPS):
            engine = timed_setup(run,
                                 lambda: build_solo(inp, seed_rows(inp)))
            speed.append(lg.speed_sample())
        passes.append(engine_pass(run, engine, k + 1 == run.passes, speed))
    own = lg.Speed(np.asarray(speed), lg.NOMINAL_INLINE_S)
    report_setup(run, own)
    report_timings(run, passes, gen.BATCH, [own])
    run.metrics["peak_rss_mb"] = lg.peak_rss_mb(os.getpid())
    run.counts["peak_rss_mb"] = 1


RUNNERS = {
    "serve_hot": run_serve,
    "serve_cold_mixed": run_serve,
    "engine_stream": run_engine,
    "fleet_mixed": run_fleet,
}
