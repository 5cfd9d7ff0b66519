"""Seeded, hashable inputs for the four end-to-end workloads.

Everything a run feeds the program - the table rows, every SQL string
and ``Query``, every write batch with its due time - is generated here
from ``--seed`` and materialised before any clock starts.  The program
only ever sees these inputs; ``Inputs.sha256`` digests all of them, so
a parent commit and a change can prove they ran the same operations.

The dataset is the repo's ``nyc_taxi`` stand-in (one predicate column,
``pickup_time``).  Tids equal row indices of ``Inputs.data``: the seed
rows are ``data[:n_seed]`` and every later insert takes the next
slice, so the benchmark can compute exact ground truth from its own
bookkeeping, never from the program under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.queries import AggFunc, Query, Rectangle
from repro.datasets import synthetic

DATASET = "nyc_taxi"
#: The table and its update stream (arrival order, which tids each
#: delete removes) are a fixed trace, as the paper's datasets are:
#: their generator seed never changes.  ``--seed`` drives what is asked
#: of it - every query rectangle and the Zipf draws.  The engine's
#: trajectory (trigger firings, re-partitions, sample pool) feeds back
#: on itself, so a seed-dependent write stream would make every metric
#: a function of the seed first and of the code second.
TABLE_SEED = 0
#: Sizing, the only engine knobs the benchmark sets (see README,
#: "default-knobs rule"): leaves per synopsis, pooled-sample rate and
#: the sketched column.
K_LEAVES = 64
SAMPLE_RATE = 0.02
SKETCH_ATTRS = ("passenger_count",)

READ_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
             AggFunc.MAX)
EVAL_AGGS = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)
SKETCH_SQL = ("SELECT PERCENTILE(passenger_count, 0.9) FROM trips",
              "SELECT COUNT(DISTINCT passenger_count) FROM trips",
              "SELECT TOPK(passenger_count, 3) FROM trips")
#: Zipf ranks (1-based) the sketch statements occupy in serve_hot:
#: together 5.1% of the draws, whatever the seed.
SKETCH_RANKS = (5, 30, 60)
BATCH = 64                  # queries per query_many call
N_IDENTITY = 256            # quiescent bit-identity probes
HOT_STATEMENTS = 64         # distinct statements of serve_hot
ZIPF_S = 1.1
WRITE_PERIOD = 1.0 / 60.0   # open-loop write grid: 60 batches/s
ENGINE_BATCHES_PER_S = 100  # engine_stream: about 11 ms per batch pair
N_EVAL = 3000               # accuracy rectangles per run
N_CHECKPOINTS = 10          # engine_stream evaluates N_EVAL / 10 at each


@dataclass
class Rects:
    """``n`` one-dimensional range aggregates in array form.

    Bounds are rounded to 3 decimals so the SQL text and the ``Query``
    built from the same numbers describe the identical rectangle.
    """

    aggs: np.ndarray            # indices into ``agg_set``
    lo: np.ndarray
    hi: np.ndarray
    agg_set: Tuple[AggFunc, ...]
    agg_attr: str
    pred_attrs: Tuple[str, ...]

    def __len__(self) -> int:
        return self.lo.shape[0]

    def query(self, i: int) -> Query:
        return Query(self.agg_set[self.aggs[i]], self.agg_attr,
                     self.pred_attrs,
                     Rectangle((float(self.lo[i]),), (float(self.hi[i]),)))

    def queries(self, start: int = 0, stop: int = None) -> List[Query]:
        return [self.query(i)
                for i in range(start, len(self) if stop is None else stop)]

    def slice(self, start: int, stop: int) -> "Rects":
        return Rects(self.aggs[start:stop], self.lo[start:stop],
                     self.hi[start:stop], self.agg_set, self.agg_attr,
                     self.pred_attrs)

    def sql(self, i: int) -> str:
        agg = self.agg_set[self.aggs[i]]
        target = "*" if agg is AggFunc.COUNT else self.agg_attr
        return (f"SELECT {agg.value}({target}) FROM trips WHERE "
                f"{self.pred_attrs[0]} BETWEEN {self.lo[i]:.3f} "
                f"AND {self.hi[i]:.3f}")

    def sqls(self) -> List[str]:
        return [self.sql(i) for i in range(len(self))]

    def digest(self, h) -> None:
        for arr in (self.aggs, self.lo, self.hi):
            h.update(np.ascontiguousarray(arr).tobytes())


def make_rects(rng: np.random.Generator, n: int, ds,
               agg_set: Sequence[AggFunc]) -> Rects:
    """Uniform sub-intervals of the predicate domain, 2%-50% wide
    (the paper's Section 6.1 workload shape)."""
    col = ds.column(ds.predicate_attrs[0])
    dom_lo, dom_hi = float(col.min()), float(col.max())
    span = dom_hi - dom_lo
    width = span * rng.uniform(0.02, 0.50, n)
    lo = dom_lo + rng.uniform(0.0, 1.0, n) * (span - width)
    lo = np.round(lo, 3)
    hi = np.round(lo + width, 3)
    aggs = rng.integers(0, len(agg_set), n)
    return Rects(aggs, lo, hi, tuple(agg_set), ds.agg_attr,
                 tuple(ds.predicate_attrs))


@dataclass
class WriteOp:
    """One write batch: rows ``data[a:b]`` or a tid list, due at
    ``due`` seconds after the window opens (open-loop schedules)."""

    kind: str                   # "i" or "d"
    due: float
    a: int = 0
    b: int = 0
    tids: np.ndarray = None

    @property
    def n_rows(self) -> int:
        return self.b - self.a if self.kind == "i" else int(self.tids.size)


def write_schedule(rng: np.random.Generator, n_seed: int, n_ops: int,
                   ins_rows: int, del_rows: int, ins_per_del: int,
                   period: float) -> List[WriteOp]:
    """``n_ops`` write batches, ``ins_per_del`` inserts per delete.

    Inserts take consecutive slices of the table rows; each delete
    removes ``del_rows`` tids drawn uniformly from the rows live at
    that point of the sequence.  ``period`` is the gap between
    consecutive ops (0 for closed-loop callers, which ignore ``due``).
    """
    live = np.arange(n_seed, dtype=np.int64)
    next_row = n_seed
    ops: List[WriteOp] = []
    for i in range(n_ops):
        due = i * period
        if i % (ins_per_del + 1) == ins_per_del:
            idx = rng.choice(live.size, size=del_rows, replace=False)
            ops.append(WriteOp("d", due, tids=np.sort(live[idx])))
            live = np.delete(live, idx)
        else:
            ops.append(WriteOp("i", due, next_row, next_row + ins_rows))
            live = np.concatenate(
                [live, np.arange(next_row, next_row + ins_rows)])
            next_row += ins_rows
    return ops


def live_mask(n_rows: int, n_seed: int,
              done: Sequence[WriteOp]) -> np.ndarray:
    """Which rows of ``data`` are live after the ``done`` ops."""
    mask = np.zeros(n_rows, dtype=bool)
    mask[:n_seed] = True
    for op in done:
        if op.kind == "i":
            mask[op.a:op.b] = True
        else:
            mask[op.tids] = False
    return mask


@dataclass
class Inputs:
    """Everything one run of one workload feeds the program."""

    workload: str
    seed: int
    ds: object                          # synthetic.Dataset, n_total rows
    n_seed: int
    n_shards: int                       # 0: a single JanusAQP
    sketch: bool
    reads: Rects                        # read pool
    read_order: List[np.ndarray]        # per reader: indices into reads
    read_batch: int                     # queries per read call
    hot_sql: List[str] = field(default_factory=list)  # serve_hot pool
    writes: List[WriteOp] = field(default_factory=list)
    write_period: float = 0.0           # 0: closed-loop writes
    evals: Rects = None                 # accuracy workload
    identity: Rects = None              # bit-identity probes
    sha256: str = ""

    @property
    def data(self) -> np.ndarray:
        return self.ds.data


def load_table(n_rows: int):
    return synthetic.load(DATASET, n=n_rows, seed=TABLE_SEED)


def _zipf_order(rng: np.random.Generator, n_items: int, n: int
                ) -> np.ndarray:
    p = 1.0 / np.arange(1, n_items + 1) ** ZIPF_S
    return rng.choice(n_items, size=n, p=p / p.sum())


def generate(workload: str, seed: int, seconds: float,
             scale: float = 1.0) -> Inputs:
    """Materialise the inputs of one pass of ``seconds`` seconds
    (every pass of a run plays the same ones; ``scale`` < 1 is
    smoke)."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    trace_rng = np.random.default_rng([TABLE_SEED,
                                       sum(map(ord, workload))])
    n_eval = max(100, int(N_EVAL * scale))
    rows = lambda n: max(2000, int(n * scale))
    if workload == "engine_stream":
        n_batches = max(50, int(round(ENGINE_BATCHES_PER_S * seconds
                                      * scale)))
        n_seed, rows_per = rows(14_000), 80
        n_total = n_seed + rows_per * n_batches
        ds = load_table(n_total)
        inp = Inputs(workload, seed, ds, n_seed, 0, False,
                     make_rects(rng, 256 * BATCH, ds, READ_AGGS),
                     [np.arange(256)], BATCH)
        inp.writes = write_schedule(trace_rng, n_seed, n_batches, rows_per,
                                    rows_per, 4, 0.0)
    elif workload == "fleet_mixed":
        n_seed, period = rows(100_000), WRITE_PERIOD
        n_ops = int(seconds / period)
        ds = load_table(n_seed + 32 * n_ops)
        inp = Inputs(workload, seed, ds, n_seed, 2, True,
                     make_rects(rng, 256 * BATCH, ds, READ_AGGS),
                     [np.arange(256)], BATCH)
        # i, i, d on the write grid: 32 rows every 25 ms and 16 tids
        # every 50 ms on average.
        inp.writes = write_schedule(trace_rng, n_seed, n_ops, 32, 16, 2,
                                    period)
        inp.write_period = period
    elif workload in ("serve_hot", "serve_cold_mixed"):
        n_seed = rows(100_000)
        hot = workload == "serve_hot"
        period = 0.0 if hot else WRITE_PERIOD
        # serve_hot: a closed-loop write burst after the read phase; a
        # fixed op count, so every run meets the same trigger events.
        n_ops = int(seconds * 100) if hot else int(seconds / period)
        ds = load_table(n_seed + 16 * n_ops)
        if hot:
            reads = make_rects(rng, HOT_STATEMENTS, ds, READ_AGGS)
            per_client = int(4000 * seconds)
            order = [_zipf_order(rng, HOT_STATEMENTS, per_client)
                     for _ in range(2)]
        else:
            # ~300 reads/s are asked in a pass; the traced run's
            # 64-query batches take 1152 a second of pass.
            reads = make_rects(rng, int(1200 * seconds), ds, READ_AGGS)
            order = [np.arange(len(reads))]
        inp = Inputs(workload, seed, ds, n_seed, 4, True, reads, order, 1)
        if hot:
            sql = reads.sqls()
            for rank, stmt in zip(SKETCH_RANKS, SKETCH_SQL):
                sql[rank - 1] = stmt
            inp.hot_sql = sql
        inp.writes = write_schedule(trace_rng, n_seed, n_ops, 16, 8, 2, period)
        inp.write_period = period
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inp.evals = make_rects(rng, n_eval, inp.ds, EVAL_AGGS)
    inp.identity = make_rects(rng, N_IDENTITY, inp.ds, READ_AGGS)
    inp.sha256 = _digest(inp)
    return inp


def _digest(inp: Inputs) -> str:
    h = hashlib.sha256()
    h.update(f"{inp.workload}:{inp.seed}:{inp.n_seed}:{inp.n_shards}:"
             f"{inp.sketch}:{inp.read_batch}:{inp.write_period}".encode())
    h.update(np.ascontiguousarray(inp.data).tobytes())
    for rects in (inp.reads, inp.evals, inp.identity):
        rects.digest(h)
    for order in inp.read_order:
        h.update(np.ascontiguousarray(order).tobytes())
    h.update("\n".join(inp.hot_sql).encode())
    for op in inp.writes:
        h.update(f"{op.kind}:{op.due!r}:{op.a}:{op.b}".encode())
        if op.tids is not None:
            h.update(op.tids.tobytes())
    return h.hexdigest()


def ground_truth(rows: np.ndarray, ds, rects: Rects) -> np.ndarray:
    """Exact answers over ``rows`` (the live rows), computed here.

    SUM/COUNT/AVG come from one sort plus prefix sums; MIN/MAX scan the
    matching slice.  Empty regions give 0 for SUM/COUNT and NaN else.
    """
    key = rows[:, ds.schema.index(ds.predicate_attrs[0])]
    val = rows[:, ds.schema.index(ds.agg_attr)]
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    csum = np.concatenate([[0.0], np.cumsum(val)])
    a = np.searchsorted(key, rects.lo, side="left")
    b = np.searchsorted(key, rects.hi, side="right")
    count = (b - a).astype(np.float64)
    total = csum[b] - csum[a]
    out = np.empty(len(rects))
    for i in range(len(rects)):
        agg = rects.agg_set[rects.aggs[i]]
        if agg is AggFunc.COUNT:
            out[i] = count[i]
        elif agg is AggFunc.SUM:
            out[i] = total[i]
        elif count[i] == 0:
            out[i] = np.nan
        elif agg is AggFunc.AVG:
            out[i] = total[i] / count[i]
        elif agg is AggFunc.MIN:
            out[i] = val[a[i]:b[i]].min()
        else:
            out[i] = val[a[i]:b[i]].max()
    return out
