#!/usr/bin/env python
"""Bit-identity gate: the answer digests, one pass each.

Usage:  python tools/digests.py [--write]

Prints one ``name: value`` line per check and compares them with
``tools/digests.expected``; exits 1 on any mismatch (or a missing
line).  ``--write`` re-cuts the expected file from this run instead -
for a change that moves answers on purpose, which then
says so beside the re-cut.

* ``lone`` - 2,000 lone ``query_many([q])`` reads over a 50k-row
  ``nyc_taxi`` engine (SUM / COUNT / AVG / MIN / MAX in turn);
* ``batch`` - the ``engine_stream`` seed-7 solo engine over its whole
  15 s stream, one write then one ``query_many(64)`` per step;
* ``sharded`` - the ``serve_cold_mixed`` seed-7 snapshot: lone reads
  with a write after every 20th, VARIANCE / STDDEV probes and 46
  batches of 64;
* ``sketch`` - PERCENTILE / COUNT DISTINCT / TOPK answers (estimate,
  ``exact``, ``n_covered``, the sketch's canonical bytes and the TOPK
  items) over a high-cardinality and a narrow column, both holding
  NaN, ``-0.0`` and ``0.0``, after inserts and deletes.  A single
  engine, a 2-shard engine and a 2-worker fleet must print one digest;
  if they do not, the line names all three;
* ``snapshot`` - the contents of the ``serve_cold_mixed`` seed-7
  ``save_sharded`` snapshot: every archive member's name, dtype, shape
  and bytes, file by file.  How members are stored in the zip (and its
  timestamps) does not enter it, so it pins what a snapshot holds, not
  how it is compressed.

Each answer digest is the first 16 hex digits of the sha256 of the
answers' ``repr``.  Float results can differ across numpy builds, Python
versions and cpus, so the expected file names the numpy, Python and
machine it was cut on, a mismatch prints this run's, and CI runs the
check on that numpy and Python only.  What the trigger decides is an
integer line that holds across builds; ``tests/test_triggers.py``
(``TestDecisionGate``) pins it.  Runs from any directory in about 15 s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import platform
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().with_name("digests.expected")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import numpy as np  # noqa: E402

import inputs as gen  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.janus import JanusAQP, JanusConfig  # noqa: E402
from repro.core.persist import load_sharded, save_sharded  # noqa: E402
from repro.core.queries import AggFunc, Query, Rectangle  # noqa: E402
from repro.core.sharded import ShardedJanusAQP  # noqa: E402
from repro.core.table import Table  # noqa: E402
from repro.datasets.synthetic import nyc_taxi  # noqa: E402
from repro.service.fleet import FleetCoordinator  # noqa: E402
from repro.sketch import SKETCH_KEY  # noqa: E402


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def lone() -> str:
    ds = nyc_taxi(n=60000, seed=0)
    table = Table(ds.schema)
    table.insert_many(ds.data[:50000])
    eng = JanusAQP(table, ds.agg_attr, ds.predicate_attrs,
                   config=JanusConfig(seed=7))
    eng.initialize()
    lo, hi = table.domain(ds.predicate_attrs[0])
    rng = np.random.default_rng(1)
    aggs = (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG, AggFunc.MIN,
            AggFunc.MAX)
    out = []
    for i in range(2000):
        a = rng.uniform(lo, hi)
        w = rng.uniform(0.01, 0.3) * (hi - lo)
        q = Query(aggs[i % 5], ds.agg_attr, ds.predicate_attrs,
                  Rectangle((a,), (a + w,)))
        out.append(dataclasses.astuple(eng.query_many([q])[0]))
    return digest(out)


def joined(results) -> str:
    return hashlib.sha256("\n".join(map(repr, results)).encode()
                          ).hexdigest()[:16]


def batch() -> str:
    inp = gen.generate("engine_stream", 7, 15)
    batches = wl.read_batches(inp)
    e = wl.build_solo(inp, wl.seed_rows(inp))
    apply = wl.write_via(e.insert_many, e.delete_many, inp.data)
    out = []
    for i, op in enumerate(inp.writes):
        apply(op)
        out.extend(e.query_many(batches[i % len(batches)]))
    return joined(out)


def sharded() -> str:
    inp = gen.generate("serve_cold_mixed", 7, 15)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap"
        wl.build_snapshot(inp, wl.seed_rows(inp), snap)
        e, qs = load_sharded(snap), inp.reads.queries(0, 3000)
        try:
            apply = wl.write_via(e.insert_many, e.delete_many, inp.data)
            out = []
            for i, q in enumerate(qs):
                out.append(e.query_many([q])[0])
                if i % 20 == 19:
                    apply(inp.writes[i // 20])
            for q in qs[:300:3]:
                for agg in (AggFunc.VARIANCE, AggFunc.STDDEV):
                    out.append(e.query_many(
                        [dataclasses.replace(q, agg=agg)])[0])
            for b in range(46):
                out.extend(e.query_many(qs[b * 64:(b + 1) * 64]))
        finally:
            e.close()
    return joined(out)


def sketch_rows(rng, n: int) -> np.ndarray:
    """``x`` predicate, ``a`` aggregate, ``v`` ~n distinct values, ``w``
    nine; every 97th ``v`` and 89th ``w`` is NaN, -0.0 or 0.0, and the
    first zero is a -0.0 in row 1, which a 2-shard engine places apart
    from the 0.0 in row 2."""
    rows = np.column_stack([rng.uniform(0.0, 100.0, n),
                            rng.uniform(0.0, 10.0, n),
                            rng.normal(0.0, 50.0, n),
                            rng.integers(-4, 5, n).astype(float)])
    for col, step in ((2, 97), (3, 89)):
        rows[::step, col] = rng.choice([np.nan, -0.0, 0.0],
                                       rows[::step, col].size)
    rows[:3, 2:] = [[1.5], [-0.0], [0.0]]
    return rows


def sketch_answers(engine, queries) -> str:
    out = []
    for q, r in zip(queries, engine.query_many(queries)):
        state = r.details[SKETCH_KEY]
        items = state.top(int(q.param)) if q.agg is AggFunc.TOPK else None
        out.append((r.estimate, r.exact, r.n_covered, state.to_bytes(),
                    items))
    return digest(out)


def sketch() -> str:
    rng = np.random.default_rng(3)
    seed, more = sketch_rows(rng, 20000), sketch_rows(rng, 4000)
    dead = list(range(0, 24000, 7))
    schema = ("x", "a", "v", "w")
    config = JanusConfig(k=16, seed=0, sketch_attrs=("v", "w"))
    everywhere = Rectangle((-np.inf,), (np.inf,))
    queries = [Query(agg, attr, ("x",), everywhere, param)
               for attr in ("v", "w")
               for agg, param in [(AggFunc.PERCENTILE, p)
                                  for p in (0.0, 0.1, 0.5, 0.9, 1.0)]
               + [(AggFunc.COUNT_DISTINCT, None)]
               + [(AggFunc.TOPK, float(k)) for k in (1, 3, 10)]]
    single = JanusAQP(Table(schema), "a", ("x",), config=config)
    single.insert_many(seed)
    single.initialize()
    sharded = ShardedJanusAQP(schema, "a", ("x",), n_shards=2,
                              config=config)
    sharded.insert_many(seed)
    sharded.initialize()
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        save_sharded(sharded, tmp)
        with FleetCoordinator(tmp, supervise=False) as fleet:
            for name, e in (("single", single), ("2-shard", sharded),
                            ("fleet", fleet)):
                e.insert_many(more)
                e.delete_many(dead)
                got[name] = sketch_answers(e, queries)
    sharded.close()
    if len(set(got.values())) == 1:
        return got["single"]
    return "DIVERGED " + " ".join(f"{n}={d}" for n, d in got.items())


def snapshot() -> str:
    inp = gen.generate("serve_cold_mixed", 7, 15)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap"
        wl.build_snapshot(inp, wl.seed_rows(inp), snap)
        for path in sorted(snap.iterdir()):
            with np.load(path, allow_pickle=False) as archive:
                for name in sorted(archive.files):
                    member = archive[name]
                    h.update(f"{path.name}/{name} {member.dtype.str} "
                             f"{member.shape}\n".encode())
                    h.update(member.tobytes())
    return h.hexdigest()[:16]


CHECKS: Dict[str, Callable[[], str]] = {
    "lone": lone,
    "batch": batch,
    "sharded": sharded,
    "sketch": sketch,
    "snapshot": snapshot,
}


def read_expected() -> Dict[str, str]:
    if not EXPECTED.exists():
        return {}
    pairs = (line.split(": ", 1) for line in EXPECTED.read_text()
             .splitlines() if line and not line.startswith("#"))
    return {name: value for name, value in pairs}


def environment() -> str:
    return (f"numpy {np.__version__}, Python {platform.python_version()},"
            f" {platform.machine()}")


def main(argv: List[str]) -> int:
    got = {}
    for name, check in CHECKS.items():
        got[name] = check()
        print(f"{name}: {got[name]}", flush=True)
    if "--write" in argv:
        EXPECTED.write_text(
            "# tools/digests.py output; re-cut only by a change that\n"
            "# moves answers on purpose.\n"
            f"# cut with {environment()}\n" +
            "".join(f"{n}: {v}\n" for n, v in got.items()))
        return 0
    want = read_expected()
    bad = [n for n in got if want.get(n) != got[n]]
    for name in bad:
        print(f"MISMATCH {name}: expected {want.get(name)!r}, "
              f"got {got[name]!r}", file=sys.stderr)
    if bad:
        print(f"this run: {environment()}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
