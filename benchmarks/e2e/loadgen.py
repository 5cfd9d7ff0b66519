"""Load generation and process handling shared by the workloads.

One process, at most two load threads.  Readers are closed-loop (a
caller waits for its reply before sending the next request); mixed
workloads pace their writer open-loop on a fixed schedule and time each
write *from when it was due*, so a stall is charged to every write it
delays and the write load does not shrink when the program slows.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Sequence

import numpy as np

from repro.service.client import ServiceClient
from speedprobe import speed_sample     # noqa: F401  (workloads use it)

OP_TIMEOUT_S = 5.0          # a slower operation counts as failed
PROBE = Path(__file__).resolve().with_name("speedprobe.py")


class Tally:
    """Attempted / failed operation counts (thread-safe enough: each
    load thread owns one and they are summed afterwards)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[:20 - len(self.errors)])


def timed_call(tally: Tally, fn: Callable, *args):
    """Run one program operation; exceptions and timeouts are counted,
    never raised.  Returns ``(result_or_None, start, end)``."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:            # counted, the run goes on
        end = time.perf_counter()
        tally.fail(f"{getattr(fn, '__name__', fn)}: "
                   f"{type(exc).__name__}: {exc}")
        return None, start, end
    end = time.perf_counter()
    if end - start > OP_TIMEOUT_S:
        tally.fail(f"{getattr(fn, '__name__', fn)}: "
                   f"took {end - start:.1f}s")
    return out, start, end


def closed_loop(call: Callable, items: Sequence, deadline: float,
                tally: Tally) -> np.ndarray:
    """Issue ``call(item)`` back to back until ``deadline``; returns
    one ``(start, end)`` row per call."""
    spans: List[tuple] = []
    for item in items:
        if time.perf_counter() >= deadline:
            break
        _, start, end = timed_call(tally, call, item)
        spans.append((start, end))
    return np.asarray(spans).reshape(-1, 2)


class PacedWrites:
    """Writer results: ``(due, start, end)`` per executed op, so
    ``end - due`` is the latency from due time, ``end - start`` the
    service time and ``start - due`` the generator's lag."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def record(self, due: float, start: float, end: float) -> None:
        self.rows.append((due, start, end))

    def array(self) -> np.ndarray:
        return np.asarray(self.rows).reshape(-1, 3)


def run_writes(ops, apply: Callable, t0: float, period: float,
               tally: Tally) -> PacedWrites:
    """Apply ``ops`` in order.  With ``period`` > 0 each op waits for
    its due time (``t0 + op.due``) and is timed from it; with 0 the
    loop is closed (due time = previous completion)."""
    out = PacedWrites()
    for op in ops:
        if period > 0:
            due = t0 + op.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
        else:
            due = time.perf_counter()
        _, start, end = timed_call(tally, apply, op)
        out.record(due, start, end)
    return out


def in_thread(fn: Callable, *args) -> "threading.Thread":
    """Start ``fn`` on a load thread; ``finish`` returns its result
    (or re-raises what it raised)."""
    box = {}

    def target() -> None:
        try:
            box["result"] = fn(*args)
        except BaseException as exc:    # re-raised by finish()
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.box = box
    thread.start()
    return thread


def finish(thread: "threading.Thread", timeout: float = 150.0):
    thread.join(timeout)
    if thread.is_alive():
        raise RuntimeError("load thread did not finish")
    if "error" in thread.box:
        raise thread.box["error"]
    return thread.box["result"]


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def pct(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


# ---------------------------------------------------------------------- #
# how fast the cpus ran
# ---------------------------------------------------------------------- #
#: Cpu seconds of one sample on the reference box at full speed: in a
#: probe's tight loop, and inline between the engine's operations
#: (which leave the caches cold for it).
NOMINAL_PROBE_S = 0.000163
NOMINAL_INLINE_S = 0.000207
SPEED_BIN_S = 0.25


class Speed:
    """How much slower than nominal one cpu ran, over time: the median
    of its speed samples per ``SPEED_BIN_S`` bin over the nominal
    time, bins without samples interpolated from their neighbours."""

    def __init__(self, log: np.ndarray, nominal: float) -> None:
        self.t0 = float(log[0, 0])
        index = ((log[:, 0] - self.t0) / SPEED_BIN_S).astype(int)
        order = np.argsort(index, kind="stable")
        index, took = index[order], log[order, 1]
        cuts = np.flatnonzero(np.diff(index)) + 1
        known = index[np.concatenate([[0], cuts])]
        medians = [np.median(part) for part in np.split(took, cuts)]
        self.factor = np.interp(np.arange(index[-1] + 1), known,
                                medians) / nominal

    def at(self, when: np.ndarray) -> np.ndarray:
        index = ((when - self.t0) / SPEED_BIN_S).astype(int)
        return self.factor[index.clip(0, self.factor.size - 1)]

    def between(self, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """Mean slowdown over each ``[start, end]``."""
        first = ((start - self.t0) / SPEED_BIN_S).astype(int)
        last = ((end - self.t0) / SPEED_BIN_S).astype(int)
        first, last = (x.clip(0, self.factor.size - 1)
                       for x in (first, last))
        total = np.concatenate([[0.0], np.cumsum(self.factor)])
        return (total[last + 1] - total[first]) / (last + 1 - first)


def results_differ(got, want) -> bool:
    """Field-exact comparison of two answers (NaN equals NaN)."""
    same_est = got.estimate == want.estimate or (
        math.isnan(got.estimate) and math.isnan(want.estimate))
    return not (same_est and
                got.variance_catchup == want.variance_catchup and
                got.variance_sample == want.variance_sample and
                got.exact == want.exact and
                got.n_covered == want.n_covered and
                got.n_partial == want.n_partial)


# ---------------------------------------------------------------------- #
# processes
# ---------------------------------------------------------------------- #
def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the fleet's worker processes)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # pid (comm) state ppid ...; comm may contain spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


class Placement:
    """Fixed cpu placement, awake cpus and their speed logs, for a run.

    *Pinning.*  The load generator (this process: load threads, twin,
    fleet coordinator) keeps every allowed cpu but the last; the
    program's own processes - the server, the fleet workers - get the
    last one.  Unpinned, closed-loop request/reply traffic lets the
    scheduler stack client and server on one cpu for a whole run (3x
    slower, bimodal between runs), and a GIL-bound multi-threaded
    Python process is faster and steadier on one cpu than bouncing its
    GIL between two.

    *Probes.*  One idle-priority busy process per cpu.  It keeps the
    virtual cpu out of halt: on the reference VM a halted vcpu is woken
    through the host, and that latency drifts with co-tenant load over
    minutes (``serve_hot`` ``read_p50_ms`` wandered 0.33-0.59 ms
    between identical runs, 0.34 with the cpus kept awake) - what
    ``idle=poll`` gives a bare-metal latency benchmark.  And it logs
    how fast the cpu runs, in the gaps the program leaves; ``stop()``
    returns the logs (see ``Speed``).

    Where affinity or the idle policy cannot be set the run proceeds
    without; ``enabled=False`` (smoke runs, which share the box two at
    a time) does neither.
    """

    def __init__(self, workdir: Path, enabled: bool = True) -> None:
        self.server = None      # cpus of the program's processes
        self._probes: List[tuple] = []      # (process, log path)
        if not enabled:
            return
        try:
            cpus = sorted(os.sched_getaffinity(0))
            for cpu in cpus:
                path = workdir / f"speed-cpu{cpu}.bin"
                probe = subprocess.Popen([sys.executable, str(PROBE),
                                          str(path)])
                self._probes.append((probe, path))
                os.sched_setaffinity(probe.pid, {cpu})
            if len(cpus) >= 2:
                os.sched_setaffinity(0, set(cpus[:-1]))
                self.server = {cpus[-1]}
        except (AttributeError, OSError):
            pass

    def program_children(self) -> List[int]:
        """This process's children that belong to the program (the
        server, fleet workers), not to the benchmark."""
        mine = {probe.pid for probe, _ in self._probes}
        return [pid for pid in child_pids(os.getpid()) if pid not in mine]

    def adopt(self, pid: int) -> None:
        """Move every thread of a program process ``pid`` to the
        program's cpu (threads it starts later inherit)."""
        if self.server is None:
            return
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(task), self.server)
            except OSError:
                pass    # the thread exited, or pinning is not permitted

    def stop(self) -> List[np.ndarray]:
        """End the probes; one ``(when, cpu seconds)`` log per cpu,
        empty where the probe could not run."""
        logs = []
        for probe, path in self._probes:
            probe.terminate()
            try:
                probe.wait(timeout=10)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
            logs.append(np.fromfile(path).reshape(2, -1).T
                        if path.is_file() else np.empty((0, 2)))
        self._probes = []
        return logs


class ServerProc:
    """``python -m repro.service --load <snapshot>`` as a subprocess,
    on its defaults: the only arguments are the snapshot and an
    ephemeral port."""

    def __init__(self, src_dir: Path, snapshot: Path, log_path: Path,
                 placement: Placement) -> None:
        env = dict(os.environ)
        extra = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (str(src_dir) + os.pathsep + extra
                             if extra else str(src_dir))
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service",
             "--load", str(snapshot), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=self._log, text=True)
        self.host, self.port = "127.0.0.1", 0
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        placement.adopt(self.pid)

    def _await_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        for line in self.proc.stdout:
            if "serving on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        if not self.port:
            raise RuntimeError("server exited before binding a port")
        with self.client() as client:
            while not client.health():
                if time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port, timeout=OP_TIMEOUT_S)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
