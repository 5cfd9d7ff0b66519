"""Tests for janus-lint (``tools/analysis``): each pass is exercised on
a known-bad in-memory fixture (flagged at the right file:line) and on
its fixed variant (clean), the real tree must be clean modulo the
committed baseline, and reverting the repartition epoch fix must make
the gate fail again.
"""

import os
import subprocess
import sys
import textwrap
import threading

# The tools/ package lives at the repo root, which is not on sys.path
# when pytest is invoked as a bare executable; PYTHONPATH=src only
# covers the repro package.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

from tools.analysis import PASSES, run_passes                  # noqa: E402
from tools.analysis.core import (DEFAULT_BASELINE, Project,    # noqa: E402
                                 apply_baseline, load_baseline)
from tools.analysis.epoch import check_epoch                   # noqa: E402
from tools.analysis.hygiene import check_hygiene               # noqa: E402
from tools.analysis.locks import check_locks, lock_order_edges  # noqa: E402
from tools.analysis.obsmetrics import check_obs_metrics        # noqa: E402
from tools.analysis.runtime import LockOrderRecorder           # noqa: E402


def line_of(source: str, needle: str) -> int:
    """1-based line of the first source line containing ``needle``."""
    for i, text in enumerate(source.splitlines(), 1):
        if needle in text:
            return i
    raise AssertionError(f"{needle!r} not in fixture")


def codes(findings):
    return sorted(f.code for f in findings)


def has(findings, code, path=None, line=None):
    return any(f.code == code
               and (path is None or f.path == path)
               and (line is None or f.line == line)
               for f in findings)


# ------------------------------------------------------------------ #
# epoch discipline (JL101 / JL102)
# ------------------------------------------------------------------ #

EPOCH_JANUS = textwrap.dedent('''\
    class JanusAQP:
        def bump_epoch(self):
            with self._lock:
                self.data_epoch += 1
                return self.data_epoch

        def insert_many(self, rows):
            with self._lock:
                tids = self.table.insert_many(rows)
                self.data_epoch += 1
                return tids
    ''')

EPOCH_BAD_REPART = textwrap.dedent('''\
    def partial_repartition(janus, leaf):
        janus.dpt.replace_subtree(leaf, None)
        janus.data_epoch += 1
    ''')

EPOCH_BAD_STREAM = textwrap.dedent('''\
    def apply_batch(janus, rows):
        return janus.dpt.insert_rows(rows)
    ''')


def test_epoch_pass_flags_external_bump_and_missing_bump():
    project = Project.from_sources({
        "src/repro/core/janus.py": EPOCH_JANUS,
        "src/repro/core/repartition.py": EPOCH_BAD_REPART,
        "src/repro/core/stream.py": EPOCH_BAD_STREAM,
    })
    findings = check_epoch(project)
    assert has(findings, "JL102", "src/repro/core/repartition.py",
               line_of(EPOCH_BAD_REPART, "janus.data_epoch += 1"))
    assert has(findings, "JL101", "src/repro/core/stream.py",
               line_of(EPOCH_BAD_STREAM, "def apply_batch"))


def test_epoch_pass_accepts_engine_routed_bumps():
    fixed_repart = EPOCH_BAD_REPART.replace(
        "janus.data_epoch += 1", "janus.bump_epoch()")
    fixed_stream = EPOCH_BAD_STREAM.replace(
        "return janus.dpt.insert_rows(rows)",
        "rows = janus.dpt.insert_rows(rows)\n    janus.bump_epoch()")
    project = Project.from_sources({
        "src/repro/core/janus.py": EPOCH_JANUS,
        "src/repro/core/repartition.py": fixed_repart,
        "src/repro/core/stream.py": fixed_stream,
    })
    assert check_epoch(project) == []


def test_below_engine_modules_are_exempt():
    project = Project.from_sources({
        "src/repro/core/dpt.py": EPOCH_BAD_STREAM,   # not epoch layer
    })
    assert check_epoch(project) == []


def test_reverting_repartition_epoch_fix_fails_the_gate():
    path = os.path.join(REPO, "src", "repro", "core", "repartition.py")
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    delegated = "janus._rebuild(scope=scope)"
    assert delegated in source, \
        "partial re-partitioning no longer runs the engine's pipeline"
    reverted = source.replace(
        delegated, "janus.dpt.replace_subtree(scope, None)\n"
                   "        janus.data_epoch += 1")
    project = Project.from_sources(
        {"src/repro/core/repartition.py": reverted})
    findings = check_epoch(project)
    assert has(findings, "JL102", "src/repro/core/repartition.py")
    gate = apply_baseline(findings, load_baseline(DEFAULT_BASELINE))
    assert any(f.code == "JL102" for f in gate.new), \
        "the external-bump finding must not be baselined away"


# ------------------------------------------------------------------ #
# lock discipline (JL201 - JL205)
# ------------------------------------------------------------------ #

LOCKS_BAD = textwrap.dedent('''\
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self.stats = 0  # guarded-by: _lock

        def hit(self):
            self.stats += 1

        def reset(self):
            self._lock.acquire()
            self._lock.release()

        def _evict(self):  # requires-lock: _lock
            self.stats -= 1

        def trim(self):
            self._evict()
    ''')

LOCKS_FIXED = textwrap.dedent('''\
    import threading

    class Cache:
        def __init__(self):
            self._lock = threading.Lock()
            self.stats = 0  # guarded-by: _lock

        def hit(self):
            with self._lock:
                self.stats += 1

        def reset(self):
            self._lock.acquire()
            try:
                pass
            finally:
                self._lock.release()

        def _evict(self):  # requires-lock: _lock
            self.stats -= 1

        def trim(self):
            with self._lock:
                self._evict()
    ''')


def test_lock_pass_flags_unguarded_access_acquire_and_requires():
    project = Project.from_sources({"src/repro/core/x.py": LOCKS_BAD})
    findings = check_locks(project)
    assert has(findings, "JL201", "src/repro/core/x.py",
               line_of(LOCKS_BAD, "self.stats += 1"))
    assert has(findings, "JL202", "src/repro/core/x.py",
               line_of(LOCKS_BAD, "self._lock.acquire()"))
    assert has(findings, "JL204", "src/repro/core/x.py",
               line_of(LOCKS_BAD, "self._evict()"))


def test_lock_pass_accepts_guarded_variants():
    project = Project.from_sources({"src/repro/core/x.py": LOCKS_FIXED})
    assert check_locks(project) == []


LOCKS_CYCLE = textwrap.dedent('''\
    import threading

    class Pair:
        def __init__(self):
            self._a_lock = threading.Lock()
            self._b_lock = threading.Lock()

        def forward(self):
            with self._a_lock:
                with self._b_lock:
                    pass

        def backward(self):
            with self._b_lock:
                with self._a_lock:
                    pass
    ''')


LOCKS_CYCLE_FIXED = LOCKS_CYCLE.replace(
    "        with self._b_lock:\n            with self._a_lock:",
    "        with self._a_lock:\n            with self._b_lock:")
assert LOCKS_CYCLE_FIXED != LOCKS_CYCLE


def test_lock_pass_detects_ordering_cycle():
    project = Project.from_sources({"src/repro/core/x.py": LOCKS_CYCLE})
    findings = check_locks(project)
    assert has(findings, "JL203")
    project = Project.from_sources(
        {"src/repro/core/x.py": LOCKS_CYCLE_FIXED})
    assert not has(check_locks(project), "JL203")
    edges = lock_order_edges(project)
    assert ("Pair._a_lock", "Pair._b_lock") in edges


LOCKS_INLINE_CLOSURE = textwrap.dedent('''\
    import threading

    class Pair:
        def __init__(self):
            self._a_lock = threading.Lock()
            self._b_lock = threading.Lock()

        def each(self, fn):
            fn()

        def forward(self):
            def work():
                with self._b_lock:
                    pass
            with self._a_lock:
                self.each(work)

        def backward(self):
            with self._b_lock:
                with self._a_lock:
                    pass
    ''')


def test_closure_passed_under_a_lock_orders_the_locks_it_takes():
    """A dispatcher may run a closure inline (the sharded coordinator
    does, over in-process shards): locks held where it is handed over
    come before the ones it takes."""
    project = Project.from_sources(
        {"src/repro/core/x.py": LOCKS_INLINE_CLOSURE})
    assert ("Pair._a_lock", "Pair._b_lock") in lock_order_edges(project)
    assert has(check_locks(project), "JL203")
    released = LOCKS_INLINE_CLOSURE.replace(
        "        with self._a_lock:\n            self.each(work)",
        "        with self._a_lock:\n            pass\n"
        "        self.each(work)")
    assert released != LOCKS_INLINE_CLOSURE
    project = Project.from_sources({"src/repro/core/x.py": released})
    assert not has(check_locks(project), "JL203")


LOCKS_MULTI = textwrap.dedent('''\
    import threading

    class Engine:
        def __init__(self):
            self._lock = threading.RLock()

        def pair(self, a: "Engine", b: "Engine"):
            with a._lock:
                with b._lock:
                    pass
    ''')


def test_lock_pass_flags_multi_instance_without_waiver():
    project = Project.from_sources({"src/repro/core/x.py": LOCKS_MULTI})
    findings = check_locks(project)
    assert has(findings, "JL205", "src/repro/core/x.py",
               line_of(LOCKS_MULTI, "with b._lock:"))
    waived = LOCKS_MULTI.replace(
        "with b._lock:",
        "with b._lock:  # lock-order: canonical (caller passes id order)")
    project = Project.from_sources({"src/repro/core/x.py": waived})
    assert check_locks(project) == []


def test_self_reacquisition_of_reentrant_lock_is_not_multi_instance():
    source = textwrap.dedent('''\
        import threading

        class Engine:
            def __init__(self):
                self._lock = threading.RLock()

            def _reopt(self):
                with self._lock:
                    pass

            def ingest(self):
                with self._lock:
                    self._reopt()
        ''')
    project = Project.from_sources({"src/repro/core/x.py": source})
    assert check_locks(project) == []


# ------------------------------------------------------------------ #
# determinism / numpy hygiene (JL501 - JL503)
# ------------------------------------------------------------------ #

HYGIENE_BAD = textwrap.dedent('''\
    import numpy as np

    def sample(n):
        draws = np.random.rand(n)
        rng = np.random.default_rng()
        flag = draws[0] is np.nan
        try:
            return rng.integers(n), flag
        except:
            return None, flag
    ''')


def test_hygiene_pass_flags_rng_identity_and_bare_except():
    project = Project.from_sources({"src/repro/core/x.py": HYGIENE_BAD})
    findings = check_hygiene(project)
    path = "src/repro/core/x.py"
    assert has(findings, "JL501", path,
               line_of(HYGIENE_BAD, "np.random.rand"))
    assert has(findings, "JL501", path,
               line_of(HYGIENE_BAD, "default_rng()"))
    assert has(findings, "JL502", path,
               line_of(HYGIENE_BAD, "is np.nan"))
    assert has(findings, "JL503", path,
               line_of(HYGIENE_BAD, "except:"))


def test_hygiene_pass_accepts_seeded_and_explicit_code():
    fixed = (HYGIENE_BAD
             .replace("np.random.rand(n)",
                      "np.random.default_rng(7).random(n)")
             .replace("np.random.default_rng()",
                      "np.random.default_rng(1234)")
             .replace("draws[0] is np.nan", "np.isnan(draws[0])")
             .replace("except:", "except Exception:"))
    project = Project.from_sources({"src/repro/core/x.py": fixed})
    assert check_hygiene(project) == []


# ------------------------------------------------------------------ #
# metric-name discipline (JL601 / JL602)
# ------------------------------------------------------------------ #

OBS_CATALOG = textwrap.dedent('''\
    CATALOG = {
        "janus_service_requests_total": ("counter", "Requests served."),
        "janus_engine_reoptimize_seconds": ("histogram", "Reopt time."),
    }
    ''')

OBS_BAD = textwrap.dedent('''\
    import numpy as np

    class Server:
        def __init__(self, registry, route):
            self.c_ok = registry.counter("janus_service_requests_total")
            self.c_typo = registry.counter("janus_service_request_total")
            self.c_dyn = registry.counter("janus_service_" + route)
            self.line = "janus_service_oops_total 1"

        def digest(self, values):
            return np.histogram(values, bins=self.edges)
    ''')


def obs_project(server_source):
    return Project.from_sources({
        "src/repro/obs/metrics.py": OBS_CATALOG,
        "src/repro/service/x.py": server_source,
    })


def test_obs_pass_flags_typo_computed_and_stringly_names():
    findings = check_obs_metrics(obs_project(OBS_BAD))
    path = "src/repro/service/x.py"
    assert has(findings, "JL601", path, line_of(OBS_BAD, "c_typo"))
    assert has(findings, "JL601", path, line_of(OBS_BAD, "c_dyn"))
    assert has(findings, "JL602", path, line_of(OBS_BAD, "oops"))
    # The catalogued name and the numpy.histogram call stay clean.
    assert not has(findings, "JL601", path, line_of(OBS_BAD, "c_ok"))
    assert not has(findings, "JL601", path,
                   line_of(OBS_BAD, "np.histogram"))


def test_obs_pass_accepts_catalogued_names():
    fixed = (OBS_BAD
             .replace("janus_service_request_total",
                      "janus_service_requests_total")
             .replace('registry.counter("janus_service_" + route)',
                      'registry.counter("janus_engine_reoptimize_seconds")')
             .replace('"janus_service_oops_total 1"',
                      '"janus_service_requests_total 1"'))
    assert check_obs_metrics(obs_project(fixed)) == []


def test_obs_pass_is_noop_without_a_catalog_module():
    project = Project.from_sources({"src/repro/service/x.py": OBS_BAD})
    assert check_obs_metrics(project) == []


# ------------------------------------------------------------------ #
# the gate: real tree, baseline, CLI
# ------------------------------------------------------------------ #

def test_repo_tree_is_clean_modulo_baseline():
    project = Project.from_paths(["src/repro"], root=REPO)
    gate = apply_baseline(run_passes(project),
                          load_baseline(DEFAULT_BASELINE))
    assert gate.new == [], "new janus-lint findings:\n" + "\n".join(
        f.render() for f in gate.new)


def test_all_passes_are_registered():
    assert set(PASSES) == {"epoch", "locks", "hygiene", "obs-metrics"}


def test_cli_exits_nonzero_on_new_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n",
                   encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", str(bad),
         "--no-baseline"],
        cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "JL503" in proc.stdout


def test_cli_exits_zero_on_the_committed_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", "src/repro"],
        cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_real_lock_order_graph_is_acyclic_and_layered():
    project = Project.from_paths(["src/repro"], root=REPO)
    edges = lock_order_edges(project)
    # the documented layering: the coordinator's placement lock above
    # the shard seam's lock above the engine lock it aliases ...
    assert ("PlacementMap.lock", "JanusAQP._lock") in edges
    assert ("PlacementMap.lock", "LocalShard.lock") in edges
    assert ("LocalShard.lock", "JanusAQP._lock") in edges
    assert ("LocalShard.lock", "ShardSummary._lock") in edges
    # ... and no path back up
    froms = {a for a, _b in edges}
    assert not any(b == "PlacementMap.lock" for _a, b in edges), froms


# ------------------------------------------------------------------ #
# runtime lock-order recorder
# ------------------------------------------------------------------ #

def test_recorder_detects_ab_ba_inversion():
    rec = LockOrderRecorder()
    with rec.wrapping():
        a = threading.Lock()
        b = threading.Lock()
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    cycles = rec.cycles()
    assert len(cycles) == 1
    assert rec.self_edges() == []


def test_recorder_ignores_rlock_reentrancy():
    rec = LockOrderRecorder()
    with rec.wrapping():
        lock = threading.RLock()
    with lock:
        with lock:
            pass
    assert rec.cycles() == []
    assert rec.self_edges() == []
    assert rec.edges == {}


def test_recorder_reports_same_site_instances_as_self_edge():
    rec = LockOrderRecorder()
    with rec.wrapping():
        locks = [threading.Lock() for _ in range(2)]
    with locks[0]:
        with locks[1]:
            pass
    assert rec.cycles() == []
    assert len(rec.self_edges()) == 1


def test_recorder_sees_cross_thread_edges():
    rec = LockOrderRecorder()
    with rec.wrapping():
        a = threading.Lock()
        b = threading.Lock()

    def worker():
        with b:
            with a:
                pass

    with a:
        with b:
            pass
    t = threading.Thread(target=worker)
    t.start()
    t.join()
    assert len(rec.cycles()) == 1
