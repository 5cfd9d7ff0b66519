"""janus-lint: project-specific static invariant checks.

Run over the engine sources::

    python -m tools.analysis              # defaults to src/repro
    python -m tools.analysis src/repro --write-baseline

Four passes guard the cross-cutting conventions the engine's
correctness rests on (see ``docs/ANALYSIS.md``):

==============  ========  ==================================================
pass            codes     invariant
==============  ========  ==================================================
epoch           JL101-102 every mutation path bumps ``data_epoch``
locks           JL201-205 guarded-by/lock-order discipline
hygiene         JL501-503 seeded RNG, no numeric ``is``, no bare except
obs-metrics     JL601-602 metric names come from the obs.metrics CATALOG
==============  ========  ==================================================

Findings are compared against ``tools/analysis/baseline.txt``; only
*new* findings fail the gate, so pre-existing debt is tracked rather
than ignored.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .core import (DEFAULT_BASELINE, Finding, GateResult, Module,  # noqa: F401
                   Project, apply_baseline, load_baseline, write_baseline)
from .epoch import check_epoch
from .hygiene import check_hygiene
from .locks import check_locks, lock_order_edges  # noqa: F401
from .obsmetrics import check_obs_metrics

#: Registered passes, in reporting order.
PASSES: Dict[str, Callable[[Project], List[Finding]]] = {
    "epoch": check_epoch,
    "locks": check_locks,
    "hygiene": check_hygiene,
    "obs-metrics": check_obs_metrics,
}


def run_passes(project: Project,
               only: List[str] | None = None) -> List[Finding]:
    """Run all (or a subset of) passes and return sorted findings."""
    findings: List[Finding] = []
    for name, check in PASSES.items():
        if only and name not in only:
            continue
        findings.extend(check(project))
    return sorted(set(findings))
