"""What the paper-figure benchmarks need beyond the engine: the PASS
static tree (:mod:`.spt`), the RS / SRS / DeepDB baselines the paper
compares against (:mod:`.rs`, :mod:`.srs`, :mod:`.deepdb` over
:mod:`.spn`) and the Section 6.2 evaluation harness (:mod:`.harness`,
:mod:`.metrics`).  Import it as ``lib`` with ``benchmarks/`` on the
path, as the ``bench_*.py`` scripts run.
"""
