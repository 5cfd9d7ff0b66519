"""Every example and README code block must run verbatim (ISSUE 4).

The examples are executed through their ``main(n=...)`` entry points at
reduced row counts - the identical code paths users copy, just cheaper -
and every fenced ``python`` block in the README is executed as written
(``PYTHONPATH=src`` is the documented invocation and matches the test
environment), so documentation drift fails CI instead of rotting.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.core.janus import JanusConfig

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,n", [
    ("quickstart", 6_000),
    ("routed_sharding", 8_000),
    ("sensor_monitoring", 8_000),
    ("serving", 6_000),
    ("stock_orders", 6_000),
    ("taxi_stream", 6_000),
])
def test_example_runs_reduced(name, n):
    module = load_example(name)
    out = io.StringIO()
    with redirect_stdout(out):
        module.main(n=n)
    assert out.getvalue().strip(), f"{name} produced no output"


def python_blocks(path: Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_code_blocks_execute():
    blocks = python_blocks(REPO / "README.md")
    assert blocks, "README should keep at least one python example"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                # Blocks share one namespace so later snippets may build
                # on the quickstart objects, exactly as a reader would.
                exec(compile(block, f"README.md#block{i}", "exec"),
                     namespace)
        except Exception as exc:          # pragma: no cover - diagnostic
            pytest.fail(f"README block {i} failed: {exc}\n{block}")


def test_examples_have_reduced_n_entry_points():
    for path in sorted(EXAMPLES.glob("*.py")):
        source = path.read_text()
        assert re.search(r"def main\(n: int = \d", source), \
            f"{path.name} must expose main(n=...) for the smoke test"


def test_api_doc_lists_every_janus_config_field():
    """docs/API.md's JanusConfig table names exactly the dataclass's
    fields, in declaration order."""
    text = (REPO / "docs" / "API.md").read_text()
    section = text.split("\n## JanusConfig\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \(", section, flags=re.MULTILINE)
    assert documented == [f.name for f in dataclasses.fields(JanusConfig)]


def _documented_signature(name: str):
    """``[(parameter, default)]`` of the ``name(...)`` row docs/API.md
    prints (``inspect.Parameter.empty`` where it shows no default)."""
    text = (REPO / "docs" / "API.md").read_text()
    row = re.search(rf"^\| `{name}\((.*?)\)`", text, flags=re.MULTILINE)
    assert row, f"docs/API.md prints no {name}(...) row"
    args = ast.parse(f"def f({row.group(1)}): pass").body[0].args
    defaults = [inspect.Parameter.empty] * (
        len(args.args) - len(args.defaults)) + [
        ast.literal_eval(d) for d in args.defaults]
    return [(a.arg, d) for a, d in zip(args.args, defaults)]


@pytest.mark.parametrize("name, module", [
    ("AQPServer", "repro.service.server"),
    ("ShardedJanusAQP", "repro.core.sharded"),
    ("FleetCoordinator", "repro.service.fleet")])
def test_api_doc_prints_constructor_signatures(name, module):
    """The constructor signatures docs/API.md prints equal the code's:
    parameter names and defaults, in order."""
    cls = getattr(importlib.import_module(module), name)
    actual = [(p.name, p.default)
              for p in inspect.signature(cls).parameters.values()]
    assert _documented_signature(name) == actual
