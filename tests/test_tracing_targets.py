"""Every function the benchmark's span tracer wraps still exists.

benchmark/tracing.py replaces "module:attribute" names with timing
wrappers, so a refactor that drops or renames one of them would break a
traced benchmark run (``--trace 1``).  This checks that each name resolves,
and that every import kept only for the tracer still names a wrapped
attribute and is used nowhere else in its module, so an import left behind
when WRAPS moves shows up here, and deleting one never removes a caller.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"
MARKER = "benchmark/tracing.py wraps this name"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = []
    for targets, _ in _load_tracing().WRAPS.values():
        for target in targets:
            module_name, attr = target.split(":")
            if not callable(getattr(importlib.import_module(module_name), attr, None)):
                missing.append(target)
    assert missing == []


def _tracer_imports():
    """(module path, names) of every import marked as kept for the tracer."""
    for path in sorted((ROOT / "src" / "emoverify").glob("*.py")):
        for line in path.read_text().splitlines():
            if MARKER in line:
                names = re.match(r"from \.\w+ import (\w+(?:, \w+)*)  #", line)
                assert names, f"{path.name}: unparsed tracer import {line!r}"
                yield path, names[1].split(", ")


def test_every_tracer_import_is_wrapped():
    wrapped = {target for targets, _ in _load_tracing().WRAPS.values() for target in targets}
    marked = [f"emoverify.{path.stem}:{name}"
              for path, names in _tracer_imports() for name in names]
    assert [target for target in marked if target not in wrapped] == []


def test_every_tracer_import_is_otherwise_unused():
    used = []
    for path, names in _tracer_imports():
        loaded = {node.id for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name)}
        used += [f"{path.stem}:{name}" for name in names if name in loaded]
    assert used == []
