"""Every function the benchmark's span tracer wraps still exists.

benchmark/tracing.py replaces "module:attribute" names with timing
wrappers, so a refactor that drops or renames one of them would break a
traced benchmark run (``--trace 1``).  This checks that each name resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


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
