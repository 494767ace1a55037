"""The benchmark's tracer wraps package functions by name; each must exist.

``benchmarks/tracing.py`` looks the names up only when a traced run starts,
so a function renamed or deleted under ``src/`` would otherwise surface as a
failed ``benchmarks/run.py --trace 1``, not as a failed test.
"""
from __future__ import annotations

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing() -> types.ModuleType:
    # compiled from its text, so no bytecode cache is written beside it
    module = types.ModuleType("benchmark_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_a_package_callable():
    names = [*load_tracing()._PACKAGE, "cli.render_csv", "cli.render_json"]
    missing = []
    for name in names:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"qfibound.{module}"), attr, None)):
            missing.append(name)
    assert not missing, f"traced names with no callable in qfibound: {missing}"
