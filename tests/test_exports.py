"""``qfibound/__init__.py`` builds its namespace and ``__all__`` from one
table, submodule -> names; every exported name must resolve, and appear once.
The benchmark's tracer must be able to wrap the package after a bare
``import qfibound``."""
from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qfibound

ROOT = Path(__file__).resolve().parents[1]

# A fresh interpreter that imports only the package, then loads
# benchmarks/tracing.py the way tests/test_benchmark_tracer.py does, compiled
# from its text so no bytecode is written beside it, and installs a tracer.
_INSTALL_AFTER_IMPORT = """
import sys, types
import qfibound
path = sys.argv[1]
tracing = types.ModuleType("benchmark_tracing")
tracing.__file__ = path
exec(compile(open(path).read(), path, "exec"), tracing.__dict__)
tracing.install(tracing.Tracer())
"""


def test_every_export_resolves_once():
    missing = [name for name in qfibound.__all__ if not hasattr(qfibound, name)]
    assert not missing, f"names in __all__ that qfibound does not define: {missing}"
    repeated = sorted(name for name, count in Counter(qfibound.__all__).items() if count > 1)
    assert not repeated, f"names listed more than once in __all__: {repeated}"


def test_tracer_installs_after_a_bare_package_import():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_AFTER_IMPORT, str(ROOT / "benchmarks" / "tracing.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
