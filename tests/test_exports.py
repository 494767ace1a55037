"""``qfibound/__init__.py`` builds its namespace and ``__all__`` from one
table, submodule -> names; every exported name must resolve, and appear once.
Every exported name must have a use outside the tests, or a stated reason to
stay public.  The benchmark's tracer must be able to wrap the package after a
bare ``import qfibound``."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import qfibound

ROOT = Path(__file__).resolve().parents[1]

#: Exported names that only the tests call, each with its reason to stay
#: public.  Code that only the tests need otherwise lives in ``tests/``.
TEST_ONLY_EXPORTS = {
    "classical_bound": "the paper's optimal measurement; an acceptance criterion tests it",
    "optimal_povm_from_rho_prime": "the paper's optimal measurement; an acceptance criterion tests it",
    "random_noisy_family": "the non-covariant family planned for a benchmark workload",
}

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


def names_used_outside_tests() -> set[str]:
    """Names loaded or read as attributes by the code of ``src/`` (outside
    ``__init__.py``, so a definition or an export alone does not count),
    and every word of README.md and of ``benchmarks/``."""
    used: set[str] = set()
    for path in (ROOT / "src" / "qfibound").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in (ROOT / "README.md", *(ROOT / "benchmarks").glob("*.py")):
        used.update(re.findall(r"\w+", path.read_text()))
    return used


def test_every_export_is_used_outside_tests():
    used = names_used_outside_tests()
    unused = sorted(set(qfibound.__all__) - used - set(TEST_ONLY_EXPORTS))
    assert not unused, f"exported names that only tests use; move them into tests/: {unused}"
    assert set(TEST_ONLY_EXPORTS) <= set(qfibound.__all__)
    stale = sorted(set(TEST_ONLY_EXPORTS) & used)
    assert not stale, f"exceptions that now have a use outside tests: {stale}"


def test_tracer_installs_after_a_bare_package_import():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_AFTER_IMPORT, str(ROOT / "benchmarks" / "tracing.py")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
