"""The README's Python quick start runs as printed, in a fresh interpreter."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_block() -> str:
    """The first ```python block of the README."""
    match = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert match, "README has no python block"
    return match.group(1)


def test_quick_start_runs_and_ghz_attains_half_norm():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", quick_start_block()],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the first two printed values: the GHZ bound and norm/2
    ghz, half_norm = (float(line.split()[0]) for line in proc.stdout.splitlines()[:2])
    assert abs(ghz - half_norm) <= 1e-12 * abs(half_norm)
