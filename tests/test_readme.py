"""The README's Python quick start runs as printed, in a fresh interpreter,
and the precision it states for the ECS oracle is the measured one."""
from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

from qfibound.channels import EcsSpec
from qfibound.metrology import ecs_lower_bound_closed, ecs_lower_bound_numeric

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


def oracle_precision_claim() -> float:
    """The largest number written as ``<m>e-<k>`` in the README's sentence on
    the precision of the ECS oracle."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"reproduces the closed form to round-off:(.*?)\n\n", text, re.S)
    assert match, "README states no precision for the ECS oracle"
    bounds = [float(b) for b in re.findall(r"\d+(?:\.\d+)?e-\d+", match.group(1))]
    assert bounds, match.group(1)
    return max(bounds)


def test_oracle_precision_is_the_measured_one():
    # over the README's grid the stated bound holds and is no looser than 100
    # times the worst error measured, so a claim the oracle has outgrown fails
    bound = oracle_precision_claim()
    worst = 0.0
    for alpha_sq in (9.0, 100.0, 400.0):
        spec = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
            closed = ecs_lower_bound_closed(spec, eta).f_lower
            worst = max(worst, abs(ecs_lower_bound_numeric(spec, eta) - closed) / closed)
    assert worst <= bound
    assert bound <= 100.0 * worst
