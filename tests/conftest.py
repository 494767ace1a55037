from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"

# The verify report's max_violation values are measured floating-point
# round-off: their digits move with the BLAS build and its thread count.
# Every other byte of every golden file is deterministic.
_MAX_VIOLATION = re.compile(rb'"max_violation": [^,}]+')
_MAX_VIOLATION_MASK = b'"max_violation": <measured>'


def assert_matches_golden(name: str, got: bytes) -> None:
    """Compare CLI output with ``tests/golden/<name>`` byte for byte.

    In ``verify.json`` the measured max_violation values are masked on both
    sides, one per check, and each is gated by its tolerance instead.
    """
    want = (GOLDEN / name).read_bytes()
    if name != "verify.json":
        assert got == want, f"{name} is not byte-identical to the committed golden file"
        return
    checks = json.loads(got)["checks"]
    got_masked, got_count = _MAX_VIOLATION.subn(_MAX_VIOLATION_MASK, got)
    want_masked, want_count = _MAX_VIOLATION.subn(_MAX_VIOLATION_MASK, want)
    assert got_count == len(checks)
    assert want_count == len(json.loads(want)["checks"])
    assert got_masked == want_masked, (
        f"{name} is not byte-identical to the committed golden file "
        "outside the measured max_violation values"
    )
    for check in checks:
        value = check["max_violation"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), check
        assert math.isfinite(value) and value <= check["tolerance"], check


def projector_distance(u: np.ndarray, v: np.ndarray) -> float:
    """||U U^dag - V V^dag||_F for two matrices of orthonormal columns.

    Its square is ||(1 - U U^dag) V||_F^2 + ||(1 - V V^dag) U||_F^2; the two
    residuals are formed directly, since k_U + k_V - 2 ||U^dag V||_F^2
    cancels to round-off and would leave a distance of order 1e-8.
    """
    residual_v = v - u @ (u.conj().T @ v)
    residual_u = u - v @ (v.conj().T @ u)
    return math.hypot(np.linalg.norm(residual_v), np.linalg.norm(residual_u))


@pytest.fixture
def golden_check():
    """The golden-file comparison, shared by the CLI and acceptance suites."""
    return assert_matches_golden


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
