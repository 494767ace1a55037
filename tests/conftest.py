from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import pytest

from qfibound.bound import STATE_TOL, BoundResult, _bound_from_products, _check_density, _derivative_tol
from qfibound.channels import (
    EcsSpec,
    NoiseParams,
    _correlated_derivative,
    _correlated_phase,
    _require_rate,
    params_at,
)
from qfibound.errors import (
    CptpViolation,
    DimensionMismatch,
    InvalidState,
    NegativeSpectrum,
    NonSquare,
    NonTraceless,
    RangeViolation,
)
from qfibound.liouville import require_budget
from qfibound.metrology import ecs_practical_forms
from qfibound.numerics import PSD_CLIP_RTOL, _hermiticity_defect, _peak, _scaled, herm_eig
from qfibound.sampling import random_short_time_model

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


# ---------------------------------------------------------------------------
# helpers that only the tests call: operator <-> Liouville vector, the
# pure-state QFI, random physical noise parameters and the practical-tier
# ECS bound


def vectorize(a: np.ndarray) -> np.ndarray:
    """Flatten a square operator into its Liouville vector, a row-major copy."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square operator, got shape {m.shape}")
    return m.reshape(-1).copy()


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`: the d x d operator of a length-d^2 vector."""
    amps = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(amps.size)
    if d * d != amps.size:
        raise DimensionMismatch(f"{amps.size} amplitudes do not fill a square operator")
    return amps.reshape(d, d).copy()


def pure_state_qfi(psi: np.ndarray, psi_prime: np.ndarray) -> float:
    """Textbook pure-state formula 4 (<psi'|psi'> - |<psi|psi'>|^2)."""
    a = np.asarray(psi, dtype=complex).reshape(-1)
    b = np.asarray(psi_prime, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise DimensionMismatch(f"dimension mismatch: {a.size} vs {b.size}")
    return 4.0 * float(np.vdot(b, b).real - abs(np.vdot(a, b)) ** 2)


def random_cptp_params(rng: np.random.Generator, t: float) -> NoiseParams:
    """Rejection-sample a CPTP-valid phase-covariant parameter set at time t,
    in at most 200 draws."""
    for _ in range(200):
        model = random_short_time_model(rng)
        try:
            return params_at(model, t, theta=float(rng.uniform(0.0, 2.0 * np.pi)))
        except (CptpViolation, RangeViolation):
            continue
    raise CptpViolation("no CPTP parameter set found in 200 draws")


def ecs_lower_bound_practical(spec: EcsSpec, eta: float) -> float:
    """Bound assembled from the practical-tier f_C and f_H."""
    f_c, f_h = ecs_practical_forms(spec, eta)
    n_eta = spec.mean_photons * eta
    return 2.0 * n_eta * f_c + n_eta**2 * f_h


@pytest.fixture
def golden_check():
    """The golden-file comparison, shared by the CLI and acceptance suites."""
    return assert_matches_golden


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def finite_diff(family, x: float, h: float = 1e-6) -> np.ndarray:
    """Central difference (Phi(x+h) - Phi(x-h)) / 2h of a channel family:
    the oracle that every analytic ``derivative`` is checked against."""
    return (family.evaluate(x + h) - family.evaluate(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# correlated dephasing on N two-atom probes, as the dense 16^N diagonal: the
# oracle that the charge grid of ``metrology.correlated_gram_max`` is checked
# against.  Its entries are the package's own ``channels._correlated_phase``.


def correlated_alphas(n_probes: int) -> tuple[np.ndarray, np.ndarray]:
    """Charges (alpha1, alpha2) for every |mu><nu| on 2N qubits.

    alpha1 collects mu_i - nu_i over the first atom of each probe (the odd
    bits, counting from the least significant), alpha2 over the second
    atoms; each is the count of that atom's set bits in mu less the count in
    nu.  The 16^N entries are held to the dense budget.
    """
    dim = 4**n_probes
    require_budget(dim * dim, f"diagonal entries of correlated dephasing on {n_probes} probes")
    first = int("10" * n_probes, 2)
    counts = (np.bitwise_count(np.arange(dim) & m).astype(np.int64) for m in (first, first >> 1))
    alpha1, alpha2 = (np.subtract.outer(s, s).reshape(-1) for s in counts)
    return alpha1, alpha2


def correlated_dephasing_diag(
    n_probes: int, omega1: float, omega2: float, gamma: float, t: float
) -> np.ndarray:
    """The diagonal of the correlated-dephasing channel on N two-atom probes:
    e^{i(alpha1 w1 + alpha2 w2) t - alpha^2 gamma t}, alpha = alpha1 +
    alpha2.  gamma < 0 or t < 0 raises RangeViolation."""
    _require_rate(gamma, t, "dephasing rate")
    return _correlated_phase(*correlated_alphas(n_probes), omega1, omega2, gamma, t)


def correlated_dephasing_family(
    n_probes: int, omega2: float, gamma: float, t: float
) -> tuple[Callable[[float], np.ndarray], Callable[[float], np.ndarray]]:
    """(evaluate, derivative): the diagonals of the channel and of its
    derivative in w_bar = w1 - w2, w2 held fixed.  Each entry depends on
    w_bar only through e^{i alpha1 w_bar t}, so the derivative multiplies by
    i alpha1 t.  The charges are computed once per family."""
    _require_rate(gamma, t, "dephasing rate")
    alphas = correlated_alphas(n_probes)

    def evaluate(omega_bar: float) -> np.ndarray:
        return _correlated_phase(*alphas, omega_bar + omega2, omega2, gamma, t)

    def derivative(omega_bar: float) -> np.ndarray:
        return _correlated_derivative(*alphas, omega_bar + omega2, omega2, gamma, t)

    return evaluate, derivative


# ---------------------------------------------------------------------------
# photon loss as its binomial weight table, from the row recurrence: the
# oracle that the Kraus diagonals of ``channels._kraus_diagonals`` and the
# anti-diagonal Gram sweep of ``metrology._gram_sweep`` (through W W^T) are
# checked against


def loss_weight_rows(n_max: int, eta: float, max_level: int) -> Iterator[np.ndarray]:
    """Yield W[k, :max_level+1] for k = 0..n_max, where W[k, l] =
    C(k, l) eta^{k-l} (1-eta)^l is the chance that k photons lose l (0 for l > k).

    Each row follows from the last by W[k, l] = eta W[k-1, l] + (1-eta) W[k-1, l-1],
    written as eta times the row plus (1-eta) times the row shifted one level
    up, into one new array per row: no row yielded earlier is changed.  The
    entries stay in [0, 1], so nothing overflows at any photon number.
    """
    row = np.eye(1, max_level + 1)[0]
    for _ in range(n_max):
        yield row
        nxt = eta * row
        nxt[1:] += (1.0 - eta) * row[:-1]
        row = nxt
    yield row


def loss_weights(n_max: int, eta: float) -> np.ndarray:
    """The (n_max+1)^2 matrix W of :func:`loss_weight_rows`, its rows written
    in turn into one preallocated table."""
    rows = loss_weight_rows(n_max, eta, n_max)
    return np.fromiter(rows, np.dtype((float, n_max + 1)), count=n_max + 1)


def recurrence_kraus(n_max: int, eta: float) -> list[np.ndarray]:
    """The loss Kraus operators K_l |k> = sqrt(W[k, l]) |k-l>, from the
    square root of :func:`loss_weights`."""
    root = np.sqrt(loss_weights(n_max, eta))
    return [np.diag(root[level:, level], k=level) for level in range(n_max + 1)]


# ---------------------------------------------------------------------------
# Bures distances: the finite-difference route to the QFI that the
# acceptance criterion on the Bures distance checks the bound against


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in ``[-1e-9 * lambda_max, 0)`` are clipped to zero;
    genuinely negative spectra raise :class:`NegativeSpectrum`.
    """
    eigenvalues, v = herm_eig(m)
    top = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    floor = -PSD_CLIP_RTOL * max(abs(top), 1e-300)
    if float(eigenvalues[0]) < floor:
        raise NegativeSpectrum(f"matrix is not PSD: min eigenvalue {eigenvalues[0]:.3e}")
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    return (v * np.sqrt(eigenvalues)) @ v.conj().T


def bures_distance_exact(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Exact Bures distance squared: 2 (1 - tr sqrt(sqrt(a) b sqrt(a)))."""
    a = _check_density(rho_a)
    b = _check_density(rho_b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    root_a = psd_sqrt(a)
    inner = root_a @ b @ root_a
    inner = (inner + inner.conj().T) / 2.0
    fidelity_root = float(np.trace(psd_sqrt(inner)).real)
    d2 = 2.0 * (1.0 - min(fidelity_root, 1.0))
    return max(d2, 0.0)


def bures_distance_liouville(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Bures-type distance between normalized Liouville vectors.

    d^2 = 2 (1 - |(rho_a|rho_b)| / sqrt((rho_a|rho_a)(rho_b|rho_b))), the
    pure-state overlap formula applied to operators as unit vectors.
    """
    a = np.asarray(rho_a, dtype=complex)
    b = np.asarray(rho_b, dtype=complex)
    for name, m in (("rho_a", a), ("rho_b", b)):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidState(f"{name} must be a square matrix, got {m.shape}")
        if not m.any():
            raise InvalidState(f"{name} is the zero operator")
        if not _hermiticity_defect(m) <= STATE_TOL:
            raise InvalidState(f"{name} is not Hermitian")
    if a.shape != b.shape:
        raise InvalidState(f"shape mismatch: {a.shape} vs {b.shape}")
    # on m / max|m|, so that no inner product overflows or underflows
    va, vb = (_scaled(m, _peak(m)).reshape(-1) for m in (a, b))
    na = float(np.vdot(va, va).real)
    nb = float(np.vdot(vb, vb).real)
    overlap = abs(complex(np.vdot(va, vb))) / np.sqrt(na * nb)
    return 2.0 * (1.0 - min(overlap, 1.0))


# ---------------------------------------------------------------------------
# the bound from a Kraus-branch factor V of rho = V V^dag and its derivative
# V': the oracle that the ECS bound, read off rho and the phase commutator
# rho' = -i [n_a, rho], is checked against at sizes the dense Kraus assembly
# cannot reach


def lower_bound_from_factor(v: np.ndarray, v_prime: np.ndarray) -> BoundResult:
    """The bound for rho = V V^dag and rho' = V' V^dag + V V'^dag, never forming rho.

    V and V' are dim x k.  With the k x k matrices A = V^dag V, B = V^dag V'
    and C = V'^dag V', the inner products are (rho|rho) = ||A||_F^2,
    (rho|rho') = 2 Re tr(AB) and (rho'|rho') = 2 Re tr(B^2) + 2 tr(AC), with
    tr(AC) = (V'|V' A) so that C is never formed.  rho and rho' are
    Hermitian and rho is PSD by construction, so of the checks of
    :func:`lower_bound_from_state` the finite entries and the two traces
    remain: tr rho = ||V||_F^2 and tr rho' = 2 Re tr B, the latter with
    max|rho'| <= 2 ||V||_F ||V'||_F and max|rho| <= tr rho.  Finiteness is read
    off the squared norms ||V||_F^2 and ||V'||_F^2, which a NaN or infinite
    entry (or an overflowing sum) makes non-finite, so no pass over the
    entries is spent on it.
    """
    f = np.asarray(v, dtype=complex)
    fp = np.asarray(v_prime, dtype=complex)
    if f.ndim != 2 or f.shape != fp.shape:
        raise InvalidState(f"factors must be matrices of one shape, got {f.shape} and {fp.shape}")
    trace = float(np.vdot(f, f).real)
    prime_sq = float(np.vdot(fp, fp).real)
    for name, norm_sq in (("state", trace), ("derivative", prime_sq)):
        if not math.isfinite(norm_sq):
            raise InvalidState(f"{name} factor has non-finite entries or norm")
    if abs(trace - 1.0) > STATE_TOL:
        raise InvalidState(f"density matrix trace {trace:.9g} is not 1")
    f_dag = f.conj().T
    a = f_dag @ f
    b = f_dag @ fp
    del f_dag
    prime_trace = 2.0 * float(np.trace(b).real)
    if abs(prime_trace) > _derivative_tol(2.0 * math.sqrt(trace * prime_sq), trace, len(f)):
        raise NonTraceless(f"derivative trace {prime_trace:.3e} is not 0")
    # tr(XY) = vdot(X, Y) for Hermitian X; tr(B^2) = sum_ij B_ij B_ji
    return _bound_from_products(
        term_grad=2.0 * float(np.sum(b * b.T).real + np.vdot(fp, fp @ a).real),
        overlap=2.0 * float(np.vdot(a, b).real),
        purity=float(np.vdot(a, a).real),
    )
