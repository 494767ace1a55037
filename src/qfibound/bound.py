"""Saturable lower bound on the quantum Fisher information.

For a state rho_x with derivative rho'_x, the bound is

    F_down = (rho'|rho') - |(rho|rho')|^2 / (rho|rho)

with the Hilbert-Schmidt inner product (A|B) = tr(A^dag B).  Written at the
channel level with rho_x = Phi(x)[rho_0], the bound over physical initial
states never exceeds half the largest eigenvalue of the Gram matrix
G = Phi'^dag Phi'; for commuting-noise product channels the GHZ projector
attains F_down = ||G|| / 2 exactly below the crossover time.

For an N-fold product of a phase-covariant qubit channel, detected from its
single-site Gram triple, ||G|| and its top eigenspace come in closed form
(:func:`.liouville.covariant_gram_top`); every other family falls back to
the dense N-fold Gram matrix and its eigendecomposition.  The GHZ bound of a
qubit product channel also comes from that triple (:func:`ghz_lower_bound`):
the GHZ projector is a sum of four product operators, so its three inner
products are sums of elementwise powers of 4 x 4 matrices, and nothing of
size 4^N is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidState, NonTraceless, RangeViolation
from .liouville import (
    ChannelFamily,
    _checked_power,
    _gram_arrays,
    _site_maps,
    covariant_gram_top,
    gram_tensor_power,
    gram_triple,
    require_budget,
)
from .numerics import TopEigenspace, _hermiticity_defect, _peak, _scaled, largest_eigval_psd

#: Tolerance of the state checks: on Hermiticity defects, and absolute on a
#: state's trace deviation and negative-eigenvalue excursion.
STATE_TOL = 1e-9

#: A physical state counts as achieving the norm bound when its bound sits
#: within this relative distance of norm/2.
ACHIEVES_RTOL = 1e-9


@dataclass(frozen=True)
class BoundResult:
    """The bound and its two constituents.

    f_lower = term_grad - term_proj, where term_grad = (rho'|rho') and
    term_proj = |(rho|rho')|^2 / (rho|rho); purity = (rho|rho).
    """

    f_lower: float
    term_grad: float
    term_proj: float
    purity: float


@dataclass(frozen=True)
class OptimalStateResult:
    """Norm-maximized bound over initial states.

    norm_bound is ||G|| for the N-fold Gram matrix.  ghz_optimal is True
    when the N-qubit GHZ projector attains the channel bound norm_bound/2;
    its test runs on the single-site Gram triple (:func:`ghz_lower_bound`).
    Both are computed by the call, at any N.

    top_eigenspace is a list of orthonormal Liouville vectors (1-D arrays
    of length d^(2N)) spanning the eigenvectors within 1e-8 relative of
    norm_bound (empty when the norm vanishes).  For a phase-covariant qubit
    family its basis is the closed form's unit and site-wise product
    vectors; for any other family, which takes the dense path, it is the
    eigendecomposition's basis.
    initial_state is the dense GHZ projector when ghz_optimal, else None.
    Both are built on first read and cached; past the dense budget (N > 6
    qubits) that read raises DimensionBudgetExceeded, while norm_bound and
    ghz_optimal stay available.
    """

    norm_bound: float
    ghz_optimal: bool
    n: int
    top: TopEigenspace = field(repr=False, compare=False)

    @cached_property
    def top_eigenspace(self) -> list[np.ndarray]:
        return list(self.top.vectors.T)

    @cached_property
    def initial_state(self) -> np.ndarray | None:
        return ghz_state(self.n) if self.ghz_optimal else None


def _check_density(rho: np.ndarray) -> np.ndarray:
    """rho, once square, finite, Hermitian, of unit trace and PSD to STATE_TOL.
    PSD is a Cholesky factorization of sym(rho) + STATE_TOL I, which exists
    when no eigenvalue is below -STATE_TOL, up to round-off; only when it
    fails does eigvalsh run, to confirm the refusal and name the eigenvalue."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"density matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidState("density matrix has non-finite entries")
    if not _hermiticity_defect(m) <= STATE_TOL:
        raise InvalidState("density matrix is not Hermitian")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > STATE_TOL:
        raise InvalidState(f"density matrix trace {trace:.9g} is not 1")
    sym = (m + m.conj().T) / 2.0
    try:
        np.linalg.cholesky(sym + STATE_TOL * np.eye(len(sym)))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        if min_eig < -STATE_TOL:
            raise InvalidState(f"density matrix has negative eigenvalue {min_eig:.3e}") from None
    return m


def _derivative_tol(prime_peak: float, state_peak: float, dim: int) -> float:
    """The largest Hermiticity or trace defect rho' may carry: STATE_TOL
    max|rho'|, plus dim eps max|rho| for a rho' that is itself round-off of
    the state's size, such as the ECS oracle's at eta = 0."""
    return STATE_TOL * prime_peak + dim * np.finfo(float).eps * state_peak


def _check_derivative(rho_prime: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """rho' as a complex matrix, once it is square, finite, and Hermitian and
    traceless to :func:`_derivative_tol` of it and the checked state rho."""
    m = np.asarray(rho_prime, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"derivative must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidState("derivative has non-finite entries")
    peak = _peak(m)
    tol = _derivative_tol(peak, _peak(rho), len(m))
    if not _hermiticity_defect(m) * peak <= tol:
        raise InvalidState("derivative is not Hermitian")
    trace = complex(np.trace(m))
    if abs(trace) > tol:
        raise NonTraceless(f"derivative trace {trace:.3e} is not 0")
    return m


def _bound_from_vectors(rho_vec: np.ndarray, prime_vec: np.ndarray) -> BoundResult:
    return _bound_from_products(
        term_grad=float(np.vdot(prime_vec, prime_vec).real),
        overlap=complex(np.vdot(rho_vec, prime_vec)),
        purity=float(np.vdot(rho_vec, rho_vec).real),
    )


def _bound_from_products(term_grad: float, overlap: complex, purity: float) -> BoundResult:
    """The bound from (rho'|rho'), (rho|rho') and (rho|rho); InvalidState
    when any of the three is non-finite or the purity is not positive.  A
    negative bound within 1e-12 (rho'|rho') of zero is round-off and reads 0,
    so scaling the three products scales the result."""
    if not (math.isfinite(term_grad) and math.isfinite(abs(overlap)) and math.isfinite(purity)):
        raise InvalidState(
            f"non-finite inner products: (rho'|rho') = {term_grad}, "
            f"(rho|rho') = {overlap}, (rho|rho) = {purity}"
        )
    if purity <= 0.0:
        raise InvalidState("state has vanishing Hilbert-Schmidt norm")
    term_proj = abs(overlap) ** 2 / purity
    f_lower = term_grad - term_proj
    if f_lower < 0.0 and f_lower >= -1e-12 * term_grad:
        f_lower = 0.0
    return BoundResult(
        f_lower=f_lower, term_grad=term_grad, term_proj=term_proj, purity=purity
    )


def lower_bound_from_state(rho: np.ndarray, rho_prime: np.ndarray) -> BoundResult:
    """The bound from an explicit (state, derivative) pair."""
    m = _check_density(rho)
    mp = _check_derivative(rho_prime, m)
    if m.shape != mp.shape:
        raise InvalidState(f"shape mismatch: {m.shape} vs {mp.shape}")
    return _bound_from_vectors(m.reshape(-1), mp.reshape(-1))


def channel_output(family: ChannelFamily, x: float, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi(x)[rho_0], Phi'(x)[rho_0]) for a checked rho_0, in one pass."""
    m = _check_density(rho0)
    rho_vec, prime_vec = family.apply_with_derivative(x, m)
    return rho_vec.reshape(m.shape), prime_vec.reshape(m.shape)


def lower_bound_from_channel(
    family: ChannelFamily, x: float, rho0: np.ndarray
) -> BoundResult:
    """The bound computed at the channel level: rho_x = Phi(x)[rho_0]."""
    rho, rho_prime = channel_output(family, x, rho0)
    return _bound_from_vectors(rho.reshape(-1), rho_prime.reshape(-1))


def associated_qfi(rho: np.ndarray, rho_prime: np.ndarray) -> float:
    """The Liouville-space Fisher information F-tilde.

    F-tilde = 4 [ (rho'|rho')(rho|rho) - (rho'|rho)(rho|rho') ] / (rho|rho)^2,
    which relates to the bound by F_down = (rho|rho) F-tilde / 4.  It is the
    quantity whose finite-difference limit the normalized Bures distance
    reproduces, and it is additive over tensor products.
    """
    result = lower_bound_from_state(rho, rho_prime)
    return 4.0 * result.f_lower / result.purity


def ghz_state(n: int) -> np.ndarray:
    """The N-qubit GHZ projector |GHZ><GHZ|, GHZ = (|0..0> + |1..1>)/sqrt(2)."""
    n = _checked_power(n)
    require_budget(4**n, f"Liouville entries of a GHZ projector on {n} qubits")
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    for i in (0, dim - 1):
        for j in (0, dim - 1):
            rho[i, j] = 0.5
    return rho


def ghz_lower_bound(family: ChannelFamily, x: float, n: int) -> BoundResult:
    """The bound of the N-qubit GHZ projector through the N-fold product of a
    qubit family, from its single-site Gram triple alone.

    Equals ``lower_bound_from_channel(product_family(family, n), x,
    ghz_state(n))`` to round-off, but builds nothing of size 4^N, so N may
    run to the thousands.
    """
    return _ghz_bound(gram_triple(family, x), _checked_power(n))


def _ghz_bound(triple: np.ndarray, n: int) -> BoundResult:
    """The GHZ bound of an N-fold qubit product channel from its Gram triple.

    GHZ = 1/2 sum_k X_k^xN over the four basis operators X_k = |mu><nu|, so
    with g = Phi^dag Phi = a, h = Phi^dag Phi' = c^dag and e = Phi'^dag Phi'
    = b, and powers and products taken elementwise,

        (rho|rho)   = 1/4 sum g^N,
        (rho|rho')  = 1/4 sum N g^(N-1) h,
        (rho'|rho') = 1/4 sum [N g^(N-1) e + N(N-1) g^(N-2) conj(h^T) h].

    where conj(h^T) = c.  The sums run on g / max|g| and the bound is scaled
    back by max|g|^N, so g^N does not underflow at large N.  The g^(N-2)
    term is absent at N = 1.
    """
    if triple.shape[-1] != 4:
        raise DimensionMismatch(
            f"a GHZ state needs a qubit family, got Hilbert dim {math.isqrt(triple.shape[-1])}"
        )
    scale = _peak(triple[0])
    if scale == 0.0:
        raise InvalidState("state has vanishing Hilbert-Schmidt norm")
    g, e, c = _scaled(triple, scale)
    h = c.conj().T
    lead = g ** (n - 1)
    term_grad = n * (lead * e).sum()
    if n > 1:
        term_grad += n * (n - 1) * (g ** (n - 2) * c * h).sum()
    scaled = _bound_from_products(
        term_grad=float(term_grad.real) / 4.0,
        overlap=n * complex((lead * h).sum()) / 4.0,
        purity=float((lead * g).sum().real) / 4.0,
    )
    factor = scale**n
    return BoundResult(
        f_lower=factor * scaled.f_lower,
        term_grad=factor * scaled.term_grad,
        term_proj=factor * scaled.term_proj,
        purity=factor * scaled.purity,
    )


def analytic_max_phase_covariant(n: int, t: float, eta_perp: float) -> float:
    """Closed form of the Gram norm for phase-covariant noise below the
    crossover time: N^2 t^2 eta_perp^(2N)."""
    n = _checked_power(n)
    if not 0.0 <= eta_perp <= 1.0:
        raise RangeViolation(f"eta_perp must lie in [0, 1], got {eta_perp}")
    return float(n) ** 2 * t**2 * eta_perp ** (2 * n)


def max_bound_over_states(family: ChannelFamily, x: float, n: int) -> OptimalStateResult:
    """Norm-maximized bound for the N-fold product of a channel family.

    norm_bound is the largest eigenvalue of the tensor-power Gram matrix;
    over physical initial states the bound attains at most norm_bound / 2.
    A qubit family whose single-site Gram triple is phase covariant (see
    :func:`covariant_gram_top`) takes the closed form, with no N-fold Gram
    matrix, so it answers at N in the thousands; any other family falls
    back to the dense Gram matrix and its eigendecomposition.  For qubit
    families the GHZ projector is tried as the optimal state, its bound
    taken from the same triple (as in :func:`ghz_lower_bound`), and
    ghz_optimal is set when that bound equals norm_bound / 2; otherwise
    initial_state is None.  The top eigenvectors and the GHZ projector are
    built only when the result's top_eigenspace and initial_state are read.

    The norm and the GHZ test run on the triple of Phi' / 2^m, with 2^m the
    power of two at or below max|Phi'|, scaled before b and c are formed so
    that a subnormal G keeps its digits; only the returned norm_bound is
    scaled back.
    """
    n = _checked_power(n)
    phi, dphi, _ = _site_maps(family, x)
    m = math.frexp(_peak(dphi))[1] - 1
    triple = _gram_arrays(phi, _scaled(dphi, math.ldexp(1.0, m)))
    top = covariant_gram_top(triple, n)
    if top is None:
        top = largest_eigval_psd(gram_tensor_power(triple, n))
    ghz_optimal = False
    if top.value > 0.0 and triple.shape[-1] == 4:
        target = top.value / 2.0
        ghz_optimal = abs(_ghz_bound(triple, n).f_lower - target) <= ACHIEVES_RTOL * target
    top = TopEigenspace(value=math.ldexp(top.value, 2 * m), build=top.build)
    return OptimalStateResult(norm_bound=top.value, ghz_optimal=ghz_optimal, n=n, top=top)
