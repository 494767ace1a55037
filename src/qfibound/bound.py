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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    NonTraceless,
    NoPhysicalState,
    ZeroOperator,
)
from .liouville import (
    ChannelFamily,
    GramTriple,
    _checked_power,
    covariant_gram_top,
    gram_tensor_power,
    gram_triple,
    require_budget,
)
from .numerics import TopEigenspace, _within_top, largest_eigval_psd

#: Absolute tolerance on density-matrix checks (Hermiticity defect, trace
#: deviation, negative-eigenvalue excursion).
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

    norm_bound is ||G|| for the N-fold Gram matrix; top_eigenspace is a
    list of orthonormal Liouville vectors (1-D arrays of length d^(2N))
    spanning the eigenvectors within 1e-8 relative of norm_bound (empty
    when the norm vanishes).  For a phase-covariant qubit family its basis
    is the closed form's unit and site-wise product vectors; for any other
    family, which takes the dense path, it is the eigendecomposition's
    basis.
    initial_state is a physical density matrix whose channel bound equals
    norm_bound/2 (the GHZ projector for commuting qubit noise) or None when
    no such state was found.  The GHZ candidate is tested from the
    single-site Gram triple (:func:`ghz_lower_bound`), and the dense
    projector is built only when it is returned.
    """

    norm_bound: float
    top_eigenspace: list[np.ndarray]
    initial_state: np.ndarray | None


def _check_density(rho: np.ndarray, *, tol: float = STATE_TOL) -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"density matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidState("density matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise InvalidState("density matrix is not Hermitian")
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > tol:
        raise InvalidState(f"density matrix trace {trace:.9g} is not 1")
    sym = (m + m.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig < -tol:
        raise InvalidState(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return m


def _check_derivative(rho_prime: np.ndarray, *, tol: float = STATE_TOL) -> np.ndarray:
    m = np.asarray(rho_prime, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidState(f"derivative must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidState("derivative has non-finite entries")
    scale = max(float(np.max(np.abs(m))), 1.0)
    if np.max(np.abs(m - m.conj().T)) > tol * scale:
        raise InvalidState("derivative is not Hermitian")
    trace = complex(np.trace(m))
    if abs(trace) > tol * scale:
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
    when any of the three is non-finite or the purity is not positive."""
    if not (math.isfinite(term_grad) and math.isfinite(abs(overlap)) and math.isfinite(purity)):
        raise InvalidState(
            f"non-finite inner products: (rho'|rho') = {term_grad}, "
            f"(rho|rho') = {overlap}, (rho|rho) = {purity}"
        )
    if purity <= 0.0:
        raise InvalidState("state has vanishing Hilbert-Schmidt norm")
    term_proj = abs(overlap) ** 2 / purity
    f_lower = term_grad - term_proj
    if f_lower < 0.0 and f_lower >= -1e-12 * max(term_grad, 1.0):
        f_lower = 0.0
    return BoundResult(
        f_lower=f_lower, term_grad=term_grad, term_proj=term_proj, purity=purity
    )


def lower_bound_from_state(rho: np.ndarray, rho_prime: np.ndarray) -> BoundResult:
    """The bound from an explicit (state, derivative) pair."""
    m = _check_density(rho)
    mp = _check_derivative(rho_prime)
    if m.shape != mp.shape:
        raise InvalidState(f"shape mismatch: {m.shape} vs {mp.shape}")
    return _bound_from_vectors(m.reshape(-1), mp.reshape(-1))


def lower_bound_from_factor(v: np.ndarray, v_prime: np.ndarray) -> BoundResult:
    """The bound for rho = V V^dag and rho' = V' V^dag + V V'^dag, never forming rho.

    V and V' are dim x k.  With the k x k matrices A = V^dag V, B = V^dag V'
    and C = V'^dag V', the inner products are (rho|rho) = ||A||_F^2,
    (rho|rho') = 2 Re tr(AB) and (rho'|rho') = 2 Re tr(B^2) + 2 tr(AC), with
    tr(AC) = (V'|V' A) so that C is never formed.  rho and rho' are
    Hermitian and rho is PSD by construction, so of the checks of
    :func:`lower_bound_from_state` the finite entries and the two traces
    remain: tr rho = ||V||_F^2 and tr rho' = 2 Re tr B.  Finiteness is read
    off the squared norms ||V||_F^2 and ||V'||_F^2, which a NaN or infinite
    entry (or an overflowing sum) makes non-finite, so no pass over the
    entries is spent on it.  Besides V and V', the call holds at most three
    k x k matrices and one dim x k copy.
    """
    f = np.asarray(v, dtype=complex)
    fp = np.asarray(v_prime, dtype=complex)
    if f.ndim != 2 or f.shape != fp.shape:
        raise InvalidState(f"factors must be matrices of one shape, got {f.shape} and {fp.shape}")
    trace = float(np.vdot(f, f).real)
    for name, norm_sq in (("state", trace), ("derivative", float(np.vdot(fp, fp).real))):
        if not math.isfinite(norm_sq):
            raise InvalidState(f"{name} factor has non-finite entries or norm")
    if abs(trace - 1.0) > STATE_TOL:
        raise InvalidState(f"density matrix trace {trace:.9g} is not 1")
    f_dag = f.conj().T
    a = f_dag @ f
    b = f_dag @ fp
    del f_dag
    prime_trace = 2.0 * float(np.trace(b).real)
    if abs(prime_trace) > STATE_TOL:
        raise NonTraceless(f"derivative trace {prime_trace:.3e} is not 0")
    # tr(XY) = vdot(X, Y) for Hermitian X; tr(B^2) = sum_ij B_ij B_ji
    return _bound_from_products(
        term_grad=2.0 * float(np.sum(b * b.T).real + np.vdot(fp, fp @ a).real),
        overlap=2.0 * float(np.vdot(a, b).real),
        purity=float(np.vdot(a, a).real),
    )


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
        scale = float(np.max(np.abs(m)))
        if scale == 0.0:
            raise ZeroOperator(f"{name} is the zero operator")
        if np.max(np.abs(m - m.conj().T)) > STATE_TOL * scale:
            raise InvalidState(f"{name} is not Hermitian")
    if a.shape != b.shape:
        raise InvalidState(f"shape mismatch: {a.shape} vs {b.shape}")
    va, vb = a.reshape(-1), b.reshape(-1)
    na = float(np.vdot(va, va).real)
    nb = float(np.vdot(vb, vb).real)
    overlap = abs(complex(np.vdot(va, vb))) / np.sqrt(na * nb)
    return 2.0 * (1.0 - min(overlap, 1.0))


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


def _ghz_bound(triple: GramTriple, n: int) -> BoundResult:
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
    if triple.a.hilbert_dim != 2:
        raise DimensionMismatch(
            f"a GHZ state needs a qubit family, got Hilbert dim {triple.a.hilbert_dim}"
        )
    scale = float(np.max(np.abs(triple.a.matrix)))
    if scale == 0.0:
        raise InvalidState("state has vanishing Hilbert-Schmidt norm")
    g, e, c = (op.matrix / scale for op in (triple.a, triple.b, triple.c))
    h = c.conj().T
    lead = g ** (n - 1)
    term_grad = n * np.sum(lead * e)
    if n > 1:
        term_grad += n * (n - 1) * np.sum(g ** (n - 2) * c * h)
    scaled = _bound_from_products(
        term_grad=float(term_grad.real) / 4.0,
        overlap=n * complex(np.sum(lead * h)) / 4.0,
        purity=float(np.sum(lead * g).real) / 4.0,
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
        raise ValueError(f"eta_perp must lie in [0, 1], got {eta_perp}")
    return float(n) ** 2 * t**2 * eta_perp ** (2 * n)


def max_bound_over_states(
    family: ChannelFamily, x: float, n: int, *, require_state: bool = False
) -> OptimalStateResult:
    """Norm-maximized bound for the N-fold product of a channel family.

    norm_bound is the largest eigenvalue of the tensor-power Gram matrix;
    over physical initial states the bound attains at most norm_bound / 2.
    A qubit family whose single-site Gram triple is phase covariant (see
    :func:`covariant_gram_top`) takes the closed form, with no N-fold Gram
    matrix; any other family falls back to the dense Gram matrix and its
    eigendecomposition.  For qubit families the GHZ projector is tried as
    the optimal state, its bound taken from the same triple (as in
    :func:`ghz_lower_bound`), and returned when that bound equals
    norm_bound / 2; otherwise initial_state is None (or, with
    require_state=True, NoPhysicalState is raised).
    """
    n = _checked_power(n)
    triple = gram_triple(family, x)
    top = covariant_gram_top(triple, n)
    if top is None:
        gram = gram_tensor_power(triple, n)
        top = _diagonal_top(gram.diag) if gram.is_diagonal else largest_eigval_psd(gram.matrix)
    norm_bound = top.value
    vectors = list(top.vectors.T) if norm_bound > 0.0 else []
    initial_state: np.ndarray | None = None
    if norm_bound > 0.0 and triple.a.hilbert_dim == 2:
        target = norm_bound / 2.0
        if abs(_ghz_bound(triple, n).f_lower - target) <= ACHIEVES_RTOL * target:
            initial_state = ghz_state(n)
    if require_state and initial_state is None and norm_bound > 0.0:
        raise NoPhysicalState(
            "no physical initial state achieving norm_bound/2 was constructed"
        )
    return OptimalStateResult(
        norm_bound=norm_bound, top_eigenspace=vectors, initial_state=initial_state
    )


def _diagonal_top(values: np.ndarray) -> TopEigenspace:
    """The top eigenpair of a diagonal Gram matrix, as unit vectors."""
    if np.max(np.abs(values.imag)) > 1e-12 * max(float(np.max(np.abs(values))), 1.0):
        raise InvalidState("Gram diagonal has a non-real entry")
    values = values.real
    top = float(np.max(values)) if values.size else 0.0
    idx = np.flatnonzero(_within_top(values, top)) if top > 0.0 else np.arange(0)
    vectors = np.zeros((values.size, idx.size))
    vectors[idx, np.arange(idx.size)] = 1.0
    return TopEigenspace(value=top, vectors=vectors)
