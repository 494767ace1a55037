"""Operator vectorization and superoperator machinery.

Operators on a d-dimensional Hilbert space are flattened row-major, so the
basis element |mu><nu| sits at index mu*d + nu; a Liouville vector is that
plain 1-D complex array.  Channels become d^2 x d^2 matrices
("superoperators") acting on these vectors.  An N-fold product
channel acts on a composite vector site by site, on axes (i, N+i) of the
vector reshaped to (mu_1..mu_N, nu_1..nu_N); its dense Kronecker power
needs an index permutation relative to the naive one (see :func:`tensor_power`).

The Gram matrix of a differentiable channel family x -> Phi(x) is
G = Phi'^dag Phi'.  For an N-fold product channel the product rule expands
G into N single-site terms plus N(N-1) cross terms; :func:`gram_tensor_power`
assembles that expansion from the single-site Gram triple without ever
differentiating the N-site channel directly.  For a phase-covariant qubit
triple, :func:`covariant_gram_top` gives the top eigenpair of that matrix in
closed form without building it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .errors import (
    CompletenessViolation,
    DimensionBudgetExceeded,
    DimensionMismatch,
    NonHermitian,
    NonSquare,
)
from .numerics import HERMITICITY_RTOL, TopEigenspace, _peak, _within_top

#: Basis convention tag carried by every Superoperator.
BASIS_TAG = "row-major |mu><nu|"

#: Dense Liouville-space matrices are capped at this many rows
#: (4096 = six qubits); larger systems must use diagonal representations.
MAX_DENSE_ROWS = 4096

#: Default central-difference step for channel derivatives.
DEFAULT_FD_STEP = 1e-6


def vectorize(a: np.ndarray) -> np.ndarray:
    """Flatten a square operator into its Liouville vector, a row-major copy."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square operator, got shape {m.shape}")
    return m.reshape(-1).copy()


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`: the d x d operator of a length-d^2 vector."""
    amps = _amplitudes(v)
    d = math.isqrt(amps.size)
    if d * d != amps.size:
        raise DimensionMismatch(f"{amps.size} amplitudes do not fill a square operator")
    return amps.reshape(d, d).copy()


def _amplitudes(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(-1)


def liouville_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product (a|b) = tr(A^dag B).

    ``a`` and ``b`` may be Liouville vectors or the operators themselves:
    both are flattened row-major, so (vectorize(A)|vectorize(B)) = (A|B).
    """
    x, y = _amplitudes(a), _amplitudes(b)
    if x.size != y.size:
        raise DimensionMismatch(f"dimension mismatch: {x.size} vs {y.size}")
    return complex(np.vdot(x, y))


class Superoperator:
    """A linear map on vectorized operators.

    Either a dense ``matrix`` or, for maps that are diagonal in the
    |mu><nu| basis, a ``diag`` vector may be supplied; the diagonal
    representation keeps tensor powers cheap.  ``trace_preserving=True``
    asserts the map's dual fixes the identity, which is verified at
    construction time.
    """

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        *,
        diag: np.ndarray | None = None,
        hilbert_dim: int | None = None,
        trace_preserving: bool = False,
    ) -> None:
        if (matrix is None) == (diag is None):
            raise ValueError("supply exactly one of matrix= or diag=")
        if matrix is not None:
            m = np.asarray(matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise NonSquare(f"superoperator matrix must be square, got {m.shape}")
            rows = m.shape[0]
        else:
            m = None
            diag = np.asarray(diag, dtype=complex).reshape(-1)
            rows = diag.size
        d = math.isqrt(rows)
        if d * d != rows:
            raise DimensionMismatch(
                f"superoperator of size {rows} is not a perfect-square dimension"
            )
        if hilbert_dim is not None and hilbert_dim != d:
            raise DimensionMismatch(
                f"hilbert_dim {hilbert_dim} inconsistent with matrix size {rows}"
            )
        self._matrix = m
        self._diag = diag if m is None else None
        self.hilbert_dim = d
        self.basis = BASIS_TAG
        self.trace_preserving = bool(trace_preserving)
        if self.trace_preserving:
            self._check_trace_preserving()

    def _check_trace_preserving(self, tol: float = 1e-10) -> None:
        ident = vectorize(np.eye(self.hilbert_dim))
        dual_on_ident = self.dagger().apply(ident)
        defect = float(np.max(np.abs(dual_on_ident - ident)))
        if not defect <= tol:  # a NaN defect fails too
            raise CompletenessViolation(
                f"map flagged trace-preserving but dual moves identity by {defect:.3e}"
            )

    # -- representations ----------------------------------------------------

    @property
    def is_diagonal(self) -> bool:
        return self._diag is not None

    @property
    def diag(self) -> np.ndarray:
        if self._diag is not None:
            return self._diag
        return np.diagonal(self._matrix).copy()

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is not None:
            return self._matrix
        return np.diag(self._diag)

    # -- algebra ------------------------------------------------------------

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the map to a vectorized operator."""
        amps = _amplitudes(v)
        if amps.size != (self.hilbert_dim**2):
            raise DimensionMismatch(
                f"vector of length {amps.size} does not match Hilbert dim {self.hilbert_dim}"
            )
        return self._diag * amps if self._diag is not None else self._matrix @ amps

    def dagger(self) -> "Superoperator":
        return _superop((self._diag if self.is_diagonal else self._matrix).conj().T)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """The map self . other (other acts first)."""
        if self.hilbert_dim != other.hilbert_dim:
            raise DimensionMismatch(
                f"cannot compose maps on dims {self.hilbert_dim} and {other.hilbert_dim}"
            )
        a, b = _site_arrays(self, other)
        tp = self.trace_preserving and other.trace_preserving
        return _superop(a * b if a.ndim == 1 else a @ b, tp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "diagonal" if self.is_diagonal else "dense"
        return f"Superoperator({kind}, hilbert_dim={self.hilbert_dim})"


def _superop(arr: np.ndarray, trace_preserving: bool = False) -> Superoperator:
    """The map whose diagonal (1-D) or dense matrix (2-D) is ``arr``."""
    if arr.ndim == 1:
        return Superoperator(diag=arr, trace_preserving=trace_preserving)
    return Superoperator(arr, trace_preserving=trace_preserving)


def _site_arrays(*ops: Superoperator) -> list[np.ndarray]:
    """The diagonals when every map is diagonal, else the dense matrices."""
    if all(op.is_diagonal for op in ops):
        return [op.diag for op in ops]
    return [op.matrix for op in ops]


@dataclass(frozen=True)
class ChannelFamily:
    """A differentiable one-parameter family of channels x -> Phi(x).

    ``derivative`` is an analytic closure when available; otherwise the
    derivative falls back to a central finite difference with step
    ``fd_step``.
    """

    evaluate: Callable[[float], Superoperator]
    derivative: Callable[[float], Superoperator] | None = None
    fd_step: float = DEFAULT_FD_STEP

    @property
    def derivative_mode(self) -> str:
        return "analytic" if self.derivative is not None else "central"

    def derivative_at(self, x: float) -> Superoperator:
        if self.derivative is not None:
            return self.derivative(x)
        return finite_diff_superop(self, x, self.fd_step)

    def apply_with_derivative(
        self, x: float, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The amplitude pair (Phi(x) v, Phi'(x) v)."""
        amps = _amplitudes(v)
        return self.evaluate(x).apply(amps), self.derivative_at(x).apply(amps)


def superop_from_kraus(
    kraus: list[np.ndarray] | tuple[np.ndarray, ...],
    *,
    trace_preserving: bool = True,
) -> Superoperator:
    """Build Phi-tilde = sum_l kron(K_l, conj(K_l)) from Kraus operators.

    When ``trace_preserving`` the completeness relation
    sum_l K_l^dag K_l = I is checked to 1e-9.
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise CompletenessViolation("empty Kraus list")
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise NonSquare(f"Kraus operators must be square, got {shape}")
    if any(op.shape != shape for op in ops):
        raise DimensionMismatch("Kraus operators must all share one shape")
    if trace_preserving:
        gram = sum(op.conj().T @ op for op in ops)
        defect = float(np.max(np.abs(gram - np.eye(shape[0]))))
        if defect > 1e-9:
            raise CompletenessViolation(
                f"sum K^dag K deviates from identity by {defect:.3e}"
            )
    mat = sum(np.kron(op, op.conj()) for op in ops)
    return Superoperator(mat, trace_preserving=trace_preserving)


def site_permutation(d: int, n: int) -> np.ndarray:
    """Map global row-major Liouville indices to site-major Kronecker indices.

    ``perm[g] = s`` where ``g = mu * d**n + nu`` indexes |mu><nu| on the
    composite space and ``s`` is the index of the same basis element in the
    n-fold Kronecker-power ordering (site 0 most significant, each site
    contributing its own pair digit d*mu_i + nu_i).
    """
    site_major = np.arange(d ** (2 * n)).reshape((d,) * (2 * n))
    # axes (mu_1, nu_1, ..., mu_n, nu_n) -> (mu_1..mu_n, nu_1..nu_n)
    return site_major.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(-1)


def require_budget(count: int, what: str, budget: int = MAX_DENSE_ROWS) -> None:
    """Raise DimensionBudgetExceeded, before anything is allocated, when the
    ``count`` of ``what`` exceeds ``budget``."""
    if count > budget:
        raise DimensionBudgetExceeded(f"{what}: {count} exceeds the budget of {budget}")


def _whole_number(value: float, what: str, minimum: int) -> int:
    """``value`` as an int: a whole-number float such as 3.0 converts, and
    anything else, or a value below ``minimum``, raises ValueError."""
    if not (value >= minimum and float(value).is_integer()):
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value}")
    return int(value)


def _checked_power(n: int, d: int | None = None) -> int:
    """Validate an N-fold exponent and, given the site dim d, the dense budget."""
    n = _whole_number(n, "the n of an N-fold product", 1)
    if n > 1 and d is not None:
        require_budget((d * d) ** n, f"Liouville rows of a {n}-fold tensor power")
    return n


def _to_global(out: np.ndarray, d: int, n: int, trace_preserving: bool = False) -> Superoperator:
    """Re-index a site-major Kronecker power (diagonal or dense) to row-major."""
    perm = site_permutation(d, n)
    return _superop(out[perm] if out.ndim == 1 else out[np.ix_(perm, perm)], trace_preserving)


def tensor_power(s: Superoperator, n: int) -> Superoperator:
    """N-fold Kronecker power of a channel, in the global row-major basis.

    The naive Kronecker power interleaves per-site (mu_i, nu_i) pairs; the
    result here is re-indexed so that it acts on vectorize() of composite
    operators directly.
    """
    n = _checked_power(n, s.hilbert_dim)
    if n == 1:
        return s
    base = s.diag if s.is_diagonal else s.matrix
    return _to_global(reduce(np.kron, [base] * n), s.hilbert_dim, n, s.trace_preserving)


@dataclass(frozen=True)
class GramTriple:
    """Single-site building blocks of the product-channel Gram matrix.

    a = Phi^dag Phi, b = Phi'^dag Phi', c = Phi'^dag Phi.  a and b are
    Hermitian PSD by construction; this is validated on creation.
    """

    a: Superoperator
    b: Superoperator
    c: Superoperator

    def __post_init__(self) -> None:
        for name, op in (("a", self.a), ("b", self.b)):
            m = op.diag if op.is_diagonal else op.matrix
            scale = _peak(m)
            # a NaN or inf entry would pass the tests below, or stop eigvalsh
            if not math.isfinite(scale):
                raise NonHermitian(f"Gram component {name} has non-finite entries")
            if scale == 0.0:
                continue
            # measured on m / max|m|: a norm of entries below 1e-154 underflows
            m = m / scale
            if op.is_diagonal:
                if float(np.max(np.abs(m.imag))) > HERMITICITY_RTOL:
                    raise NonHermitian(f"Gram component {name} is not Hermitian")
                if float(np.min(m.real)) < -1e-10:
                    raise NonHermitian(f"Gram component {name} is not PSD")
                continue
            norm = np.linalg.norm(m)
            if np.linalg.norm(m - m.conj().T) / norm > HERMITICITY_RTOL:
                raise NonHermitian(f"Gram component {name} is not Hermitian")
            if float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]) < -1e-10 * norm:
                raise NonHermitian(f"Gram component {name} is not PSD")


def gram_triple(family: ChannelFamily, x: float) -> GramTriple:
    """Evaluate (Phi^dag Phi, Phi'^dag Phi', Phi'^dag Phi) at x."""
    phi = family.evaluate(x)
    dphi = family.derivative_at(x)
    phi_dag = phi.dagger()
    dphi_dag = dphi.dagger()
    return GramTriple(
        a=phi_dag.compose(phi),
        b=dphi_dag.compose(dphi),
        c=dphi_dag.compose(phi),
    )


def gram_tensor_power(triple: GramTriple, n: int) -> Superoperator:
    """Gram matrix of the N-fold product channel from single-site blocks.

    Expanding (Phi^xN)'^dag (Phi^xN)' by the product rule gives N terms
    with one b factor plus N(N-1) cross terms with a c and a c^dag factor;
    both sums are accumulated in one left-to-right recursion.  Output is in
    the global row-major basis.
    """
    d = triple.a.hilbert_dim
    n = _checked_power(n, d)
    if n == 1:
        return triple.b
    a, b, c = _site_arrays(triple.a, triple.b, triple.c)
    cd = c.conj().T
    apow = a
    one_site = b  # all placements of a single b factor
    left_c = c  # all placements of a single c factor
    left_cd = cd
    cross = np.zeros_like(b)  # all placements of a (c, c^dag) pair
    for _ in range(n - 1):
        cross = np.kron(cross, a) + np.kron(left_c, cd) + np.kron(left_cd, c)
        one_site = np.kron(one_site, a) + np.kron(apow, b)
        left_c = np.kron(left_c, a) + np.kron(apow, c)
        left_cd = np.kron(left_cd, a) + np.kron(apow, cd)
        apow = np.kron(apow, a)
    return _to_global(one_site + cross, d, n)


#: Off-block entries of a phase-covariant triple vanish to this relative
#: round-off: a against max|a|, b against max|b|, c against the
#: Cauchy-Schwarz scale sqrt(max|a| max|b|).
COVARIANT_RTOL = 1e-12

# q = nu - mu of the qubit basis |mu><nu| at index 2 mu + nu
_CHARGE = np.array([0, 1, -1, 0])
# b and c live only on the coherence diagonal (|0><1| and |1><0|)
_COHERENCE = np.diag([False, True, True, False])


def covariant_gram_top(triple: GramTriple, n: int) -> TopEigenspace | None:
    """Top eigenpair of ``gram_tensor_power(triple, n)`` in closed form, or
    None when the triple is not that of a phase-covariant qubit channel.

    The closed form applies when a, b and c are block-diagonal in the site
    charge q = nu - mu (populations {0, 3}, |0><1| at index 1, |1><0| at
    index 2) and b and c vanish on the populations.  Each coherence site
    then contributes scalars a_q, b_q, c_q, and the Gram block of n+ sites
    at |0><1| and n- at |1><0| (s = n+ + n-) is g(n+, n-) A_pop^(x N-s),
    A_pop the population block of a, with

        g = n+ b+ a+^(n+-1) a-^n- + n- b- a+^n+ a-^(n- -1)
            + n+(n+-1) |c+|^2 a+^(n+-2) a-^n- + n-(n- -1) |c-|^2 a+^n+ a-^(n- -2)
            + 2 n+ n- Re(conj(c+) c-) a+^(n+-1) a-^(n- -1),

    where a term with a negative power is 0.  So ||G|| is the largest
    g lambda_A^(N-s), found from O(N^2) scalars.  Every eigenvalue of G is
    g lambda_A^(N-s-j) lambda_B^j, with j population sites in the second
    eigenvector of A_pop, and the top eigenspace keeps the rule of
    :func:`largest_eigval_psd` on that spectrum (within
    ``TOP_EIGENSPACE_RTOL`` of the norm, empty when the norm vanishes).
    Its basis is the site-wise products of |0><1|, |1><0| and the
    eigenvectors of A_pop, laid out in the global row-major order.  Any
    other triple returns None, for the dense path.
    """
    n = _checked_power(n)
    if triple.a.hilbert_dim != 2:
        return None
    a, b, c = triple.a.matrix, triple.b.matrix, triple.c.matrix
    scale_a, scale_b = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
    off_charge = _CHARGE[:, None] != _CHARGE[None, :]
    if (
        np.max(np.abs(a[off_charge])) > COVARIANT_RTOL * scale_a
        or np.max(np.abs(b[~_COHERENCE])) > COVARIANT_RTOL * scale_b
        or np.max(np.abs(c[~_COHERENCE])) > COVARIANT_RTOL * math.sqrt(scale_a * scale_b)
    ):
        return None
    ap, am = a[1, 1].real, a[2, 2].real
    bp, bm = b[1, 1].real, b[2, 2].real
    cp, cm = c[1, 1], c[2, 2]
    k = np.arange(n + 1)
    # the two trailing zeros make a power of index -1 or -2 vanish
    pp, pm = np.append(ap**k, [0.0, 0.0]), np.append(am**k, [0.0, 0.0])
    p, m = k[:, None], k[None, :]
    g = (
        p * bp * pp[p - 1] * pm[m]
        + m * bm * pp[p] * pm[m - 1]
        + p * (p - 1) * abs(cp) ** 2 * pp[p - 2] * pm[m]
        + m * (m - 1) * abs(cm) ** 2 * pp[p] * pm[m - 2]
        + 2 * p * m * (np.conj(cp) * cm).real * pp[p - 1] * pm[m - 1]
    )
    (lam_b, lam_a), pop_vectors = np.linalg.eigh(a[np.ix_([0, 3], [0, 3])])
    rest = n - p - m
    norm = max(float(np.max(np.where(rest >= 0, g * lam_a ** np.maximum(rest, 0), 0.0))), 0.0)
    require_budget(4**n, f"Liouville rows of the top eigenvectors of a {n}-fold Gram matrix")
    if norm == 0.0:
        return TopEigenspace(value=0.0, vectors=np.empty((4**n, 0)))
    # site eigenbasis, by label: 0 is |0><1|, 1 is |1><0|, 2 and 3 the A_pop
    # eigenvectors of lam_a and lam_b on the populations
    site = np.zeros((4, 4), dtype=complex)
    site[1, 0] = site[2, 1] = 1.0
    site[np.ix_([0, 3], [2, 3])] = pop_vectors[:, ::-1]
    labels = np.indices((4,) * n).reshape(n, -1)
    n_plus, n_minus, n_b = ((labels == label).sum(axis=0) for label in (0, 1, 3))
    values = g[n_plus, n_minus] * lam_a ** (n - n_plus - n_minus - n_b) * lam_b**n_b
    chosen = labels[:, _within_top(values, norm)]
    vectors = site[:, chosen[0]]
    for lab in chosen[1:]:  # site-major Kronecker product, column by column
        vectors = (vectors[:, None, :] * site[:, lab][None]).reshape(-1, lab.size)
    return TopEigenspace(value=norm, vectors=vectors[site_permutation(2, n)])


def tensor_power_derivative(
    value: Superoperator, deriv: Superoperator, n: int
) -> Superoperator:
    """Derivative of the N-fold Kronecker power by the product rule.

    Given Phi(x) and Phi'(x) at one site, returns
    sum_i Phi x ... x Phi'_(site i) x ... x Phi in the global row-major
    basis.
    """
    n = _checked_power(n, value.hilbert_dim)
    if value.hilbert_dim != deriv.hilbert_dim:
        raise DimensionMismatch(
            f"value and derivative dims differ: {value.hilbert_dim} vs {deriv.hilbert_dim}"
        )
    if n == 1:
        return deriv
    base, dbase = _site_arrays(value, deriv)
    cur, dcur = base, dbase
    for _ in range(n - 1):
        dcur = np.kron(dcur, base) + np.kron(cur, dbase)
        cur = np.kron(cur, base)
    return _to_global(dcur, value.hilbert_dim, n)


@dataclass(frozen=True, kw_only=True)
class _ProductFamily(ChannelFamily):
    """x -> Phi(x)^xN whose action on a vector never forms the N-fold power."""

    site: ChannelFamily
    n: int

    def apply_with_derivative(
        self, x: float, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(Phi^xN v, (Phi^xN)' v), applied site by site.

        Value and derivative are stacked as w = (w0, w1) and advance together
        by the forward-mode product rule w1 <- Phi w1 + Phi' w0, w0 <- Phi w0,
        which is the block map [[Phi, 0], [Phi', Phi]] on one site.  The
        vector is permuted once into site-major order (mu_1 nu_1, ...,
        mu_N nu_N); each step applies the block map to the leading site with
        one matmul and rotates that site to the back, so after N steps the
        sites are in order again and one permutation restores row-major.
        """
        amps, n = _amplitudes(v), self.n
        phi, dphi = self.site.evaluate(x), self.site.derivative_at(x)
        d = phi.hilbert_dim
        if amps.size != d ** (2 * n):
            raise DimensionMismatch(
                f"vector of length {amps.size} does not match {n} sites of Hilbert dim {d}"
            )
        phi, dphi = phi.matrix, dphi.matrix
        block = np.block([[phi, np.zeros_like(phi)], [dphi, phi]])
        w = np.zeros((2, d * d, d ** (2 * n - 2)), dtype=complex)
        w[0] = amps.reshape((d,) * (2 * n)).transpose(
            [axis for i in range(n) for axis in (i, n + i)]
        ).reshape(d * d, -1)
        for _ in range(n):
            w = block @ w.reshape(2 * d * d, -1)
            w = w.reshape(2, d * d, -1).transpose(0, 2, 1).reshape(2, d * d, -1)
        out = w.reshape((2,) + (d,) * (2 * n)).transpose(
            0, *range(1, 2 * n + 1, 2), *range(2, 2 * n + 2, 2)
        ).reshape(2, -1)
        return out[0], out[1]


def product_family(family: ChannelFamily, n: int) -> ChannelFamily:
    """The N-fold product family x -> Phi(x)^xN with product-rule derivative."""
    n = _checked_power(n)
    if n == 1:
        return family
    return _ProductFamily(
        evaluate=lambda x: tensor_power(family.evaluate(x), n),
        derivative=lambda x: tensor_power_derivative(family.evaluate(x), family.derivative_at(x), n),
        site=family,
        n=n,
    )


def finite_diff_superop(family: ChannelFamily, x: float, h: float) -> Superoperator:
    """Central-difference derivative (Phi(x+h) - Phi(x-h)) / 2h."""
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    plus, minus = _site_arrays(family.evaluate(x + h), family.evaluate(x - h))
    return _superop((plus - minus) / (2.0 * h))
