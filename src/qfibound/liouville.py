"""Operator vectorization and superoperator machinery.

Operators on a d-dimensional Hilbert space are flattened row-major, so the
basis element |mu><nu| sits at index mu*d + nu; a Liouville vector is that
plain 1-D complex array.  Channels become d^2 x d^2 matrices
("superoperators") acting on these vectors.  An N-fold product
channel is only its site kernel (:func:`product_family`): it acts on a
composite vector site by site, on axes (i, N+i) of the vector reshaped to
(mu_1..mu_N, nu_1..nu_N).  Its dense Kronecker power and that power's
derivative, :func:`tensor_power` and :func:`tensor_power_derivative` (which
need an index permutation relative to the naive one), have no caller in the
package: they stay as public reference builders and as the tests' oracle.

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
    RangeViolation,
)
from .numerics import TopEigenspace, _within_top

#: Dense Liouville-space matrices are capped at this many rows
#: (4096 = six qubits).
MAX_DENSE_ROWS = 4096


def _amplitudes(v: np.ndarray) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(-1)


def liouville_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product (a|b) = tr(A^dag B).

    ``a`` and ``b`` may be Liouville vectors or the operators themselves:
    both are flattened row-major, so the vectors' product is (A|B).
    """
    x, y = _amplitudes(a), _amplitudes(b)
    if x.size != y.size:
        raise DimensionMismatch(f"dimension mismatch: {x.size} vs {y.size}")
    return complex(np.vdot(x, y))


def _check_trace_preserving(m: np.ndarray) -> np.ndarray:
    """``m``, a d^2 x d^2 map, once it is finite and its dual fixes the
    identity to 1e-10; else CompletenessViolation."""
    # the dual below reads only d rows, so a NaN or inf elsewhere would go
    # unseen without this test
    if not np.isfinite(m).all():
        raise CompletenessViolation("map flagged trace-preserving has non-finite entries")
    # the dual on the identity is M^dag vec(I), and vec(I) is 1 at the d
    # positions mu = nu: the conjugate of the sum of those d rows.  The
    # identity is real, so the defect is the same without the conjugate.
    d = math.isqrt(m.shape[0])
    dual = m[:: d + 1].sum(axis=0)
    dual[:: d + 1] -= 1.0
    defect = float(np.abs(dual).max())
    if not defect <= 1e-10:  # a NaN defect fails too
        raise CompletenessViolation(
            f"map flagged trace-preserving but dual moves identity by {defect:.3e}"
        )
    return m


def _checked_superop(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``m`` as a complex d^2 x d^2 matrix and its Hilbert dim d: NonSquare
    for a non-square ``m``, DimensionMismatch when its side is not a square."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"superoperator matrix must be square, got {m.shape}")
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise DimensionMismatch(f"superoperator of size {m.shape[0]} is not a perfect-square dimension")
    return m, d


def _checked_pair(phi: np.ndarray, dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Complex (Phi, Phi', d) once Phi passes :func:`_checked_superop` and Phi' has its shape."""
    phi, d = _checked_superop(phi)
    dphi = np.asarray(dphi, dtype=complex)
    if dphi.shape != phi.shape:
        raise DimensionMismatch(f"derivative of shape {dphi.shape} does not match the map's {phi.shape}")
    return phi, dphi, d


@dataclass(frozen=True)
class ChannelFamily:
    """A differentiable one-parameter family of channels x -> Phi(x):
    ``evaluate`` and ``derivative`` return the d^2 x d^2 matrices of Phi(x)
    and Phi'(x) in the row-major Liouville basis."""

    evaluate: Callable[[float], np.ndarray]
    derivative: Callable[[float], np.ndarray]

    def apply_with_derivative(
        self, x: float, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The amplitude pair (Phi(x) v, Phi'(x) v)."""
        phi, dphi, d = _site_maps(self, x)
        amps = _amplitudes(v)
        if amps.size != d * d:
            raise DimensionMismatch(f"vector of length {amps.size} does not match Hilbert dim {d}")
        return phi @ amps, dphi @ amps


def _site_maps(family: ChannelFamily, x: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The one read of a family: :func:`_checked_pair` of Phi(x) and Phi'(x)."""
    return _checked_pair(family.evaluate(x), family.derivative(x))


def superop_from_kraus(kraus: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """The d^2 x d^2 matrix sum_l kron(K_l, conj(K_l)) of a Kraus set, once
    it passes :func:`_check_trace_preserving`: its dual on the identity is
    conj(sum_l K_l^dag K_l), so that is the completeness relation, to 1e-10."""
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise CompletenessViolation("empty Kraus list")
    shape = ops[0].shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise NonSquare(f"Kraus operators must be square, got {shape}")
    if any(op.shape != shape for op in ops):
        raise DimensionMismatch("Kraus operators must all share one shape")
    return _check_trace_preserving(sum(np.kron(op, op.conj()) for op in ops))


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


def require_power_budget(base: int, n: int, what: str) -> None:
    """:func:`require_budget` for a count of ``base**n``, decided from n: the
    power is formed only up to the bit length of MAX_DENSE_ROWS, past which
    any base >= 2 exceeds it, so a huge N is refused at once."""
    if base ** min(n, MAX_DENSE_ROWS.bit_length()) > MAX_DENSE_ROWS:
        raise DimensionBudgetExceeded(
            f"{what}: {base}^{n} exceeds the budget of {MAX_DENSE_ROWS}"
        )


def _whole_number(value: float, what: str, minimum: int) -> int:
    """``value`` as an int: a whole-number float such as 3.0 converts, and
    anything else, or a value below ``minimum``, raises RangeViolation."""
    if not (value >= minimum and float(value).is_integer()):
        raise RangeViolation(f"{what} must be an integer >= {minimum}, got {value}")
    return int(value)


def _checked_power(n: int, d: int | None = None) -> int:
    """Validate an N-fold exponent and, given the site dim d, the dense budget."""
    n = _whole_number(n, "the n of an N-fold product", 1)
    if n > 1 and d is not None:
        require_power_budget(d * d, n, f"Liouville rows of a {n}-fold tensor power")
    return n


def _to_global(out: np.ndarray, d: int, n: int) -> np.ndarray:
    """Re-index a site-major Kronecker power to row-major."""
    perm = site_permutation(d, n)
    return out[np.ix_(perm, perm)]


def tensor_power(s: np.ndarray, n: int) -> np.ndarray:
    """N-fold Kronecker power of a channel's matrix, in the global row-major basis.

    The naive Kronecker power interleaves per-site (mu_i, nu_i) pairs; the
    result here is re-indexed so that it acts on the row-major flattening of
    composite operators directly.
    """
    s, d = _checked_superop(s)
    n = _checked_power(n, d)
    if n == 1:
        return s
    return _to_global(reduce(np.kron, [s] * n), d, n)


def gram_triple(family: ChannelFamily, x: float) -> np.ndarray:
    """The Gram triple (Phi^dag Phi, Phi'^dag Phi', Phi'^dag Phi) at x."""
    phi, dphi, _ = _site_maps(family, x)
    return _gram_arrays(phi, dphi)


def _gram_arrays(phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """The Gram triple a, b, c of the matrices of Phi and Phi', stacked as
    one (3, d^2, d^2) array.  a and b are products X^dag X, so they are
    Hermitian PSD up to round-off by construction; the one refusal is
    NonHermitian for a non-finite entry, from a NaN or inf map or from a
    product that overflows."""
    phi_dag, dphi_dag = phi.conj().T, dphi.conj().T
    triple = np.array([phi_dag @ phi, dphi_dag @ dphi, dphi_dag @ phi])
    if not np.isfinite(triple).all():
        raise NonHermitian("Gram triple has non-finite entries")
    return triple


def gram_tensor_power(triple: np.ndarray, n: int) -> np.ndarray:
    """Gram matrix of the N-fold product channel from the single-site Gram
    triple a, b, c of :func:`gram_triple`.

    Expanding (Phi^xN)'^dag (Phi^xN)' by the product rule gives N terms
    with one b factor plus N(N-1) cross terms with a c and a c^dag factor;
    both sums are accumulated in one left-to-right recursion.  Output is in
    the global row-major basis.
    """
    a, b, c = triple
    b, d = _checked_superop(b)
    n = _checked_power(n, d)
    if n == 1:
        return b
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
# entries that vanish in a covariant triple: off the charge blocks for a,
# off the coherence diagonal (|0><1| and |1><0|) for b and c
_OFF_COHERENCE = ~np.diag([False, True, True, False])
_OFF_PATTERN = np.array([_CHARGE[:, None] != _CHARGE[None, :], _OFF_COHERENCE, _OFF_COHERENCE])


def _population_top(a: np.ndarray) -> float:
    """Top eigenvalue of the Hermitian block [[a00, a03], [a30, a33]]: half
    its trace plus hypot(half its diagonal gap, |a03|)."""
    half_gap = (a[0, 0].real - a[3, 3].real) / 2.0
    return float((a[0, 0].real + a[3, 3].real) / 2.0 + math.hypot(half_gap, abs(a[0, 3])))


def covariant_gram_top(triple: np.ndarray, n: int) -> TopEigenspace | None:
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

    where a term with a negative power is 0.  Each term is a function of n+
    times one of n-, so g = X Y^T with X and Y (N+1) x 3, and ||G|| is the
    largest g lambda_A^(N-s), lambda_A in closed form, taken over blocks of
    the (N+1)^2 table of g in O(N) memory.  Every eigenvalue of G is
    g lambda_A^(N-s-j) lambda_B^j, with j population sites in the second
    eigenvector of A_pop, and the top eigenspace keeps the rule of
    :func:`largest_eigval_psd` on that spectrum (within
    ``TOP_EIGENSPACE_RTOL`` of the norm, empty when the norm vanishes).
    Its basis is the site-wise products of |0><1|, |1><0| and the
    eigenvectors of A_pop, laid out in the global row-major order.  Any
    other triple returns None, for the dense path.

    Only the norm is computed here, with no eigensolver.  The first read of
    ``.vectors`` builds the basis: it takes lambda_B and the eigenvectors of
    A_pop from ``eigh`` and enumerates the 4^N site labels, so it is where
    the 4^N-row budget is checked and DimensionBudgetExceeded is raised.
    """
    n = _checked_power(n)
    if triple.shape[-1] != 4:
        return None
    a, b, c = triple
    mags = np.abs(triple)
    scale_a, scale_b, _ = mags.max(axis=(1, 2)).tolist()
    off_a, off_b, off_c = np.where(_OFF_PATTERN, mags, 0.0).max(axis=(1, 2)).tolist()
    if (
        off_a > COVARIANT_RTOL * scale_a
        or off_b > COVARIANT_RTOL * scale_b
        or off_c > COVARIANT_RTOL * math.sqrt(scale_a * scale_b)
    ):
        return None
    # per coherence (rows + and -): a^k, k a^(k-1), and the terms of g whose
    # derivative factors all sit on those sites; a negative power is 0
    k = np.arange(n + 1.0)
    powers = np.zeros((2, n + 3))
    powers[:, 2:] = a.diagonal()[1:3, None].real ** k
    power, first = powers[:, 2:], k * powers[:, 1:-1]
    c_sq = mags[2].diagonal()[1:3, None] ** 2
    single = b.diagonal()[1:3, None].real * first + c_sq * (k * (k - 1.0)) * powers[:, :-2]
    # g = X Y^T, with the cross term in the third column
    x_rows = np.array([single[0], power[0], first[0]])
    y_rows = np.array([power[1], single[1], 2.0 * (c[1, 1].conjugate() * c[2, 2]).real * first[1]])
    lam_a = _population_top(a)
    # lambda_A^(N - n+ - n-) for n+ + n- <= N, else 0: the Hankel matrix
    # weight[n+ + n-], read as a strided view of weight
    weight = np.zeros(2 * n + 1)
    weight[: n + 1] = lam_a ** np.arange(n, -1.0, -1.0)
    hankel = np.ndarray((n + 1, n + 1), float, weight, 0, weight.strides * 2)
    # g in blocks of rows n+ of about 2^16 entries, so the memory is O(N);
    # past column n- = N - n+ the weight is 0.  The three terms are summed in
    # order, not by BLAS, so no entry of g depends on the block holding it.
    rows = max(1, 2**16 // (n + 1))
    norm = 0.0
    for lo in range(0, n + 1, rows):
        hi, cols = min(lo + rows, n + 1), n + 1 - lo
        g = np.add.reduce(x_rows[:, lo:hi, None] * y_rows[:, None, :cols])
        norm = float(np.maximum(norm, (g * hankel[lo:hi, :cols]).max()))  # NaN propagates

    def build() -> np.ndarray:
        require_power_budget(4, n, f"Liouville rows of the top eigenvectors of a {n}-fold Gram matrix")
        if norm == 0.0:
            return np.empty((4**n, 0))
        (lam_b, _), pop_vectors = np.linalg.eigh(a[np.ix_([0, 3], [0, 3])])
        # site eigenbasis, by label: 0 is |0><1|, 1 is |1><0|, 2 and 3 the
        # A_pop eigenvectors of lam_a and lam_b on the populations
        site = np.zeros((4, 4), dtype=complex)
        site[1, 0] = site[2, 1] = 1.0
        site[np.ix_([0, 3], [2, 3])] = pop_vectors[:, ::-1]
        labels = np.indices((4,) * n).reshape(n, -1)
        n_plus, n_minus, n_b = ((labels == label).sum(axis=0) for label in (0, 1, 3))
        g = np.add.reduce(x_rows[:, n_plus] * y_rows[:, n_minus])
        values = g * lam_a ** (n - n_plus - n_minus - n_b) * lam_b**n_b
        chosen = labels[:, _within_top(values, norm)]
        vectors = site[:, chosen[0]]
        for lab in chosen[1:]:  # site-major Kronecker product, column by column
            vectors = (vectors[:, None, :] * site[:, lab][None]).reshape(-1, lab.size)
        return vectors[site_permutation(2, n)]

    return TopEigenspace(value=norm, build=build)


def tensor_power_derivative(value: np.ndarray, deriv: np.ndarray, n: int) -> np.ndarray:
    """Derivative of the N-fold Kronecker power by the product rule.

    Given the matrices of Phi(x) and Phi'(x) at one site, returns
    sum_i Phi x ... x Phi'_(site i) x ... x Phi in the global row-major
    basis.
    """
    base, dbase, d = _checked_pair(value, deriv)
    n = _checked_power(n, d)
    if n == 1:
        return dbase
    cur, dcur = base, dbase
    for _ in range(n - 1):
        dcur = np.kron(dcur, base) + np.kron(cur, dbase)
        cur = np.kron(cur, base)
    return _to_global(dcur, d, n)


@dataclass(frozen=True)
class _ProductFamily:
    """x -> Phi(x)^xN of a site family, known only by its action on a vector:
    neither the N-fold power nor its derivative is ever formed (their dense
    matrices are :func:`tensor_power` and :func:`tensor_power_derivative`)."""

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
        phi, dphi, d = _site_maps(self.site, x)
        amps, n = _amplitudes(v), self.n
        # past the bit length of the size, d^(2N) exceeds it for any d >= 2
        if amps.size != d ** (2 * min(n, amps.size.bit_length())):
            raise DimensionMismatch(f"vector of length {amps.size} does not match {n} sites of Hilbert dim {d}")
        block = np.zeros((2 * d * d, 2 * d * d), dtype=complex)
        block[: d * d, : d * d] = block[d * d :, d * d :] = phi
        block[d * d :, : d * d] = dphi
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


def product_family(family: ChannelFamily, n: int) -> ChannelFamily | _ProductFamily:
    """The N-fold product family x -> Phi(x)^xN: ``family`` itself for N = 1,
    else its site kernel, which offers only ``apply_with_derivative``."""
    n = _checked_power(n)
    return family if n == 1 else _ProductFamily(site=family, n=n)

