"""Dense Hermitian linear algebra and scalar optimization helpers.

All matrix routines operate on plain ``numpy`` arrays and are pure
functions.  Eigendecompositions go through a single wrapper,
:func:`herm_eig`, which enforces the Hermiticity contract once so that
downstream code never has to re-check it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    InvalidBracket,
    NegativeSpectrum,
    NoSignChange,
    NonHermitian,
    NonSquare,
)

#: Largest Hermiticity defect (:func:`_hermiticity_defect`) of a matrix
#: that an eigensolver accepts.  The a and b of a Gram triple, products
#: X^dag X, meet it by construction and are not checked.
HERMITICITY_RTOL = 1e-10

#: Eigenvalues within this relative distance of the largest one are
#: considered part of the top eigenspace.
TOP_EIGENSPACE_RTOL = 1e-8

#: A nominally PSD matrix may have eigenvalues down to -PSD_CLIP_RTOL times
#: its norm from round-off; anything lower is an error.
PSD_CLIP_RTOL = 1e-9

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TopEigenspace:
    """Largest eigenvalue of a PSD matrix together with the orthonormal
    basis (columns) of the eigenspace of all eigenvalues within
    ``TOP_EIGENSPACE_RTOL * value`` of it; the basis is empty when the
    value is 0.

    ``value`` is known on creation; ``vectors`` is built by ``build`` on
    its first read and cached, so a caller that needs only the eigenvalue
    never pays for (or runs into the size guard of) the basis.
    """

    value: float
    build: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        return self.build()


def _within_top(values: np.ndarray, top: float) -> np.ndarray:
    """Mask of the eigenvalues within TOP_EIGENSPACE_RTOL of ``top``: the
    one cut rule of every top eigenspace."""
    return values >= top - TOP_EIGENSPACE_RTOL * abs(top)


def _peak(a: np.ndarray) -> float:
    """max |a_ij| (0 for an empty array).  PSD defects are measured on a / peak,
    because a Frobenius norm of entries below about 1e-154 underflows to 0."""
    return float(np.abs(a).max(initial=0.0))


def _scaled(a: np.ndarray, peak: float | np.ndarray) -> np.ndarray:
    """a / peak by parts, as numpy's complex division overflows at a
    subnormal peak; an array peak broadcasts against a's leading axes."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    return (parts / peak).view(complex)


def _hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """max|m - m^dag| / max|m|, the one Hermiticity measure, of a matrix or
    each of a stack (..., n, n).  It is 0 for the zero matrix and NaN for a
    non-finite entry, which a test ``not defect <= tol`` refuses.  A
    difference and a quotient do not underflow the way a sum of squares
    does, so m needs no scaled copy."""
    a = np.asarray(m)
    with np.errstate(all="ignore"):
        skew = a - np.swapaxes(a, -1, -2).conj()
        peak = np.abs(a).max(axis=(-2, -1), initial=0.0)
        # 5e-324, the least positive float, is at most max|m| unless m is 0
        return np.abs(skew).max(axis=(-2, -1), initial=0.0) / np.maximum(peak, 5e-324)


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(eigenvalues, eigenvectors)`` of a Hermitian matrix.

    The eigenvalues are real and ascending; ``eigenvectors[:, i]`` is the
    orthonormal eigenvector of ``eigenvalues[i]``.  Within a degenerate
    cluster the individual directions are unspecified (only the spanned
    subspace is meaningful), so consumers should build projectors rather
    than compare single vectors.

    The input must satisfy ``max|M - M^dag| <= 1e-10 max|M|`` (the zero
    matrix is exempt).  The matrix is symmetrized before decomposition so
    round-off in the input cannot leak into complex eigenvalues.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    defect = _hermiticity_defect(a)
    if not defect <= HERMITICITY_RTOL:
        raise NonHermitian(f"matrix is not Hermitian: relative defect {defect:.3e} > {HERMITICITY_RTOL:.0e}")
    return np.linalg.eigh((a + a.conj().T) / 2.0)


def largest_eigval_psd(m: np.ndarray) -> TopEigenspace:
    """Largest eigenvalue of a Hermitian PSD matrix plus its top eigenspace.

    The smallest eigenvalue may be slightly negative (down to
    ``-1e-9 * |M|``) from round-off; anything below that raises
    :class:`NegativeSpectrum`.  A matrix whose largest eigenvalue is not
    positive (the zero matrix) has value 0 and an empty top eigenspace.
    """
    eigenvalues, eigenvectors = herm_eig(m)
    lo = float(eigenvalues[0])
    a = np.asarray(m)
    peak = _peak(a)
    if peak > 0.0:
        unit_norm = float(np.linalg.norm(_scaled(a, peak)))
        if lo / peak < -PSD_CLIP_RTOL * unit_norm:
            raise NegativeSpectrum(
                f"matrix is not PSD: min eigenvalue {lo:.3e} with norm {peak * unit_norm:.3e}"
            )
    top = float(eigenvalues[-1])
    mask = _within_top(eigenvalues, top) & (top > 0.0)
    vectors = eigenvectors[:, mask]
    return TopEigenspace(value=max(top, 0.0), build=lambda: vectors)


def minimize_unimodal(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section search for the minimum of a unimodal function.

    Returns ``(argmin, min)``.  For unimodal ``f`` the argmin is located to
    within ``tol``; for non-unimodal ``f`` the result is a local minimum.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise InvalidBracket(f"invalid bracket [{lo}, {hi}]")
    if not tol > 0.0:
        raise InvalidBracket(f"tolerance must be positive, got {tol}")
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _opposite_signs(u: float, v: float) -> bool:
    # Compare signs, not the product u * v, which underflows to zero when
    # both values are subnormal or tiny.
    return (u < 0.0 < v) or (v < 0.0 < u)


def solve_root_bisect(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection root finder; requires f(lo) and f(hi) of opposite sign."""
    a, b = float(lo), float(hi)
    if not a < b:
        raise InvalidBracket(f"need lo < hi, got [{a}, {b}]")
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not _opposite_signs(fa, fb):
        raise NoSignChange(
            f"f({a}) = {fa:.6g} and f({b}) = {fb:.6g} have the same sign"
        )
    while b - a > tol:
        mid = (a + b) / 2.0
        if mid == a or mid == b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if _opposite_signs(fa, fm):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return (a + b) / 2.0


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log y versus log x.

    Needs at least two points with strictly positive coordinates and at
    least two distinct abscissae.
    """
    pts = list(points)
    if len(pts) < 2:
        raise DegenerateInput(f"need at least 2 points, got {len(pts)}")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DegenerateInput("all coordinates must be strictly positive")
    if np.all(xs == xs[0]):
        raise DegenerateInput("all x values are equal; slope is undefined")
    lx, ly = np.log(xs), np.log(ys)
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
