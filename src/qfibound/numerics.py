"""Dense Hermitian linear algebra and scalar optimization helpers.

All matrix routines operate on plain ``numpy`` arrays and are pure
functions.  Eigendecompositions go through a single wrapper,
:func:`herm_eig`, which enforces the Hermiticity contract once so that
downstream code never has to re-check it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

#: Relative Frobenius tolerance for Hermiticity checks.
HERMITICITY_RTOL = 1e-10

#: Eigenvalues within this relative distance of the largest one are
#: considered part of the top eigenspace.
TOP_EIGENSPACE_RTOL = 1e-8

#: Negative eigenvalues of a nominally PSD matrix are clipped to zero when
#: they exceed -PSD_CLIP_RTOL * lambda_max; anything lower is an error.
PSD_CLIP_RTOL = 1e-9

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TopEigenspace:
    """Largest eigenvalue of a PSD matrix together with the orthonormal
    basis (columns) of the eigenspace of all eigenvalues within
    ``TOP_EIGENSPACE_RTOL * value`` of it."""

    value: float
    vectors: np.ndarray


def _within_top(values: np.ndarray, top: float) -> np.ndarray:
    """Mask of the eigenvalues within TOP_EIGENSPACE_RTOL of ``top``: the
    one cut rule of every top eigenspace."""
    return values >= top - TOP_EIGENSPACE_RTOL * abs(top)


def _as_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise NonSquare(f"expected a matrix, got array of shape {a.shape}")
    return a.astype(complex, copy=False)


def _require_square(m: np.ndarray) -> np.ndarray:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _peak(a: np.ndarray) -> float:
    """max |a_ij| (0 for an empty array).  Defects are measured on a / peak,
    because a Frobenius norm of entries below about 1e-154 underflows to 0."""
    return float(np.max(np.abs(a), initial=0.0))


def _require_hermitian(m: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    a = _require_square(m)
    peak = _peak(a)
    if peak == 0.0:
        return a
    unit = a / peak
    defect = np.linalg.norm(unit - unit.conj().T) / np.linalg.norm(unit)
    if defect > rtol:
        raise NonHermitian(
            f"matrix is not Hermitian: relative defect {defect:.3e} > {rtol:.0e}"
        )
    return a


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(eigenvalues, eigenvectors)`` of a Hermitian matrix.

    The eigenvalues are real and ascending; ``eigenvectors[:, i]`` is the
    orthonormal eigenvector of ``eigenvalues[i]``.  Within a degenerate
    cluster the individual directions are unspecified (only the spanned
    subspace is meaningful), so consumers should build projectors rather
    than compare single vectors.

    The input must satisfy ``|M - M^dag|_F <= 1e-10 |M|_F`` (the zero
    matrix is exempt).  The matrix is symmetrized before decomposition so
    round-off in the input cannot leak into complex eigenvalues.
    """
    a = _require_hermitian(m)
    return np.linalg.eigh((a + a.conj().T) / 2.0)


def largest_eigval_psd(m: np.ndarray) -> TopEigenspace:
    """Largest eigenvalue of a Hermitian PSD matrix plus its top eigenspace.

    The smallest eigenvalue may be slightly negative (down to
    ``-1e-9 * |M|``) from round-off; anything below that raises
    :class:`NegativeSpectrum`.
    """
    eigenvalues, eigenvectors = herm_eig(m)
    lo = float(eigenvalues[0])
    a = np.asarray(m)
    peak = _peak(a)
    if peak > 0.0:
        unit_norm = float(np.linalg.norm(a / peak))
        if lo / peak < -PSD_CLIP_RTOL * unit_norm:
            raise NegativeSpectrum(
                f"matrix is not PSD: min eigenvalue {lo:.3e} with norm {peak * unit_norm:.3e}"
            )
    top = float(eigenvalues[-1])
    mask = _within_top(eigenvalues, top)
    return TopEigenspace(value=max(top, 0.0), vectors=eigenvectors[:, mask])


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in ``[-1e-9 * lambda_max, 0)`` are clipped to zero;
    genuinely negative spectra raise :class:`NegativeSpectrum`.
    """
    eigenvalues, v = herm_eig(m)
    top = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    floor = -PSD_CLIP_RTOL * max(abs(top), 1e-300)
    if float(eigenvalues[0]) < floor:
        raise NegativeSpectrum(
            f"matrix is not PSD: min eigenvalue {eigenvalues[0]:.3e}"
        )
    np.clip(eigenvalues, 0.0, None, out=eigenvalues)
    return (v * np.sqrt(eigenvalues)) @ v.conj().T


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
