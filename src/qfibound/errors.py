"""Exception types raised across the package.

Every error is a subclass of :class:`QfiboundError`, so callers can catch the
package-wide base class or the precise condition, whichever they need.
``SingularOutcome`` is a warning category rather than an exception: the
offending term is excluded from the sum and the caller is warned.
"""
from __future__ import annotations


class QfiboundError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# linear algebra / scalar numerics


class NonSquare(QfiboundError):
    """A square matrix was required but a rectangular one was supplied."""


class NonHermitian(QfiboundError):
    """Hermiticity check failed beyond the documented tolerance, or the
    matrix to check has non-finite entries."""


class DimensionMismatch(QfiboundError):
    """Operands have incompatible dimensions."""


class NegativeSpectrum(QfiboundError):
    """A matrix required to be positive semidefinite has a genuinely
    negative eigenvalue (beyond the numerical clipping tolerance)."""


class InvalidBracket(QfiboundError):
    """Scalar minimization bracket is empty, reversed, or non-finite."""


class NoSignChange(QfiboundError):
    """Bisection requires f(lo) and f(hi) with opposite signs."""


class DegenerateInput(QfiboundError):
    """Input data carry no usable information (e.g. all abscissae equal)."""


# ---------------------------------------------------------------------------
# Liouville-space machinery


class CompletenessViolation(QfiboundError):
    """Kraus operators flagged trace-preserving do not satisfy the
    completeness relation sum_l K_l^dag K_l = I."""


class DimensionBudgetExceeded(QfiboundError):
    """A dense tensor-power construction would exceed the configured
    matrix-size budget."""


# ---------------------------------------------------------------------------
# channel models


class CptpViolation(QfiboundError):
    """Noise parameters lie outside the complete-positivity region."""


class RangeViolation(QfiboundError, ValueError):
    """An argument outside the domain the computation accepts: a rate,
    time or transmissivity that would be unphysical, a short-time model
    evaluated where its parameters are no longer physical, a count that is
    not a whole number, or an unknown option value.  It is also a
    ValueError, so callers that catch ValueError still catch it."""


class TruncationInsufficient(QfiboundError):
    """The Fock-space truncation leaves more probability in the tail than
    the requested tolerance allows."""


# ---------------------------------------------------------------------------
# bound computation


class InvalidState(QfiboundError):
    """Operator fails the density-matrix checks (Hermitian, PSD, trace 1),
    or the inner products that give the bound are not finite."""


class NonTraceless(QfiboundError):
    """A derivative operator must be traceless but is not."""


# ---------------------------------------------------------------------------
# oracle


class UnsupportedDerivative(QfiboundError):
    """The state derivative has weight on the kernel-kernel block of the
    state, where the symmetric logarithmic derivative is undefined."""


class SingularOutcome(UserWarning):
    """A measurement outcome has (numerically) zero probability but a
    nonzero probability derivative; the term is excluded from the
    classical Fisher information sum."""


# ---------------------------------------------------------------------------
# metrology


class NoInteriorMinimum(QfiboundError):
    """The stationary point of the cost lies at or past tau, so no interior
    optimum exists."""


class NoRoot(QfiboundError):
    """No root of the target equation exists on the search bracket."""


class IndexOutOfRange(QfiboundError):
    """A Fock-level index lies outside {0, ..., N}."""


class MaxRowMismatch(UserWarning):
    """The exhaustive (k, m) scan found the largest Gram diagonal outside
    the k = N row, contradicting the expected location of the optimum."""
