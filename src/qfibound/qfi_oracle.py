"""Independent ground truth for the bound machinery.

Exact quantum Fisher information through the symmetric logarithmic
derivative (SLD), the eigenprojector measurement built from the state
derivative, and classical Fisher information for arbitrary POVMs.  Only
input validation is shared with :mod:`.bound`; the information quantities
themselves come from independent formulas, so agreement between the two
modules is a real check.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bound import _check_density, _check_derivative
from .errors import DimensionMismatch, SingularOutcome, UnsupportedDerivative
from .numerics import herm_eig

#: Eigenvalue pairs with lambda_i + lambda_j below this cutoff are outside
#: the support of the SLD equation.
SLD_PAIR_CUTOFF = 1e-12

#: Derivative weight allowed on excluded (kernel-kernel) pairs.
SLD_EXCLUDED_WEIGHT_TOL = 1e-8

#: Eigenvalues of rho' closer than this are grouped into one projector.
POVM_CLUSTER_GAP = 1e-8

#: Outcome probabilities below this cutoff are excluded from classical
#: Fisher sums.
OUTCOME_PROB_CUTOFF = 1e-12


@dataclass(frozen=True)
class SldResult:
    """The SLD operator L, the QFI tr(rho L^2), and the number of
    eigenvalue pairs on which the SLD equation was solvable."""

    sld: np.ndarray
    qfi: float
    support_dim: int


@dataclass(frozen=True)
class Povm:
    """A complete set of Hermitian PSD measurement elements.

    ``degenerate`` marks POVMs built from a derivative with clustered
    eigenvalues, where some projectors cover more than one dimension.
    """

    elements: list[np.ndarray]
    degenerate: bool = False


def exact_qfi(rho: np.ndarray, rho_prime: np.ndarray) -> SldResult:
    """Quantum Fisher information via the spectral SLD solution.

    In the eigenbasis of rho, L_ij = 2 <i|rho'|j> / (lambda_i + lambda_j)
    on pairs with lambda_i + lambda_j > 1e-12 and 0 elsewhere;
    QFI = sum 2 |<i|rho'|j>|^2 / (lambda_i + lambda_j).  Derivative weight
    above 1e-8 max(1, ||rho'||_F) on excluded pairs raises UnsupportedDerivative.
    """
    m = _check_density(rho)
    mp = _check_derivative(rho_prime, m)
    if m.shape != mp.shape:
        raise DimensionMismatch(f"shape mismatch: {m.shape} vs {mp.shape}")
    lam, v = herm_eig(m)
    lam = np.clip(lam, 0.0, None)
    r = v.conj().T @ mp @ v
    pair_sum = lam[:, None] + lam[None, :]
    mask = pair_sum > SLD_PAIR_CUTOFF
    excluded_weight = float(np.linalg.norm(r[~mask]))
    # round-off of rho' on the kernel scales with rho', so the allowance does too
    if excluded_weight > SLD_EXCLUDED_WEIGHT_TOL * max(1.0, float(np.linalg.norm(r))):
        raise UnsupportedDerivative(
            f"derivative has weight {excluded_weight:.3e} outside the "
            f"support of the state"
        )
    l_eig = np.zeros_like(r)
    l_eig[mask] = 2.0 * r[mask] / pair_sum[mask]
    qfi = float(np.sum(2.0 * np.abs(r[mask]) ** 2 / pair_sum[mask]))
    sld = v @ l_eig @ v.conj().T
    return SldResult(sld=sld, qfi=qfi, support_dim=int(np.count_nonzero(mask)))


def optimal_povm_from_rho_prime(rho_prime: np.ndarray) -> Povm:
    """Eigenprojector measurement of the state derivative.

    Eigenvalues of rho' within 1e-8 of each other share one projector and
    the result is flagged degenerate; otherwise all projectors are rank 1.
    """
    mp = np.asarray(rho_prime, dtype=complex)
    lam, v = herm_eig(mp)
    elements: list[np.ndarray] = []
    degenerate = False
    start = 0
    for stop in range(1, lam.size + 1):
        if stop < lam.size and lam[stop] - lam[stop - 1] <= POVM_CLUSTER_GAP:
            continue
        block = v[:, start:stop]
        if stop - start > 1:
            degenerate = True
        elements.append(block @ block.conj().T)
        start = stop
    return Povm(elements=elements, degenerate=degenerate)


def _check_povm_dims(povm: Povm, dim: int) -> None:
    for e in povm.elements:
        if e.shape != (dim, dim):
            raise DimensionMismatch(
                f"POVM element of shape {e.shape} does not fit dimension {dim}"
            )


def classical_bound(povm: Povm, rho_prime: np.ndarray) -> float:
    """Classical counterpart of the gradient term: sum_j |tr(E_j rho')|^2.

    For the eigenprojector POVM of a non-degenerate rho' this equals
    tr(rho'^2).
    """
    mp = np.asarray(rho_prime, dtype=complex)
    _check_povm_dims(povm, mp.shape[0])
    return float(sum(abs(complex(np.trace(e @ mp))) ** 2 for e in povm.elements))


def classical_fisher(povm: Povm, rho: np.ndarray, rho_prime: np.ndarray) -> float:
    """Classical Fisher information sum_j (tr E_j rho')^2 / tr(E_j rho).

    Outcomes with probability below 1e-12 are excluded; if such an outcome
    carries probability derivative above 1e-8 a SingularOutcome warning is
    emitted (the term is still excluded).
    """
    m = np.asarray(rho, dtype=complex)
    mp = np.asarray(rho_prime, dtype=complex)
    _check_povm_dims(povm, m.shape[0])
    total = 0.0
    for j, e in enumerate(povm.elements):
        prob = float(np.trace(e @ m).real)
        dprob = float(np.trace(e @ mp).real)
        if prob <= OUTCOME_PROB_CUTOFF:
            if abs(dprob) > SLD_EXCLUDED_WEIGHT_TOL:
                warnings.warn(
                    f"outcome {j} has probability {prob:.3e} but derivative "
                    f"{dprob:.3e}; term excluded",
                    SingularOutcome,
                    stacklevel=2,
                )
            continue
        total += dprob**2 / prob
    return total
