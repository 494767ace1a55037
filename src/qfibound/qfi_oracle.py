"""Independent ground truth for the bound machinery.

Exact quantum Fisher information through the symmetric logarithmic
derivative (SLD), the exact Bures distance, the eigenprojector measurement
built from the state derivative, and classical Fisher information for
arbitrary POVMs.  Only input validation is shared with :mod:`.bound`; the
information quantities themselves come from independent formulas, so
agreement between the two modules is a real check.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bound import _check_density, _check_derivative
from .errors import DimensionMismatch, SingularOutcome, UnsupportedDerivative
from .numerics import herm_eig, psd_sqrt

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
    above 1e-8 on excluded pairs raises UnsupportedDerivative.
    """
    m = _check_density(rho)
    mp = _check_derivative(rho_prime)
    if m.shape != mp.shape:
        raise DimensionMismatch(f"shape mismatch: {m.shape} vs {mp.shape}")
    lam, v = herm_eig(m)
    lam = np.clip(lam, 0.0, None)
    r = v.conj().T @ mp @ v
    pair_sum = lam[:, None] + lam[None, :]
    mask = pair_sum > SLD_PAIR_CUTOFF
    excluded_weight = float(np.linalg.norm(r[~mask]))
    if excluded_weight > SLD_EXCLUDED_WEIGHT_TOL:
        raise UnsupportedDerivative(
            f"derivative has weight {excluded_weight:.3e} outside the "
            f"support of the state"
        )
    l_eig = np.zeros_like(r)
    l_eig[mask] = 2.0 * r[mask] / pair_sum[mask]
    qfi = float(np.sum(2.0 * np.abs(r[mask]) ** 2 / pair_sum[mask]))
    sld = v @ l_eig @ v.conj().T
    return SldResult(sld=sld, qfi=qfi, support_dim=int(np.count_nonzero(mask)))


def pure_state_qfi(psi: np.ndarray, psi_prime: np.ndarray) -> float:
    """Textbook pure-state formula 4 (<psi'|psi'> - |<psi|psi'>|^2)."""
    a = np.asarray(psi, dtype=complex).reshape(-1)
    b = np.asarray(psi_prime, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise DimensionMismatch(f"dimension mismatch: {a.size} vs {b.size}")
    return 4.0 * float(np.vdot(b, b).real - abs(np.vdot(a, b)) ** 2)


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
