"""Seeded random instances: states, channels, and differentiable families.

Everything takes an explicit ``numpy.random.Generator`` so suites stay
deterministic and independent streams can run in parallel.
"""
from __future__ import annotations

import numpy as np

from .channels import EXPONENTIAL_FORM, NoiseParams, ShortTimeModel, params_at
from .errors import CptpViolation, RangeViolation
from .liouville import ChannelFamily, _check_trace_preserving, superop_from_kraus
from .numerics import herm_eig


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed R diagonal."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Rank-1 density matrix of a Haar-random ket."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_mixed_state(rng: np.random.Generator, dim: int, *, rank: int | None = None) -> np.ndarray:
    """Full-rank (by default) random density matrix from a Wishart draw."""
    k = rank if rank is not None else dim
    g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int, *, traceless: bool = False) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2.0
    if traceless:
        h -= np.trace(h).real / dim * np.eye(dim)
    return h


def random_kraus_set(rng: np.random.Generator, dim: int, n_kraus: int) -> list[np.ndarray]:
    """A random CPTP channel as Kraus operators (from a Haar isometry)."""
    g = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_kraus)]


def random_unitary_family(
    rng: np.random.Generator, dim: int, *, scale: float = 1.0
) -> ChannelFamily:
    """Unitary family x -> e^{-i x H} rho e^{+i x H} with analytic derivative."""
    h = random_hermitian(rng, dim) * scale
    w, v = herm_eig(h)

    def unitary(x: float) -> np.ndarray:
        return (v * np.exp(-1j * x * w)) @ v.conj().T

    def unitary_prime(x: float) -> np.ndarray:
        return (v * (-1j * w * np.exp(-1j * x * w))) @ v.conj().T

    def evaluate(x: float) -> np.ndarray:
        u = unitary(x)
        return _check_trace_preserving(np.kron(u, u.conj()))

    def derivative(x: float) -> np.ndarray:
        u, du = unitary(x), unitary_prime(x)
        return np.kron(du, u.conj()) + np.kron(u, du.conj())

    return ChannelFamily(evaluate=evaluate, derivative=derivative)


def random_noisy_family(
    rng: np.random.Generator, dim: int, n_kraus: int, *, scale: float = 1.0
) -> ChannelFamily:
    """A fixed random CPTP channel composed after a random unitary family."""
    noise = superop_from_kraus(random_kraus_set(rng, dim, n_kraus))
    base = random_unitary_family(rng, dim, scale=scale)
    return ChannelFamily(
        evaluate=lambda x: noise @ base.evaluate(x),
        derivative=lambda x: noise @ base.derivative(x),
    )


def random_short_time_model(rng: np.random.Generator) -> ShortTimeModel:
    """Random exponential-family noise model biased into the CPTP region.

    The transverse contraction decays at least as fast as the longitudinal
    one, which keeps 1 + eta_par >= sqrt(k^2 + 4 eta_perp^2) satisfiable;
    draws are still validated downstream and callers should resample on
    CptpViolation.
    """
    beta = float(rng.uniform(0.6, 2.0))
    alpha_perp = float(rng.uniform(0.3, 1.2))
    alpha_par = float(rng.uniform(0.0, alpha_perp))
    alpha_k = float(rng.uniform(0.0, alpha_par)) if rng.uniform() < 0.7 else 0.0
    return ShortTimeModel(
        alpha_perp=alpha_perp,
        beta_perp=beta,
        alpha_par=alpha_par,
        beta_par=beta,
        alpha_k=alpha_k,
        beta_k=beta,
        form=EXPONENTIAL_FORM,
    )


def random_cptp_params(
    rng: np.random.Generator, t: float, *, max_tries: int = 200
) -> NoiseParams:
    """Rejection-sample a CPTP-valid phase-covariant parameter set at time t."""
    for _ in range(max_tries):
        model = random_short_time_model(rng)
        try:
            return params_at(model, t, theta=float(rng.uniform(0.0, 2.0 * np.pi)))
        except (CptpViolation, RangeViolation):
            continue
    raise CptpViolation(f"no CPTP parameter set found in {max_tries} draws")
