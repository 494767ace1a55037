"""Concrete parameter-encoding channel families.

Qubit rotation about z, the general phase-covariant qubit noise (noise
composed with the encoding rotation), short-time noise models, correlated
dephasing on paired probes, photon loss as its binomial loss weights (with
their Kraus operators), and entangled-coherent-state preparation.

All qubit superoperators use the row-major |mu><nu| Liouville convention of
:mod:`.liouville`; the phase-covariant channel is the 4x4 matrix

    [[ J_pp, 0,        0,        J_pm ],
     [ 0,    .,        h e^-if,  0    ],
     [ 0,    h e^+if,  .,        0    ],
     [ J_mm, 0,        0,        J_mp ]]

with J_{s s'} = (1 + s k + s' eta_par)/2, h = eta_perp and f = omega*t +
theta.  The default ("verbatim") form carries the coherence factors on the
|01)<->|10| swap entries; the ``coherence_diagonal`` variant places them on
the |01)->|01), |10)->|10) diagonal instead.  The two forms share every
spectral quantity used by the bound machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    CptpViolation,
    RangeViolation,
    TruncationInsufficient,
)
from .liouville import ChannelFamily, Superoperator, _whole_number, require_budget

#: Slack for complete-positivity checks; amplitude damping sits exactly on
#: the boundary 1 + eta_par = sqrt(k^2 + 4 eta_perp^2).
CPTP_SLACK = 1e-12

TRUNCATED_FORM = "truncated-power-series"
EXPONENTIAL_FORM = "exponential-family"

DEPHASING = "dephasing"
DEPOLARIZING = "depolarizing"
AMPLITUDE_DAMPING = "amplitude_damping"

#: Tolerated tail probability outside the Fock truncation.
ECS_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class NoiseParams:
    """Phase-covariant qubit noise parameters (k, eta_par, eta_perp, theta).

    k displaces the Bloch z-axis, eta_par contracts it, eta_perp contracts
    the xy-plane, and theta offsets the coherence phase.  Construction
    validates the complete-positivity region

        eta_par + |k| <= 1   and   1 + eta_par >= sqrt(k^2 + 4 eta_perp^2)

    up to a 1e-12 slack (amplitude damping saturates the second condition).
    """

    k: float = 0.0
    eta_par: float = 1.0
    eta_perp: float = 1.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        k, ep, et = self.k, self.eta_par, self.eta_perp
        if not -1.0 <= k <= 1.0:
            raise CptpViolation(f"k = {k} outside [-1, 1]")
        if not -1.0 <= ep <= 1.0:
            raise CptpViolation(f"eta_par = {ep} outside [-1, 1]")
        if not 0.0 <= et <= 1.0:
            raise CptpViolation(f"eta_perp = {et} outside [0, 1]")
        if ep + k > 1.0 + CPTP_SLACK or ep - k > 1.0 + CPTP_SLACK:
            raise CptpViolation(
                f"eta_par +- k = {ep + k:.6g}, {ep - k:.6g} exceeds 1"
            )
        if 1.0 + ep < math.sqrt(k * k + 4.0 * et * et) - CPTP_SLACK:
            raise CptpViolation(
                f"1 + eta_par = {1 + ep:.6g} < sqrt(k^2 + 4 eta_perp^2) "
                f"= {math.sqrt(k * k + 4 * et * et):.6g}"
            )

    # population-block weights (1 +- k +- eta_par)/2
    @property
    def j_pp(self) -> float:
        return (1.0 + self.k + self.eta_par) / 2.0

    @property
    def j_pm(self) -> float:
        return (1.0 + self.k - self.eta_par) / 2.0

    @property
    def j_mp(self) -> float:
        return (1.0 - self.k + self.eta_par) / 2.0

    @property
    def j_mm(self) -> float:
        return (1.0 - self.k - self.eta_par) / 2.0


def rotation_superop(omega: float, t: float) -> Superoperator:
    """Encoding rotation U rho U^dag with U = e^{-i omega t sz/2}.

    Diagonal in the |mu><nu| basis: the |01) entry is e^{-i omega t}, the
    |10) entry e^{+i omega t}, populations untouched.
    """
    phase = np.exp(-1j * omega * t)
    return Superoperator(
        diag=np.array([1.0, phase, np.conj(phase), 1.0]), trace_preserving=True
    )


def rotation_derivative(omega: float, t: float) -> Superoperator:
    """d/d omega of :func:`rotation_superop`."""
    phase = np.exp(-1j * omega * t)
    return Superoperator(
        diag=np.array([0.0, -1j * t * phase, 1j * t * np.conj(phase), 0.0])
    )


def rotation_family(t: float) -> ChannelFamily:
    """The unitary encoding family omega -> U_omega rho U_omega^dag."""
    return ChannelFamily(
        evaluate=lambda omega: rotation_superop(omega, t),
        derivative=lambda omega: rotation_derivative(omega, t),
    )


def phase_covariant_superop(
    omega: float,
    t: float,
    params: NoiseParams,
    *,
    coherence_diagonal: bool = False,
) -> Superoperator:
    """Noisy encoding channel: rotation followed by phase-covariant noise.

    The default form carries the coherence factors eta_perp e^{-+i phi} on
    the |10)->|01| and |01)->|10| entries (so the noise part swaps the two
    coherence basis vectors); ``coherence_diagonal=True`` places them on
    the diagonal instead.  Populations and all Gram/bound quantities are
    identical between the two forms.
    """
    phi = omega * t + params.theta
    coh_minus = params.eta_perp * np.exp(-1j * phi)
    coh_plus = params.eta_perp * np.exp(+1j * phi)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = params.j_pp
    m[0, 3] = params.j_pm
    m[3, 0] = params.j_mm
    m[3, 3] = params.j_mp
    if coherence_diagonal:
        m[1, 1] = coh_minus
        m[2, 2] = coh_plus
    else:
        m[1, 2] = coh_minus
        m[2, 1] = coh_plus
    return Superoperator(m, trace_preserving=True)


def phase_covariant_derivative(
    omega: float,
    t: float,
    params: NoiseParams,
    *,
    coherence_diagonal: bool = False,
) -> Superoperator:
    """d/d omega of :func:`phase_covariant_superop` (populations are
    omega-independent; coherences pick up -+ i t)."""
    phi = omega * t + params.theta
    d_minus = -1j * t * params.eta_perp * np.exp(-1j * phi)
    d_plus = +1j * t * params.eta_perp * np.exp(+1j * phi)
    m = np.zeros((4, 4), dtype=complex)
    if coherence_diagonal:
        m[1, 1] = d_minus
        m[2, 2] = d_plus
    else:
        m[1, 2] = d_minus
        m[2, 1] = d_plus
    return Superoperator(m)


def phase_covariant_family(
    t: float, params: NoiseParams, *, coherence_diagonal: bool = False
) -> ChannelFamily:
    """The noisy-encoding family omega -> J . U_omega with analytic derivative."""
    return ChannelFamily(
        evaluate=lambda omega: phase_covariant_superop(
            omega, t, params, coherence_diagonal=coherence_diagonal
        ),
        derivative=lambda omega: phase_covariant_derivative(
            omega, t, params, coherence_diagonal=coherence_diagonal
        ),
    )


def named_noise(kind: str, strength: float, t: float) -> NoiseParams:
    """Semigroup parameter settings for the standard qubit channels.

    dephasing: (k, eta_par, eta_perp) = (0, 1, e^{-strength t});
    depolarizing: (0, e^{-strength t}, e^{-strength t});
    amplitude_damping: k = 1 - e^{-strength t}, eta_par = 1 - k,
    eta_perp = sqrt(1 - k).
    """
    if strength < 0.0:
        raise RangeViolation(f"noise strength must be >= 0, got {strength}")
    if t < 0.0:
        raise RangeViolation(f"time must be >= 0, got {t}")
    decay = math.exp(-strength * t)
    if kind == DEPHASING:
        return NoiseParams(k=0.0, eta_par=1.0, eta_perp=decay)
    if kind == DEPOLARIZING:
        return NoiseParams(k=0.0, eta_par=decay, eta_perp=decay)
    if kind == AMPLITUDE_DAMPING:
        return NoiseParams(
            k=1.0 - decay, eta_par=decay, eta_perp=math.sqrt(decay)
        )
    raise ValueError(
        f"unknown noise kind {kind!r}; expected one of "
        f"{DEPHASING!r}, {DEPOLARIZING!r}, {AMPLITUDE_DAMPING!r}"
    )


@dataclass(frozen=True)
class ShortTimeModel:
    """Short-time laws for the phase-covariant noise parameters.

    truncated-power-series:  eta = 1 - alpha t^beta,   k = alpha_k t^beta_k
    exponential-family:      eta = e^{-alpha t^beta},  k = 1 - e^{-alpha_k t^beta_k}

    The exponential form agrees with the truncated one to O(t^{2 beta}) and
    stays physical for all t >= 0.  beta exponents are > 0; the contraction
    coefficients alpha_perp and alpha_par are >= 0.
    """

    alpha_perp: float
    beta_perp: float
    alpha_par: float = 0.0
    beta_par: float = 1.0
    alpha_k: float = 0.0
    beta_k: float = 1.0
    form: str = TRUNCATED_FORM

    def __post_init__(self) -> None:
        if self.form not in (TRUNCATED_FORM, EXPONENTIAL_FORM):
            raise ValueError(
                f"form must be {TRUNCATED_FORM!r} or {EXPONENTIAL_FORM!r}, "
                f"got {self.form!r}"
            )
        for name in ("beta_perp", "beta_par", "beta_k"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("alpha_perp", "alpha_par"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def eta_perp_at(self, t: float) -> float:
        x = self.alpha_perp * t**self.beta_perp
        return math.exp(-x) if self.form == EXPONENTIAL_FORM else 1.0 - x

    def eta_par_at(self, t: float) -> float:
        x = self.alpha_par * t**self.beta_par
        return math.exp(-x) if self.form == EXPONENTIAL_FORM else 1.0 - x

    def k_at(self, t: float) -> float:
        x = self.alpha_k * t**self.beta_k
        return -math.expm1(-x) if self.form == EXPONENTIAL_FORM else x


def params_at(model: ShortTimeModel, t: float, theta: float = 0.0) -> NoiseParams:
    """Evaluate a short-time model at time t as validated NoiseParams."""
    if t < 0.0:
        raise RangeViolation(f"time must be >= 0, got {t}")
    eta_perp = model.eta_perp_at(t)
    eta_par = model.eta_par_at(t)
    k = model.k_at(t)
    if not 0.0 <= eta_perp <= 1.0:
        raise RangeViolation(
            f"eta_perp(t={t:g}) = {eta_perp:.6g} outside [0, 1]"
        )
    if not 0.0 <= eta_par <= 1.0:
        raise RangeViolation(f"eta_par(t={t:g}) = {eta_par:.6g} outside [0, 1]")
    if not -1.0 <= k <= 1.0:
        raise RangeViolation(f"k(t={t:g}) = {k:.6g} outside [-1, 1]")
    return NoiseParams(k=k, eta_par=eta_par, eta_perp=eta_perp, theta=theta)


# ---------------------------------------------------------------------------
# correlated dephasing on N probes of two atoms each


def _correlated_alphas(n_probes: int) -> tuple[np.ndarray, np.ndarray]:
    """Index sums (alpha1, alpha2) for every |mu><nu| on 2N qubits.

    alpha1 collects mu_i - nu_i over the first atom of each probe (sites
    1, 3, ..., 2N-1 in 1-based counting), alpha2 over the second atoms.
    """
    n_qubits = 2 * n_probes
    dim = 2**n_qubits
    rows = dim * dim
    require_budget(rows, f"diagonal entries of correlated dephasing on {n_probes} probes")
    g = np.arange(rows)
    mu, nu = np.divmod(g, dim)
    alpha1 = np.zeros(rows, dtype=np.int64)
    alpha2 = np.zeros(rows, dtype=np.int64)
    for i in range(n_qubits):
        shift = 2 ** (n_qubits - 1 - i)
        diff = (mu // shift) % 2 - (nu // shift) % 2
        if i % 2 == 0:
            alpha1 += diff
        else:
            alpha2 += diff
    return alpha1, alpha2


def _correlated_diag(
    alphas: tuple[np.ndarray, np.ndarray], omega1: float, omega2: float, gamma: float, t: float
) -> Superoperator:
    alpha1, alpha2 = alphas
    alpha = alpha1 + alpha2
    diag = np.exp(
        1j * (alpha1 * omega1 + alpha2 * omega2) * t - alpha**2 * gamma * t
    )
    return Superoperator(diag=diag, trace_preserving=True)


def correlated_dephasing_diag(
    n_probes: int, omega1: float, omega2: float, gamma: float, t: float
) -> Superoperator:
    """Correlated-dephasing encoding channel on N two-atom probes.

    Diagonal in the computational Liouville basis with elements
    e^{i(alpha1 w1 + alpha2 w2) t - alpha^2 gamma t}, alpha = alpha1 +
    alpha2.  Elements with alpha = 0 keep magnitude 1 for every gamma
    (the decoherence-free subspace).
    """
    return _correlated_diag(_correlated_alphas(n_probes), omega1, omega2, gamma, t)


def correlated_dephasing_family(
    n_probes: int, omega2: float, gamma: float, t: float
) -> ChannelFamily:
    """Family in the frequency difference w_bar = w1 - w2 (w2 held fixed).

    Each diagonal element depends on w_bar only through e^{i alpha1 w_bar t},
    so the analytic derivative multiplies by i alpha1 t.  The index sums
    alpha1 and alpha2 are computed once per family, not per evaluation.
    """
    alphas = _correlated_alphas(n_probes)

    def evaluate(omega_bar: float) -> Superoperator:
        return _correlated_diag(alphas, omega_bar + omega2, omega2, gamma, t)

    def derivative(omega_bar: float) -> Superoperator:
        return Superoperator(diag=1j * alphas[0] * t * evaluate(omega_bar).diag)

    return ChannelFamily(evaluate=evaluate, derivative=derivative)


# ---------------------------------------------------------------------------
# photon loss


def loss_weight_rows(n_max: int, eta: float, max_level: int) -> Iterator[np.ndarray]:
    """Yield W[k, :max_level+1] for k = 0..n_max, where W[k, l] =
    C(k, l) eta^{k-l} (1-eta)^l is the chance that k photons lose l (0 for l > k).

    Each row follows from the last by W[k, l] = eta W[k-1, l] + (1-eta) W[k-1, l-1],
    written as eta times the row plus (1-eta) times the row shifted one level
    up, into one new array per row: no row yielded earlier is changed.  The
    entries stay in [0, 1], so nothing overflows at any photon number.
    """
    row = np.eye(1, max_level + 1)[0]
    for _ in range(n_max):
        yield row
        nxt = eta * row
        nxt[1:] += (1.0 - eta) * row[:-1]
        row = nxt
    yield row


def loss_weights(n_max: int, eta: float) -> np.ndarray:
    """The (n_max+1)^2 matrix W of :func:`loss_weight_rows`, its rows written
    in turn into one preallocated table."""
    rows = loss_weight_rows(n_max, eta, n_max)
    return np.fromiter(rows, np.dtype((float, n_max + 1)), count=n_max + 1)


def loss_kraus(n_max: int, eta: float) -> list[np.ndarray]:
    """Kraus operators of the photon-loss channel on a truncated Fock space:
    the operator view of :func:`loss_weights`.

    K_l |k> = sqrt(C(k, l) eta^{k-l} (1-eta)^l) |k-l> for l <= k.  The set
    {K_0, ..., K_{n_max}} is exactly complete on the truncated space.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    n_max = _whole_number(n_max, "n_max", 0)
    amplitudes = np.sqrt(loss_weights(n_max, eta))
    return [np.diag(amplitudes[level:, level], k=level) for level in range(n_max + 1)]


# ---------------------------------------------------------------------------
# entangled coherent states


@dataclass(frozen=True)
class EcsSpec:
    """Entangled coherent state N_alpha (|alpha, 0> + |0, alpha>) with a
    per-mode Fock truncation at n_max."""

    alpha: complex
    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _whole_number(self.n_max, "n_max", 0))

    @classmethod
    def for_alpha(cls, alpha: complex) -> "EcsSpec":
        """Truncation with coherent-tail mass comfortably below 1e-12."""
        mean = abs(alpha) ** 2
        return cls(alpha=alpha, n_max=int(math.ceil(mean + 10.0 * math.sqrt(mean) + 10.0)))

    @property
    def norm_const(self) -> float:
        """N_alpha = [2 (1 + e^{-|alpha|^2})]^{-1/2}."""
        return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-abs(self.alpha) ** 2)))

    @property
    def mean_photons(self) -> float:
        """n_bar = 2 N_alpha^2 |alpha|^2."""
        return 2.0 * self.norm_const**2 * abs(self.alpha) ** 2

    def coherent_amplitudes(self) -> np.ndarray:
        """Fock amplitudes <n|alpha> for n = 0..n_max."""
        amps = np.zeros(self.n_max + 1, dtype=complex)
        amps[0] = math.exp(-abs(self.alpha) ** 2 / 2.0)
        for n in range(1, self.n_max + 1):
            amps[n] = amps[n - 1] * self.alpha / math.sqrt(n)
        return amps

    def tail_mass(self) -> float:
        """Probability of the coherent branch beyond the truncation."""
        return _tail_mass(self.coherent_amplitudes())

    def require_truncation(self) -> np.ndarray:
        """The amplitudes of :meth:`coherent_amplitudes`, once their tail mass
        is checked: TruncationInsufficient when it reaches ECS_TAIL_TOL."""
        amps = self.coherent_amplitudes()
        tail = _tail_mass(amps)
        if tail >= ECS_TAIL_TOL:
            raise TruncationInsufficient(
                f"coherent tail mass {tail:.3e} at n_max = {self.n_max} "
                f"exceeds {ECS_TAIL_TOL:.0e}"
            )
        return amps


def _tail_mass(amps: np.ndarray) -> float:
    """Probability beyond the Fock amplitudes ``amps`` of a unit vector."""
    return max(1.0 - float(np.sum(np.abs(amps) ** 2)), 0.0)


def ecs_vector(spec: EcsSpec) -> np.ndarray:
    """Two-mode state vector of the ECS in the kron(|n_a>, |n_b>) basis.

    Only the 2 n_max + 1 entries of |alpha, 0> + |0, alpha> are written:
    mode a's branch on column n_b = 0, mode b's on row n_a = 0.  The
    coherent amplitudes are computed once, for the truncation check and
    the state.
    """
    c = spec.require_truncation()
    dim = c.size
    psi = np.zeros(dim * dim, dtype=complex)
    psi[::dim] = c
    psi[:dim] += c
    psi *= spec.norm_const
    return psi
