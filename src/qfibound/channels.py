"""Concrete parameter-encoding channel families.

The general phase-covariant qubit noise (noise composed with the encoding
rotation, whose noiseless case is the rotation about z), short-time noise
models, the entries of correlated dephasing on paired probes (as functions
of their charges, for ``correlated_gram_max``), photon loss as one table of
its Kraus diagonals, and entangled-coherent-state preparation.  Every
channel is a plain d^2 x d^2 complex array.

All qubit superoperators use the row-major |mu><nu| Liouville convention of
:mod:`.liouville`; the phase-covariant channel is the 4x4 matrix

    [[ J_pp, 0,        0,        J_pm ],
     [ 0,    h e^-if,  0,        0    ],
     [ 0,    0,        h e^+if,  0    ],
     [ J_mm, 0,        0,        J_mp ]]

with J_{s s'} = (1 + s k + s' eta_par)/2, h = eta_perp and f = omega*t +
theta.  It is completely positive exactly on the region NoiseParams
accepts.  Since omega enters only through the phase of the output
coherences, the derivative in omega is the map itself times -i t Q,
Q = diag(0, 1, -1, 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CptpViolation,
    RangeViolation,
    TruncationInsufficient,
)
from .liouville import _CHARGE, ChannelFamily, _check_trace_preserving, _whole_number
from .liouville import MAX_DENSE_ROWS, require_budget

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


def rotation_family(t: float) -> ChannelFamily:
    """The unitary encoding family omega -> U_omega rho U_omega^dag with
    U = e^{-i omega t sz/2}: noiseless phase-covariant noise, diagonal in
    the |mu><nu| basis (|01) picks up e^{-i omega t}, |10) e^{+i omega t})."""
    return phase_covariant_family(t, NoiseParams())


def _qubit_map(omega: float, t: float, params: NoiseParams) -> np.ndarray:
    """The 4 x 4 matrix of the module docstring: the one place where the
    coherence phase e^{-+i phi} is computed."""
    coh = params.eta_perp * np.exp(-1j * (omega * t + params.theta))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[0, 3], m[3, 0], m[3, 3] = params.j_pp, params.j_pm, params.j_mm, params.j_mp
    m[1, 1], m[2, 2] = coh, coh.conjugate()
    return m


def phase_covariant_superop(omega: float, t: float, params: NoiseParams) -> np.ndarray:
    """Noisy encoding channel, rotation followed by phase-covariant noise:
    its 4 x 4 matrix, checked to preserve the trace.

    The coherence factors eta_perp e^{-+i phi} sit on the |01)->|01| and
    |10)->|10| diagonal entries, so the map is completely positive exactly
    where NoiseParams accepts its parameters.
    """
    return _check_trace_preserving(_qubit_map(omega, t, params))


def phase_covariant_derivative(omega: float, t: float, params: NoiseParams) -> np.ndarray:
    """d/d omega of :func:`phase_covariant_superop`, read off the map as
    -i t Q Phi with Q = diag(0, 1, -1, 0) the charge nu - mu of the output
    |mu><nu|: the noise commutes with the rotation, so omega enters only as
    the output phase e^{-i Q (omega t + theta)}."""
    return -1j * t * _CHARGE[:, None] * _qubit_map(omega, t, params)


def phase_covariant_family(t: float, params: NoiseParams) -> ChannelFamily:
    """The noisy-encoding family omega -> J . U_omega with analytic derivative."""
    return ChannelFamily(
        evaluate=lambda omega: phase_covariant_superop(omega, t, params),
        derivative=lambda omega: phase_covariant_derivative(omega, t, params),
    )


def _require_rate(rate: float, t: float, what: str) -> None:
    """RangeViolation for a negative rate or time, which would amplify."""
    if rate < 0.0:
        raise RangeViolation(f"{what} must be >= 0, got {rate}")
    if t < 0.0:
        raise RangeViolation(f"time must be >= 0, got {t}")


def _require_transmissivity(eta: float) -> None:
    """RangeViolation for a transmissivity outside [0, 1] (or nan)."""
    if not 0.0 <= eta <= 1.0:
        raise RangeViolation(f"transmissivity must lie in [0, 1], got {eta}")


def named_noise(kind: str, strength: float, t: float) -> NoiseParams:
    """Semigroup parameter settings for the standard qubit channels.

    dephasing: (k, eta_par, eta_perp) = (0, 1, e^{-strength t});
    depolarizing: (0, e^{-strength t}, e^{-strength t});
    amplitude_damping: k = 1 - e^{-strength t}, eta_par = 1 - k,
    eta_perp = sqrt(1 - k).
    """
    _require_rate(strength, t, "noise strength")
    decay = math.exp(-strength * t)
    if kind == DEPHASING:
        return NoiseParams(k=0.0, eta_par=1.0, eta_perp=decay)
    if kind == DEPOLARIZING:
        return NoiseParams(k=0.0, eta_par=decay, eta_perp=decay)
    if kind == AMPLITUDE_DAMPING:
        return NoiseParams(
            k=1.0 - decay, eta_par=decay, eta_perp=math.sqrt(decay)
        )
    raise RangeViolation(
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
    coefficients alpha_perp and alpha_par are finite and >= 0.
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
            raise RangeViolation(
                f"form must be {TRUNCATED_FORM!r} or {EXPONENTIAL_FORM!r}, "
                f"got {self.form!r}"
            )
        for name in ("beta_perp", "beta_par", "beta_k"):
            if not getattr(self, name) > 0.0:
                raise RangeViolation(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("alpha_perp", "alpha_par"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise RangeViolation(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def eta_perp_at(self, t: float) -> float:
        x = _power_law(self.alpha_perp, self.beta_perp, t)
        return math.exp(-x) if self.form == EXPONENTIAL_FORM else 1.0 - x

    def eta_par_at(self, t: float) -> float:
        x = _power_law(self.alpha_par, self.beta_par, t)
        return math.exp(-x) if self.form == EXPONENTIAL_FORM else 1.0 - x

    def k_at(self, t: float) -> float:
        x = _power_law(self.alpha_k, self.beta_k, t)
        return -math.expm1(-x) if self.form == EXPONENTIAL_FORM else x


def _power_law(alpha: float, beta: float, t: float) -> float:
    """alpha t^beta in Python floats, for any scalar t: 0 when alpha = 0, and
    inf signed as alpha where the power overflows."""
    try:
        return float(alpha) * math.pow(t, beta) if alpha else 0.0
    except OverflowError:
        return math.copysign(math.inf, alpha)


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
#
# The channel is diagonal in the |mu><nu| basis of the 2N qubits, and its
# entry depends on the index only through the charges alpha1 (the set bits
# of the first atoms in mu less those in nu) and alpha2 (the second atoms').


def _correlated_phase(alpha1, alpha2, omega1: float, omega2: float, gamma: float, t: float):
    """The channel entry e^{i(alpha1 w1 + alpha2 w2) t - (alpha1 + alpha2)^2
    gamma t}, elementwise; it keeps magnitude 1 where alpha1 + alpha2 = 0
    (the decoherence-free subspace)."""
    alpha = alpha1 + alpha2
    return np.exp(1j * (alpha1 * omega1 + alpha2 * omega2) * t - alpha**2 * gamma * t)


def _correlated_derivative(alpha1, alpha2, omega1: float, omega2: float, gamma: float, t: float):
    """d/dw1 of :func:`_correlated_phase`, i alpha1 t times it: the entries
    of the derivative map that ``correlated_gram_max`` reads on its charge
    grid."""
    return 1j * alpha1 * t * _correlated_phase(alpha1, alpha2, omega1, omega2, gamma, t)


# ---------------------------------------------------------------------------
# photon loss


def _kraus_diagonals(n_max: int, eta: float) -> np.ndarray:
    """The (n_max+1)^2 table D[i, l] = sqrt(C(i+l, l) eta^i (1-eta)^l), the
    entry of the loss Kraus operator K_l at output level i, and 0 past n_max.

    With p = max(eta, 1-eta), C(a+b, b) p^a (1-p)^b is p^a times the product
    of (a+j)(1-p)/j over j = 1..b: one cumulative product along b, transposed
    when eta < 1/2 (a then counts lost photons).  Each partial product is a
    probability, so nothing overflows, and the start p^a >= 2^-a is a float
    up to n_max = 1023, past every level the loss budgets admit.
    """
    p = max(eta, 1.0 - eta)
    levels = np.arange(n_max + 1.0)
    table = np.empty((n_max + 1, n_max + 1))
    table[:, 0] = p**levels
    table[:, 1:] = (levels[:, None] + levels[1:]) * ((1.0 - p) / levels[1:])
    amp = np.sqrt(np.cumprod(table, axis=1, out=table), out=table)
    amp[np.tri(n_max + 1, k=-1, dtype=bool)[:, ::-1]] = 0.0  # a + b > n_max
    return amp if eta >= 0.5 else amp.T


def loss_kraus(n_max: int, eta: float) -> list[np.ndarray]:
    """Kraus operators K_l |k> = sqrt(C(k, l) eta^{k-l} (1-eta)^l) |k-l>, l <= k,
    of the photon-loss channel on a truncated Fock space: K_l carries column l
    of :func:`_kraus_diagonals` on its l-th superdiagonal.  {K_0, ...,
    K_{n_max}} is exactly complete on the truncated space, and its (n_max+1)^3
    entries are held to MAX_DENSE_ROWS^2 (n_max <= 255).
    """
    _require_transmissivity(eta)
    n_max = _whole_number(n_max, "n_max", 0)
    require_budget((n_max + 1) ** 3, f"loss Kraus entries at n_max = {n_max}", MAX_DENSE_ROWS**2)
    diagonals = _kraus_diagonals(n_max, eta)
    return [np.diag(diagonals[: n_max + 1 - level, level], k=level) for level in range(n_max + 1)]


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
        """Fock amplitudes <n|alpha> for n = 0..n_max: float64 when alpha has
        no imaginary part, complex128 otherwise."""
        alpha = complex(self.alpha)
        alpha = alpha.real if alpha.imag == 0.0 else alpha
        amps = np.zeros(self.n_max + 1, dtype=type(alpha))
        amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(1, self.n_max + 1):
            amps[n] = amps[n - 1] * alpha / math.sqrt(n)
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
    the state, whose dtype they set: float64 for a real alpha, complex128
    otherwise.
    """
    c = spec.require_truncation()
    dim = c.size
    psi = np.zeros(dim * dim, dtype=c.dtype)
    psi[::dim] = c
    psi[:dim] += c
    psi *= spec.norm_const
    return psi
