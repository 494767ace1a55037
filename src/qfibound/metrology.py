"""Estimation-scenario analytics built on the channel bound.

Interrogation-time optimization for phase-covariant noise, the crossover
time tau below which the GHZ state saturates the bound, precision-cost
scaling in the probe number, the optimal Fock superposition under photon
loss, and closed forms for entangled coherent states.

The figure of merit throughout is the cost t / (T * F_down_max) from the
time-resource Cramer-Rao bound: smaller is better, and its scaling with N
is the quantity of interest.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .bound import STATE_TOL, _bound_from_products, analytic_max_phase_covariant
from .channels import (
    EXPONENTIAL_FORM,
    EcsSpec,
    ShortTimeModel,
    _correlated_derivative,
    _kraus_diagonals,
    _require_rate,
    _require_transmissivity,
    ecs_vector,
)
from .errors import (
    IndexOutOfRange,
    InvalidState,
    MaxRowMismatch,
    NoInteriorMinimum,
    NoRoot,
    RangeViolation,
)
from .liouville import MAX_DENSE_ROWS, _whole_number, require_budget
from .numerics import loglog_slope, solve_root_bisect

#: Scan resolution for locating the rightmost root of the crossover
#: equation before bisection refines it.
TAU_GRID_POINTS = 512

#: eta_perp floor defining the right edge of the tau search bracket.
TAU_ETA_FLOOR = 0.01

#: Copies of the ECS factor V that ecs_lower_bound_numeric holds at its peak,
#: charged to its budget; a copy has V's own dtype.  For a real alpha the
#: peak falls in the gather, while the weights, the flat indices (8 bytes an
#: entry, as many as V) and V coexist: tracemalloc puts it at 3.56, 3.54,
#: 3.54 and 3.54 V for n_max 100, 200, 300 and 400.  For a complex alpha it
#: falls in the product rho = V V^dag, while V, its conjugate and rho
#: coexist: 3.41, 3.40, 3.40 and 3.39 V.
ECS_FACTOR_COPIES = 4

#: Arrays of N + 2 entries per eta that interferometer_scan holds at its
#: peak, charged to the sweep's budget: the sweep's three, the E update's
#: product, the weighted diagonal and the ranked row.  tracemalloc puts it at
#: 6.1 per eta for 22 etas at N = 4095, and at most 8.6 for fewer (4 etas at
#: N = 1000), where the squared gaps and numpy's iterator buffers weigh too.
INTERFEROMETER_SCAN_COPIES = 9


@dataclass(frozen=True)
class PrecisionConfig:
    """A scaling-sweep request: total time budget, probe counts, noise model."""

    total_time_T: float
    N_range: tuple[int, ...]
    model: ShortTimeModel

    def __post_init__(self) -> None:
        if not self.total_time_T > 0.0:
            raise RangeViolation(f"total time must be > 0, got {self.total_time_T}")
        ns = tuple(_whole_number(n, "a probe count", 1) for n in self.N_range)
        object.__setattr__(self, "N_range", ns)
        if not ns:
            raise RangeViolation("N_range must be nonempty")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise RangeViolation(f"N_range must be strictly increasing, got {ns}")


@dataclass(frozen=True)
class ScalingResult:
    """Per-N optimal times and costs plus the fitted log-log slope.

    ``slope`` is None when the sweep has a single probe count (no fit is
    possible); otherwise it is the least-squares slope of log(min_cost)
    against log(N).  ``predicted_exponent`` is -(2 beta_perp - 1)/beta_perp
    and ``c_lower`` the matching prefactor constant.
    """

    per_N: tuple[tuple[int, float, float], ...]
    slope: float | None
    predicted_exponent: float
    c_lower: float


@dataclass(frozen=True)
class EcsBreakdown:
    """Closed-form bound for an entangled coherent state, split into the
    shot-noise-like term 2 n_bar eta f_C and the Heisenberg-like term
    (n_bar eta)^2 f_H."""

    f_lower: float
    classical_term: float
    heisenberg_term: float
    xi: float
    f_c: float
    f_h: float


# ---------------------------------------------------------------------------
# interrogation-time optimization


def t_opt_paper(alpha_perp: float, beta_perp: float, n_probes: int) -> float:
    """Closed-form interrogation time (2 alpha_perp N (beta_perp + 1))^{-1/beta_perp}.

    Note this is not the stationary point of t / (N^2 t^2 eta_perp(t)^{2N})
    under either short-time law: that is (2 N alpha beta)^{-1/beta}
    (exponential) or (alpha (2 N beta + 1))^{-1/beta} (truncated), which
    :func:`t_opt_numeric` returns.  All three scale as N^{-1/beta_perp},
    which is what the cost exponent needs.
    """
    if not alpha_perp > 0.0:
        raise RangeViolation(f"alpha_perp must be > 0, got {alpha_perp}")
    if not beta_perp > 0.0:
        raise RangeViolation(f"beta_perp must be > 0, got {beta_perp}")
    n_probes = _whole_number(n_probes, "probe count", 1)
    return (2.0 * alpha_perp * n_probes * (beta_perp + 1.0)) ** (-1.0 / beta_perp)


def _eta_horizon(model: ShortTimeModel) -> float:
    """Time at which eta_perp(t) decays to TAU_ETA_FLOOR (search-window edge)."""
    if model.form == EXPONENTIAL_FORM:
        x = math.log(1.0 / TAU_ETA_FLOOR) / model.alpha_perp
    else:
        x = (1.0 - TAU_ETA_FLOOR) / model.alpha_perp
    return x ** (1.0 / model.beta_perp)


def tau_solve(model: ShortTimeModel, n_probes: int) -> float:
    """Largest time at which the GHZ state still saturates the channel bound.

    Solves 2 N^2/(N-1)^2 * eta_perp(t)^2 = s + sqrt(s^2 - 4 eta_par^2) with
    s = 1 + k^2 + eta_par^2, taking the rightmost root on (0, t_upper]
    where t_upper is the time eta_perp reaches 0.01.  For unital channels
    (k = 0) the right side collapses to 2, giving eta_perp(tau) = (N-1)/N
    and, for the truncated law, tau = (alpha_perp N)^{-1/beta_perp} exactly.

    For a single probe the left side degenerates (the saturation condition
    is vacuous), so the unital closed form (alpha_perp N)^{-1/beta_perp} is
    returned directly.
    """
    n_probes = _whole_number(n_probes, "probe count", 1)
    if not model.alpha_perp > 0.0:
        raise RangeViolation("alpha_perp must be > 0 for a finite crossover time")
    if n_probes == 1:
        return (model.alpha_perp * n_probes) ** (-1.0 / model.beta_perp)
    ratio = 2 * n_probes**2 / (n_probes - 1) ** 2  # exact for any N: no int-to-float overflow

    def gap(t: float) -> float:
        eta_perp = model.eta_perp_at(t)
        eta_par = model.eta_par_at(t)
        k = model.k_at(t)
        s = 1.0 + k * k + eta_par * eta_par
        disc = s * s - 4.0 * eta_par * eta_par
        return ratio * eta_perp * eta_perp - (s + math.sqrt(max(disc, 0.0)))

    t_upper = _eta_horizon(model)
    # The root scales like 1/N, so the grid must resolve many decades below
    # the horizon; a geometric grid gives ~40 points per decade.
    grid = np.geomspace(1e-12 * t_upper, t_upper, TAU_GRID_POINTS + 1)
    values = np.array([gap(t) for t in grid])
    signs = np.sign(values)
    flips = np.nonzero(signs[:-1] * signs[1:] <= 0.0)[0]
    if flips.size == 0:
        raise NoRoot(
            f"crossover equation at N = {n_probes} has no sign change on (0, {t_upper:.6g}]"
        )
    i = int(flips[-1])
    return solve_root_bisect(gap, float(grid[i]), float(grid[i + 1]), tol=1e-13 * float(grid[i + 1]))


def t_opt_numeric(model: ShortTimeModel, n_probes: int) -> float:
    """Minimizer of the cost t / (N^2 t^2 eta_perp(t)^{2N} / 2) on (0, tau).

    The cost is proportional to 1 / (t eta_perp^{2N}), so t d(log cost)/dt
    = -1 - 2 N t (log eta_perp)'(t), which is -1 + 2 N alpha beta t^beta for
    the exponential law and -1 + 2 N alpha beta t^beta / (1 - alpha t^beta)
    for the truncated law (alpha, beta the transverse pair).  Each rises in
    t and crosses zero once, at the stationary point

        exponential:  t* = (2 N alpha beta)^{-1/beta}
        truncated:    t* = (alpha (2 N beta + 1))^{-1/beta}

    which is returned when t* < tau_solve(model, N).  Otherwise the cost is
    still falling at tau and :class:`NoInteriorMinimum` is raised.
    """
    n_probes = _whole_number(n_probes, "probe count", 1)
    tau = tau_solve(model, n_probes)
    alpha, beta = model.alpha_perp, model.beta_perp
    if model.form == EXPONENTIAL_FORM:
        t_star = (2.0 * n_probes * alpha * beta) ** (-1.0 / beta)
    else:
        t_star = (alpha * (2.0 * n_probes * beta + 1.0)) ** (-1.0 / beta)
    if not t_star < tau:
        raise NoInteriorMinimum(
            f"the stationary point {t_star:.6g} lies at or past the crossover "
            f"time {tau:.6g}, so the cost is still falling there"
        )
    return t_star


def precision_scaling(config: PrecisionConfig) -> ScalingResult:
    """Sweep probe counts, optimize the interrogation time with
    :func:`t_opt_numeric`, fit the cost slope."""
    model = config.model
    total_time = config.total_time_T
    per_n: list[tuple[int, float, float]] = []
    for n in config.N_range:
        t = t_opt_numeric(model, n)
        f_max = 0.5 * analytic_max_phase_covariant(n, t, model.eta_perp_at(t))
        denominator = total_time * f_max
        if not (denominator > 0.0 and 0.0 < t / denominator < math.inf):
            raise RangeViolation(
                f"the cost at N = {n} is not finite and positive (T = {total_time:g}, "
                f"alpha_perp = {model.alpha_perp:g}, beta_perp = {model.beta_perp:g})"
            )
        per_n.append((n, t, t / denominator))
    slope: float | None = None
    if len(per_n) >= 2:
        slope = loglog_slope([(n, cost) for n, _, cost in per_n])
    beta = model.beta_perp
    alpha = model.alpha_perp
    c_lower = (
        (2.0 * alpha) ** (1.0 / beta)
        * (1.0 + beta) ** ((beta + 1.0) / beta)
        / (total_time * beta)
    )
    return ScalingResult(
        per_N=tuple(per_n),
        slope=slope,
        predicted_exponent=-(2.0 * beta - 1.0) / beta,
        c_lower=c_lower,
    )


# ---------------------------------------------------------------------------
# lossy interferometer: optimal Fock superposition |N> + |m>


def _gram_sweep(
    k_max: int, m_max: int, eta: float | Sequence[float]
) -> Iterator[tuple[int, np.ndarray]]:
    """S(k, m) = sum_l W[k, l] W[m, l], W[k, l] = C(k, l) eta^{k-l} (1-eta)^l,
    on [0, k_max] x [0, m_max]: yields (lo, s) for d = 0, ..., k_max + m_max,
    s[..., j] = S(lo + j, d - lo - j) on the anti-diagonal k + m = d, a view
    the next step overwrites; ``eta`` may be a scalar or a batch, which adds
    its axes in front.  With E(k, m) = S(k, m) - eta S(k-1, m), S = eta
    S(k-1, m) + E and E = eta E(k, m-1) + (1-eta)^2 S(k-1, m-1), from S(0, 0)
    = E(0, 0) = 1 and zeros at negative indices: no coefficient is negative,
    so nothing cancels.  An entry depends only on its own eta and on entries
    of smaller k and m, so it takes the same bits in any rectangle that holds
    it and in any batch.  Over MAX_DENSE_ROWS^2 entries per eta, or
    INTERFEROMETER_SCAN_COPIES arrays of k_max + 2 entries per eta in all,
    raise DimensionBudgetExceeded before any array exists.
    """
    require_budget((k_max + 1) * (m_max + 1), "interferometer Gram entries", MAX_DENSE_ROWS**2)
    eta = np.asarray(eta, float)[..., None]
    held = INTERFEROMETER_SCAN_COPIES * eta.size * (k_max + 2)
    require_budget(held, f"scan entries for {eta.size} transmissivities", MAX_DENSE_ROWS**2)
    loss = (1.0 - eta) ** 2
    # position k + 1 holds level k and position 0 the zero at k = -1; past a
    # diagonal's top level nothing was written, which is the zero at m = -1
    s_prev, s_old, e = np.zeros((3, *eta.shape[:-1], k_max + 2))
    s_prev[..., 1] = e[..., 1] = 1.0
    yield 0, s_prev[..., 1:2]
    for d in range(1, k_max + m_max + 1):
        lo, hi = max(0, d - m_max), min(d, k_max)
        e_d, s_d = e[..., lo + 1 : hi + 2], s_old[..., lo + 1 : hi + 2]
        e_d *= eta  # E keeps k, so it updates in place
        e_d += loss * s_old[..., lo : hi + 1]
        np.multiply(s_prev[..., lo : hi + 1], eta, out=s_d)  # S_d over S_{d-2}, now read
        s_d += e_d
        yield lo, s_d
        s_prev, s_old = s_old, s_prev


def interferometer_gram_diag(n_photons: int, eta: float, k: int, m: int) -> float:
    """Gram diagonal for the |k><m| coherence under loss + phase encoding.

    (k - m)^2 sum_l C(k,l) C(m,l) eta^{k+m-2l} (1-eta)^{2l}; symmetric in
    (k, m) and zero on the diagonal k = m.  It is the last entry of
    :func:`_gram_sweep` over [0, min(k, m)] x [0, max(k, m)].
    """
    n_photons = _whole_number(n_photons, "photon number", 1)
    _require_transmissivity(eta)
    for name, idx in (("k", k), ("m", m)):
        if not 0 <= idx <= n_photons:
            raise IndexOutOfRange(
                f"{name} = {idx} outside the Fock range 0..{n_photons}"
            )
    k, m = _whole_number(k, "k", 0), _whole_number(m, "m", 0)
    for _, s in _gram_sweep(min(k, m), max(k, m), eta):
        pass
    return float((k - m) ** 2 * s[0])


def interferometer_scan(n_photons: int, etas: Sequence[float]) -> list[tuple[int, float]]:
    """(m, Gram diagonal) of the best partner m of k = N, for each eta.

    Scans m in {0, ..., N-1}; ties break toward smaller m.  One
    :func:`_gram_sweep` over [0, N]^2 serves every eta: it reads the row as
    its mirror S(m, N), bit for bit what :func:`interferometer_gram_diag`
    returns, and checks every other (k, m) pair, where a larger one emits a
    :class:`MaxRowMismatch` naming its eta.
    """
    n_photons = _whole_number(n_photons, "photon number", 1)
    for eta in etas:
        _require_transmissivity(eta)
    sweep = _gram_sweep(n_photons, n_photons, etas)
    next(sweep)  # d = 0, at gap 0; the sweep's budget guards run first
    squared_gaps = np.arange(-n_photons, n_photons + 1.0) ** 2  # (k - m)^2 at k - m + N
    global_max, row = np.zeros(len(etas)), np.empty((len(etas), n_photons))
    for d, (lo, s) in enumerate(sweep, start=1):
        gram = s * squared_gaps[2 * lo - d + n_photons :: 2][: s.shape[-1]]  # k - m = 2k - d
        np.maximum(global_max, gram.max(axis=-1), out=global_max)
        if n_photons <= d < 2 * n_photons:
            row[:, d - n_photons] = gram[:, 0]  # (m, N) with m = d - N = lo
    best = row.argmax(axis=-1)
    scan = [(int(m), float(row[i, m])) for i, m in enumerate(best)]
    for eta, (_, row_max), top in zip(etas, scan, global_max.tolist()):
        if top > row_max * (1.0 + 1e-12):
            warnings.warn(
                f"largest Gram diagonal {top:.6g} lies off the k = N row "
                f"(row maximum {row_max:.6g}) for N = {n_photons}, eta = {eta:g}",
                MaxRowMismatch,
                stacklevel=2,
            )
    return scan


def interferometer_optimal_m(n_photons: int, eta: float) -> int:
    """Partner level m maximizing the Gram diagonal at k = N: the m of
    :func:`interferometer_scan` for the one transmissivity ``eta``."""
    return interferometer_scan(n_photons, [eta])[0][0]


# ---------------------------------------------------------------------------
# entangled coherent states


def ecs_lower_bound_closed(spec: EcsSpec, eta: float) -> EcsBreakdown:
    """Exact closed-form bound for the ECS with symmetric photon loss.

    xi = (1 + E1)^2 (1 + E2) + (1 - E1)^2 (1 - E2) with
    E1 = e^{-(1-eta)|alpha|^2}, E2 = e^{-eta|alpha|^2};
    f_C = (N_alpha^2 / 4) xi, f_H = (xi/2 - 1)/2, and the bound is
    2 n_bar eta f_C + (n_bar eta)^2 f_H.
    """
    _require_transmissivity(eta)
    mean = abs(spec.alpha) ** 2
    e1 = math.exp(-(1.0 - eta) * mean)
    e2 = math.exp(-eta * mean)
    xi = (1.0 + e1) ** 2 * (1.0 + e2) + (1.0 - e1) ** 2 * (1.0 - e2)
    f_c = spec.norm_const**2 / 4.0 * xi
    f_h = 0.5 * (xi / 2.0 - 1.0)
    n_eta = spec.mean_photons * eta
    if not math.isfinite(n_eta * n_eta):
        raise RangeViolation(f"the ECS bound at |alpha|^2 = {mean:g}, eta = {eta:g} overflows a float")
    classical = 2.0 * n_eta * f_c
    heisenberg = n_eta**2 * f_h
    return EcsBreakdown(
        f_lower=classical + heisenberg,
        classical_term=classical,
        heisenberg_term=heisenberg,
        xi=xi,
        f_c=f_c,
        f_h=f_h,
    )


def ecs_practical_forms(spec: EcsSpec, eta: float) -> tuple[float, float]:
    """High-energy approximation tier (f_C, f_H).

    f_C = (1 + e^{-2(1-eta)|alpha|^2})/4 and f_H = e^{-(1-eta)|alpha|^2}/2.
    These drop the e^{-eta|alpha|^2} corrections, so they approach the
    exact forms only for |alpha|^2 large; they are reported separately and
    never substituted into the exact bound.
    """
    _require_transmissivity(eta)
    mean = abs(spec.alpha) ** 2
    e1 = math.exp(-(1.0 - eta) * mean)
    return (1.0 + e1 * e1) / 4.0, e1 / 2.0


def ecs_lower_bound_numeric(spec: EcsSpec, eta: float, phi: float = 0.0) -> float:
    """Truncated-Fock evaluation of the bound for the lossy ECS.

    Phase encoding acts on arm a; photon loss with the same transmissivity
    acts on each arm independently (the symmetric-loss interferometer the
    closed form describes).  K_l is a shifted diagonal, so Kraus pair (l, r)
    maps the branch amplitudes E to D[i, l] D[k, r] E[i+l, k+r] at output
    levels (i, k), where D[i, l] = sqrt(C(i+l, l) eta^i (1-eta)^l) is the
    entry of K_l at level i (0 past n_max).  The suffix-OR mask
    reach[i, k] = any(E nonzero on [i:, k:]) names both the surviving pairs
    and the rows where the Kraus-branch factor V of rho = V V^dag can be
    nonzero, so V is gathered as reachable rows x kept pairs ((2 n_max + 1)^2
    entries for the ECS): E at the sum of the two flat indices, times two
    outer gathers of D.  D is built per call, one cumulative product of
    binomial ratios, only up to the highest kept level: E is 0 past it.

    V takes the dtype of E, which is real for a real alpha: then the gather,
    rho = V V^T (a symmetric product) and |rho_jk|^2 = rho_jk^2 all run in
    real arithmetic, and a complex E keeps the complex path.

    Loss commutes with e^{-i phi n_a} up to a phase per Kraus operator, so
    the encoded state is U rho U^dag with U = e^{-i phi n_a}, and rho' =
    -i [n_a, rho] exactly, on any two-mode support.  With n the a-mode level
    of each row, the inner products are (rho|rho) = sum |rho_jk|^2,
    (rho|rho') = -i sum (n_j - n_k) |rho_jk|^2 and (rho'|rho') = sum (n_j -
    n_k)^2 |rho_jk|^2; all three are unitarily invariant, so the bound does
    not depend on ``phi``, the phase is never applied, and any phi returns
    the phi = 0 value exactly.  rho is Hermitian and PSD, and rho' Hermitian
    and traceless, by construction; a non-finite entry and a trace off 1 are
    read off tr rho = ||V||_F^2.  DimensionBudgetExceeded is raised before
    the (n_max+1)^2 amplitudes when they exceed MAX_DENSE_ROWS^2 entries
    (n_max <= 4095 passes), and before the gather when ECS_FACTOR_COPIES
    copies of V would (n_max <= 1023 passes on the ECS support).
    """
    _require_transmissivity(eta)
    dim = spec.n_max + 1
    require_budget(dim * dim, f"ECS amplitudes at n_max = {spec.n_max}", MAX_DENSE_ROWS**2)
    # mode a indexes rows, mode b columns
    branch = ecs_vector(spec).reshape(dim, dim)
    reach = np.logical_or.accumulate(branch[::-1] != 0, axis=0)[::-1]
    reach = np.logical_or.accumulate(reach[:, ::-1], axis=1)[:, ::-1]
    kept = np.flatnonzero(reach)  # output levels (i, k), and lost photons (l, r)
    require_budget(
        ECS_FACTOR_COPIES * kept.size**2,
        f"entries of {ECS_FACTOR_COPIES} ECS factor copies at n_max = {spec.n_max}",
        MAX_DENSE_ROWS**2,
    )
    kept_a, kept_b = np.divmod(kept, dim)
    # D of the docstring up to the top kept level, past which E is 0
    diagonal = _kraus_diagonals(max(kept_a.max(), kept_b.max()), eta)
    weight = diagonal[np.ix_(kept_a, kept_a)]
    weight *= diagonal[np.ix_(kept_b, kept_b)]
    # E at (i + l, k + r) has the flat index (i, k) + (l, r); where a level
    # lies past n_max the weight is 0, so the index, clipped into range, may
    # read any entry
    v = branch.take(kept[:, None] + kept, mode="clip")
    v *= weight
    del weight
    # tr rho = ||V||_F^2, which a NaN or infinite entry makes fail the test too
    trace = float(np.vdot(v, v).real)
    if not abs(trace - 1.0) <= STATE_TOL:
        raise InvalidState(f"density matrix trace {trace:.9g} is not 1")
    # conj() of a real array is the array itself
    rho = v @ v.conj().T
    del v
    abs_sq = (rho * rho.conj()).real
    del rho
    purity = float(abs_sq.sum())
    gap = kept_a[:, None] - kept_a.astype(float)  # n_j - n_k
    abs_sq *= gap
    overlap = complex(0.0, -float(abs_sq.sum()))
    abs_sq *= gap
    return _bound_from_products(float(abs_sq.sum()), overlap, purity).f_lower


# ---------------------------------------------------------------------------
# correlated dephasing


def correlated_gram_max(n_probes: int, gamma: float, t: float) -> float:
    """Largest Gram diagonal for the two-atom correlated-dephasing probes.

    The maximum sits on coherences with alpha1 = +-N and alpha1 + alpha2 =
    0, which dephasing never touches, so the value N^2 t^2 is
    gamma-independent.  The map is diagonal, so the Gram diagonal is
    |Phi'|^2 elementwise, alpha1^2 t^2 e^{-2 alpha^2 gamma t}: the field
    strengths only set phases, so the maximum is read at w1 = w2 = 0.  An
    entry depends on its index only through the charges (alpha1, alpha2) in
    [-N, N]^2, and every pair occurs, so the maximum is read off that
    (2N+1)^2 grid in blocks of rows, from the channel's own entry formula:
    it is the maximum of the 16^N diagonal at w1 = w2 = 0, bit for bit, and
    nothing of that size is built.  N <= 2047 (MAX_DENSE_ROWS^2
    grid entries), checked before any allocation; gamma < 0 or t < 0 raises
    RangeViolation.
    """
    n = _whole_number(n_probes, "the number of probes", 1)
    _require_rate(gamma, t, "dephasing rate")
    require_budget((2 * n + 1) ** 2, f"charge pairs at N = {n}", MAX_DENSE_ROWS**2)
    charges = np.arange(-n, n + 1)
    step = max(1, 2**13 // charges.size)  # blocks of about 2^13 entries stay in cache
    best = 0.0
    for lo in range(0, charges.size, step):
        dphi = _correlated_derivative(charges[lo : lo + step, None], charges, 0.0, 0.0, gamma, t)
        best = float(np.maximum(best, (np.abs(dphi) ** 2).max()))  # NaN propagates
    return best
