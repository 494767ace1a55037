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
from dataclasses import dataclass

import numpy as np

from .bound import STATE_TOL, _bound_from_products, analytic_max_phase_covariant
from .channels import (
    EXPONENTIAL_FORM,
    EcsSpec,
    ShortTimeModel,
    _correlated_derivative,
    _require_rate,
    ecs_vector,
    loss_weight_rows,
    loss_weights,
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
from .numerics import loglog_slope, minimize_unimodal, solve_root_bisect

#: Scan resolution for locating the rightmost root of the crossover
#: equation before bisection refines it.
TAU_GRID_POINTS = 512

#: eta_perp floor defining the right edge of the tau search bracket.
TAU_ETA_FLOOR = 0.01

#: Relative tolerance for the first-order condition at t_opt_numeric.
STATIONARITY_RTOL = 1e-6

#: Copies of the ECS factor V that ecs_lower_bound_numeric holds at its peak,
#: charged to its budget.  The peak falls in the product rho = V V^dag, while
#: V, its conjugate and rho coexist: tracemalloc puts it at 3.40, 3.39, 3.39
#: and 3.39 V for n_max 100, 200, 300 and 400.
ECS_FACTOR_COPIES = 4


@dataclass(frozen=True)
class PrecisionConfig:
    """A scaling-sweep request: total time budget, probe counts, noise model."""

    total_time_T: float
    N_range: tuple[int, ...]
    model: ShortTimeModel

    def __post_init__(self) -> None:
        if not self.total_time_T > 0.0:
            raise ValueError(f"total time must be > 0, got {self.total_time_T}")
        ns = tuple(_whole_number(n, "a probe count", 1) for n in self.N_range)
        object.__setattr__(self, "N_range", ns)
        if not ns:
            raise ValueError("N_range must be nonempty")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError(f"N_range must be strictly increasing, got {ns}")


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
    under either short-time law; see :func:`t_opt_numeric` for that value.
    Both scale as N^{-1/beta_perp}, which is what the cost exponent needs.
    """
    if not alpha_perp > 0.0:
        raise ValueError(f"alpha_perp must be > 0, got {alpha_perp}")
    if not beta_perp > 0.0:
        raise ValueError(f"beta_perp must be > 0, got {beta_perp}")
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
        raise ValueError("alpha_perp must be > 0 for a finite crossover time")
    if n_probes == 1:
        return (model.alpha_perp * n_probes) ** (-1.0 / model.beta_perp)
    ratio = 2.0 * n_probes**2 / (n_probes - 1) ** 2

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
            f"crossover equation has no sign change on (0, {t_upper:.6g}]"
        )
    i = int(flips[-1])
    return solve_root_bisect(gap, float(grid[i]), float(grid[i + 1]), tol=1e-13 * float(grid[i + 1]))


def t_opt_numeric(model: ShortTimeModel, n_probes: int) -> float:
    """Minimizer of t / (N^2 t^2 eta_perp(t)^{2N} / 2) on the bracket (0, tau).

    The cost diverges as t -> 0, so a genuine optimum is always interior on
    the left; if the minimum sits at the right edge the true stationary
    point lies beyond tau and :class:`NoInteriorMinimum` is raised.  The
    returned point satisfies |d cost/dt| <= 1e-6 * cost/t.
    """
    n_probes = _whole_number(n_probes, "probe count", 1)
    hi = tau_solve(model, n_probes)
    lo = 1e-9 * hi

    def cost(t: float) -> float:
        eta = model.eta_perp_at(t)
        if not eta > 0.0:
            return math.inf
        return 2.0 / (n_probes**2 * t * eta ** (2 * n_probes))

    tol = 1e-11 * hi
    t_star, _ = minimize_unimodal(cost, lo, hi, tol=tol)
    if t_star >= hi - 3.0 * tol:
        raise NoInteriorMinimum(
            f"cost is still decreasing at the crossover time {hi:.6g}"
        )
    if t_star <= lo + 3.0 * tol:
        raise NoInteriorMinimum(
            f"cost is increasing from the left bracket edge {lo:.6g}"
        )
    h = 1e-5 * t_star
    slope = (cost(t_star + h) - cost(t_star - h)) / (2.0 * h)
    scale = cost(t_star) / t_star
    if abs(slope) > STATIONARITY_RTOL * scale:
        raise NoInteriorMinimum(
            f"first-order condition fails at t = {t_star:.6g}: "
            f"|dcost/dt| = {abs(slope):.3e} > {STATIONARITY_RTOL:.0e} * {scale:.3e}"
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
        per_n.append((n, t, t / (total_time * f_max)))
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


def interferometer_gram_diag(n_photons: int, eta: float, k: int, m: int) -> float:
    """Gram diagonal for the |k><m| coherence under loss + phase encoding.

    (k - m)^2 sum_l C(k,l) C(m,l) eta^{k+m-2l} (1-eta)^{2l}; symmetric in
    (k, m) and zero on the diagonal k = m.
    """
    n_photons = _whole_number(n_photons, "photon number", 1)
    if not 0.0 <= eta <= 1.0:
        raise RangeViolation(f"transmissivity must lie in [0, 1], got {eta}")
    for name, idx in (("k", k), ("m", m)):
        if not 0 <= idx <= n_photons:
            raise IndexOutOfRange(
                f"{name} = {idx} outside the Fock range 0..{n_photons}"
            )
    k, m = _whole_number(k, "k", 0), _whole_number(m, "m", 0)
    low, high = sorted((k, m))
    for level, row in enumerate(loss_weight_rows(high, eta, low)):
        if level == low:
            w_low = row
    # the loop ends on row `high`; levels above `low` add nothing to the sum
    return float((k - m) ** 2 * (row @ w_low))


def interferometer_optimal_m(n_photons: int, eta: float) -> int:
    """Partner level m maximizing the Gram diagonal at k = N.

    Scans m in {0, ..., N-1}; ties break toward smaller m.  An exhaustive
    scan over all (k, m) pairs, in blocks of rows, double-checks that the
    k = N row hosts the global maximum and emits :class:`MaxRowMismatch` if
    it does not.  N + 1 > MAX_DENSE_ROWS raises DimensionBudgetExceeded.
    """
    n_photons = _whole_number(n_photons, "photon number", 1)
    if not 0.0 <= eta <= 1.0:
        raise RangeViolation(f"transmissivity must lie in [0, 1], got {eta}")
    size = n_photons + 1
    require_budget(size, f"loss-weight rows at N = {n_photons}")
    w = loss_weights(n_photons, eta)
    levels = np.arange(float(size))
    step = max(1, 2**21 // size)  # blocks of at most 2^21 entries
    global_max = 0.0
    for start in range(0, size, step):
        # the diagonal is symmetric: rows start..stop-1 need columns 0..stop-1
        stop = min(start + step, size)
        block = (levels[start:stop, None] - levels[:stop]) ** 2 * (w[start:stop] @ w[:stop].T)
        global_max = max(global_max, float(np.max(block)))
    # the last block ends on row k = N and spans every column
    row = block[-1, :n_photons]
    m_best = int(np.argmax(row))
    row_max = float(row[m_best])
    if global_max > row_max * (1.0 + 1e-12):
        warnings.warn(
            f"largest Gram diagonal {global_max:.6g} lies off the k = N row "
            f"(row maximum {row_max:.6g}) for N = {n_photons}, eta = {eta:g}",
            MaxRowMismatch,
            stacklevel=2,
        )
    return m_best


# ---------------------------------------------------------------------------
# entangled coherent states


def ecs_lower_bound_closed(spec: EcsSpec, eta: float) -> EcsBreakdown:
    """Exact closed-form bound for the ECS with symmetric photon loss.

    xi = (1 + E1)^2 (1 + E2) + (1 - E1)^2 (1 - E2) with
    E1 = e^{-(1-eta)|alpha|^2}, E2 = e^{-eta|alpha|^2};
    f_C = (N_alpha^2 / 4) xi, f_H = (xi/2 - 1)/2, and the bound is
    2 n_bar eta f_C + (n_bar eta)^2 f_H.
    """
    if not 0.0 <= eta <= 1.0:
        raise RangeViolation(f"transmissivity must lie in [0, 1], got {eta}")
    mean = abs(spec.alpha) ** 2
    e1 = math.exp(-(1.0 - eta) * mean)
    e2 = math.exp(-eta * mean)
    xi = (1.0 + e1) ** 2 * (1.0 + e2) + (1.0 - e1) ** 2 * (1.0 - e2)
    f_c = spec.norm_const**2 / 4.0 * xi
    f_h = 0.5 * (xi / 2.0 - 1.0)
    n_eta = spec.mean_photons * eta
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
    if not 0.0 <= eta <= 1.0:
        raise RangeViolation(f"transmissivity must lie in [0, 1], got {eta}")
    mean = abs(spec.alpha) ** 2
    e1 = math.exp(-(1.0 - eta) * mean)
    return (1.0 + e1 * e1) / 4.0, e1 / 2.0


def ecs_lower_bound_practical(spec: EcsSpec, eta: float) -> float:
    """Bound assembled from the practical-tier f_C and f_H."""
    f_c, f_h = ecs_practical_forms(spec, eta)
    n_eta = spec.mean_photons * eta
    return 2.0 * n_eta * f_c + n_eta**2 * f_h


def ecs_lower_bound_numeric(spec: EcsSpec, eta: float, phi: float = 0.0) -> float:
    """Truncated-Fock evaluation of the bound for the lossy ECS.

    Phase encoding acts on arm a; photon loss with the same transmissivity
    acts on each arm independently (the symmetric-loss interferometer the
    closed form describes).  K_l is a shifted diagonal, so Kraus pair (l, r)
    maps the branch amplitudes E to sqrt(W[i+l, l] W[k+r, r]) E[i+l, k+r] at
    output levels (i, k), with W = loss_weights.  The suffix-OR mask
    reach[i, k] = any(E nonzero on [i:, k:]) names both the surviving pairs
    and the rows where the Kraus-branch factor V of rho = V V^dag can be
    nonzero, so V is gathered as reachable rows x kept pairs ((2 n_max + 1)^2
    entries for the ECS), with one flat index per entry, and rho is formed
    on the reachable levels by one product.

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
    if not 0.0 <= eta <= 1.0:
        raise RangeViolation(f"transmissivity must lie in [0, 1], got {eta}")
    dim = spec.n_max + 1
    require_budget(dim * dim, f"ECS amplitudes at n_max = {spec.n_max}", MAX_DENSE_ROWS**2)
    # mode a indexes rows, mode b columns
    branch = ecs_vector(spec).reshape(dim, dim)
    reach = np.logical_or.accumulate(branch[::-1] != 0, axis=0)[::-1]
    reach = np.logical_or.accumulate(reach[:, ::-1], axis=1)[:, ::-1]
    kept_a, kept_b = np.nonzero(reach)  # output levels (i, k), and lost photons (l, r)
    require_budget(
        ECS_FACTOR_COPIES * kept_a.size**2,
        f"entries of {ECS_FACTOR_COPIES} ECS factor copies at n_max = {spec.n_max}",
        MAX_DENSE_ROWS**2,
    )
    amplitudes = np.sqrt(loss_weights(spec.n_max, eta))
    # levels i + l and k + r before the loss; a branch from past n_max is zero
    kept_a, kept_b = kept_a.astype(np.int32), kept_b.astype(np.int32)
    source_a, source_b = kept_a[:, None] + kept_a, kept_b[:, None] + kept_b
    inside = (source_a < dim) & (source_b < dim)
    source_a *= inside
    source_b *= inside
    weight = amplitudes[source_a, kept_a]
    weight *= amplitudes[source_b, kept_b]
    weight *= inside
    # one flat index into E for the levels (i + l, k + r)
    source_a *= dim
    source_a += source_b
    v = branch.take(source_a)
    v *= weight
    del source_a, source_b, inside, weight
    # tr rho = ||V||_F^2, which a NaN or infinite entry makes fail the test too
    trace = float(np.vdot(v, v).real)
    if not abs(trace - 1.0) <= STATE_TOL:
        raise InvalidState(f"density matrix trace {trace:.9g} is not 1")
    rho = v @ v.conj().T
    del v
    abs_sq = rho.real**2
    abs_sq += rho.imag**2
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
