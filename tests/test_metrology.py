from __future__ import annotations

import dataclasses
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    correlated_dephasing_family,
    ecs_lower_bound_practical,
    loss_weights,
    lower_bound_from_factor,
    recurrence_kraus,
)
from qfibound import channels, metrology
from qfibound.bound import analytic_max_phase_covariant, lower_bound_from_state
from qfibound.channels import (
    EXPONENTIAL_FORM,
    TRUNCATED_FORM,
    EcsSpec,
    ShortTimeModel,
    _correlated_derivative,
    ecs_vector,
    loss_kraus,
    named_noise,
)
from qfibound.errors import (
    DimensionBudgetExceeded,
    IndexOutOfRange,
    InvalidState,
    MaxRowMismatch,
    NoInteriorMinimum,
    NoRoot,
    QfiboundError,
    RangeViolation,
    TruncationInsufficient,
)
from qfibound.liouville import (
    MAX_DENSE_ROWS,
    ChannelFamily,
    gram_triple,
    require_budget,
    superop_from_kraus,
)
from qfibound.numerics import loglog_slope
from qfibound.sampling import random_short_time_model
from qfibound.metrology import (
    EcsBreakdown,
    PrecisionConfig,
    correlated_gram_max,
    ecs_lower_bound_closed,
    ecs_lower_bound_numeric,
    ecs_practical_forms,
    INTERFEROMETER_SCAN_COPIES,
    interferometer_gram_diag,
    interferometer_optimal_m,
    interferometer_scan,
    precision_scaling,
    t_opt_numeric,
    t_opt_paper,
    tau_solve,
)


class _Unreached(Exception):
    """Raised by a stand-in for the first allocating call."""


def _unreached(*args, **kwargs):
    raise _Unreached


def _ecs_support(spec):
    """A stand-in for ecs_vector with the ECS support (one arm in vacuum);
    the other pages of its array are never written."""
    dim = spec.n_max + 1
    psi = np.zeros((dim, dim))
    psi[0, :] = psi[:, 0] = 1.0
    return psi.reshape(-1)


class TestTOptPaper:
    def test_closed_form_value(self):
        # (2 * 0.5 * 10 * (1 + 1))^{-1}
        assert_allclose(t_opt_paper(0.5, 1.0, 10), 0.05, rtol=1e-15)

    def test_beta_two(self):
        assert_allclose(t_opt_paper(1.0, 2.0, 8), (2.0 * 8.0 * 3.0) ** -0.5, rtol=1e-14)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            t_opt_paper(0.0, 1.0, 4)


class TestTauSolve:
    @pytest.mark.parametrize(
        "alpha,beta,n",
        [(0.5, 1.0, 10), (1.0, 2.0, 4), (0.1, 1.0, 2), (1.2, 2.0, 64)],
    )
    def test_truncated_closed_form(self, alpha, beta, n):
        model = ShortTimeModel(alpha_perp=alpha, beta_perp=beta)
        assert_allclose(tau_solve(model, n), (alpha * n) ** (-1.0 / beta), rtol=1e-8)

    @pytest.mark.parametrize("alpha,beta,n", [(0.5, 1.0, 10), (1.0, 2.0, 4)])
    def test_exponential_closed_form(self, alpha, beta, n):
        model = ShortTimeModel(alpha_perp=alpha, beta_perp=beta, form=EXPONENTIAL_FORM)
        expected = (math.log(n / (n - 1.0)) / alpha) ** (1.0 / beta)
        assert_allclose(tau_solve(model, n), expected, rtol=1e-8)

    def test_large_probe_counts_still_resolve(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        assert_allclose(tau_solve(model, 4096), 1.0 / 2048.0, rtol=1e-8)

    def test_single_probe_returns_unital_form(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=2.0)
        assert_allclose(tau_solve(model, 1), 0.5**-0.5, rtol=1e-14)

    def test_precedes_paper_time(self):
        for alpha in (0.1, 0.5, 1.0):
            for beta in (1.0, 2.0):
                for form in (TRUNCATED_FORM, EXPONENTIAL_FORM):
                    model = ShortTimeModel(alpha_perp=alpha, beta_perp=beta, form=form)
                    for n in (2, 5, 17, 64):
                        assert t_opt_paper(alpha, beta, n) < tau_solve(model, n)

    def test_no_root_when_crossover_precedes_grid(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        with pytest.raises(NoRoot):
            tau_solve(model, 10**15)

    def test_rejects_zero_probes(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        with pytest.raises(ValueError):
            tau_solve(model, 0)


def _cost(model, n, t):
    """t / (T F_max) at T = 1, with F_max = N^2 t^2 eta_perp(t)^{2N} / 2
    evaluated from the model's own law."""
    return 2.0 / (n**2 * t * model.eta_perp_at(t) ** (2 * n))


def _assert_minimum_of_cost(model, n, t_star):
    """t_star is a minimum of the cost itself, not only of its closed form."""
    for step in (1.0 - 1e-3, 1.0 + 1e-3):
        assert _cost(model, n, t_star) < _cost(model, n, t_star * step), (model, n, step)


class TestTOptNumeric:
    def test_exponential_stationary_point(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form=EXPONENTIAL_FORM)
        # d/dt [t / (N^2 t^2 e^{-2 N alpha t})] = 0 at t = 1/(2 N alpha beta)
        assert_allclose(t_opt_numeric(model, 10), 0.1, rtol=1e-6)

    def test_truncated_stationary_point(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        # root of alpha t (2 N + 1) = 1 for beta = 1
        assert_allclose(t_opt_numeric(model, 10), 2.0 / 21.0, rtol=1e-6)

    def test_interior_check_fires_for_slow_decay_exponent(self):
        # beta < 1/2 pushes the stationary point past the crossover
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=0.4, form=EXPONENTIAL_FORM)
        with pytest.raises(NoInteriorMinimum):
            t_opt_numeric(model, 10)

    @pytest.mark.parametrize("form", [TRUNCATED_FORM, EXPONENTIAL_FORM])
    def test_every_large_probe_count_answers(self, form):
        # at alpha = beta = 1 the optimum is 1/(2N + 1) (truncated) or 1/(2N)
        model = ShortTimeModel(alpha_perp=1.0, beta_perp=1.0, form=form)
        shift = 1 if form == TRUNCATED_FORM else 0
        for n in np.unique(np.round(np.geomspace(100, 200000, 200)).astype(int)):
            n = int(n)
            assert_allclose(t_opt_numeric(model, n), 1.0 / (2 * n + shift), rtol=1e-12)

    def test_pinned_large_probe_counts(self):
        for form, n, expected in (
            (EXPONENTIAL_FORM, 8398, 1.0 / 16796.0),
            (EXPONENTIAL_FORM, 30000, 1.0 / 60000.0),
            (TRUNCATED_FORM, 8398, 1.0 / 16797.0),
            (TRUNCATED_FORM, 30000, 1.0 / 60001.0),
        ):
            model = ShortTimeModel(alpha_perp=1.0, beta_perp=1.0, form=form)
            t_star = t_opt_numeric(model, n)
            assert_allclose(t_star, expected, rtol=1e-12)
            _assert_minimum_of_cost(model, n, t_star)

    def test_interior_exactly_when_cost_rises_before_tau(self, rng):
        # random_short_time_model draws beta in (0.6, 2), where almost every
        # optimum is interior; a transverse beta on (0.3, 1) also reaches
        # beta < 1/2, where the stationary point passes the crossover
        outcomes = set()
        for _ in range(100):
            drawn = random_short_time_model(rng)
            drawn = dataclasses.replace(drawn, beta_perp=float(rng.uniform(0.3, 1.0)))
            for form in (TRUNCATED_FORM, EXPONENTIAL_FORM):
                model = dataclasses.replace(drawn, form=form)
                for n in (2, 5, 20, 100):
                    tau = tau_solve(model, n)
                    falling = _cost(model, n, tau) < _cost(model, n, tau * (1.0 - 1e-6))
                    try:
                        t_star = t_opt_numeric(model, n)
                    except NoInteriorMinimum:
                        assert falling, (model, n)
                        outcomes.add("past tau")
                        continue
                    assert not falling, (model, n)
                    _assert_minimum_of_cost(model, n, t_star)
                    outcomes.add("interior")
        assert outcomes == {"interior", "past tau"}


class TestPrecisionScaling:
    def test_exponential_slope_and_prefactor(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form=EXPONENTIAL_FORM)
        config = PrecisionConfig(total_time_T=1.0, N_range=(8, 16, 32, 64), model=model)
        result = precision_scaling(config)
        assert_allclose(result.slope, -1.0, rtol=1e-10)
        assert_allclose(result.predicted_exponent, -1.0)
        assert_allclose(result.c_lower, 4.0, rtol=1e-12)

    def test_beta_two_slope(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=2.0, form=EXPONENTIAL_FORM)
        config = PrecisionConfig(total_time_T=1.0, N_range=(8, 16, 32, 64), model=model)
        result = precision_scaling(config)
        assert_allclose(result.slope, -1.5, rtol=1e-10)

    def test_min_cost_value(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form=EXPONENTIAL_FORM)
        config = PrecisionConfig(total_time_T=1.0, N_range=(8,), model=model)
        result = precision_scaling(config)
        n, t_star, cost = result.per_N[0]
        assert n == 8
        assert_allclose(t_star, 0.125, rtol=1e-6)
        # cost = 2 / (N^2 t eta^{2N}) = e / 4 at the stationary point
        assert_allclose(cost, math.e / 4.0, rtol=1e-6)

    def test_single_point_has_no_slope(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form=EXPONENTIAL_FORM)
        config = PrecisionConfig(total_time_T=1.0, N_range=(16,), model=model)
        assert precision_scaling(config).slope is None

    def test_paper_driver_same_slope(self):
        # the cost 1 / (T F_max / t) at the closed-form t_opt_paper has the
        # slope of precision_scaling's numeric optimum
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form=EXPONENTIAL_FORM)
        costs = []
        for n in (8, 16, 32):
            t = t_opt_paper(model.alpha_perp, model.beta_perp, n)
            f_max = 0.5 * analytic_max_phase_covariant(n, t, model.eta_perp_at(t))
            costs.append((n, t / f_max))
        assert_allclose(loglog_slope(costs), -1.0, rtol=1e-10)

    def test_config_validation(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        with pytest.raises(ValueError):
            PrecisionConfig(total_time_T=0.0, N_range=(8,), model=model)
        with pytest.raises(ValueError):
            PrecisionConfig(total_time_T=1.0, N_range=(), model=model)
        with pytest.raises(ValueError):
            PrecisionConfig(total_time_T=1.0, N_range=(8, 8), model=model)


def loss_phase_family(n_photons, eta):
    """The dense photon-loss channel after the phase e^{-i phi n} on the Fock
    levels 0..N of one arm, as a family in phi: the real channel whose Gram
    diagonal interferometer_gram_diag gives in closed form."""
    loss = superop_from_kraus(loss_kraus(n_photons, eta))
    levels = np.arange(n_photons + 1)
    delta = (levels[:, None] - levels[None, :]).reshape(-1)  # k - m at |k><m|

    def evaluate(phi):
        return loss @ np.diag(np.exp(-1j * phi * delta))

    def derivative(phi):
        return loss @ np.diag(-1j * delta * np.exp(-1j * phi * delta))

    return ChannelFamily(evaluate=evaluate, derivative=derivative)


class TestInterferometerGram:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.77, 1.0])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_gram_of_the_loss_phase_channel(self, n, eta):
        gram = gram_triple(loss_phase_family(n, eta), 0.9)[1]
        # row k (N + 1) + m of the Gram matrix is the coherence |k><m|
        diag = np.diag(gram).reshape(n + 1, n + 1)
        assert_allclose(diag.imag, 0.0, atol=1e-14)
        want = [[interferometer_gram_diag(n, eta, k, m) for m in range(n + 1)] for k in range(n + 1)]
        assert_allclose(diag.real, want, rtol=1e-12, atol=0.0)

    def test_hand_value(self):
        assert_allclose(interferometer_gram_diag(2, 0.5, 2, 1), 0.375, rtol=1e-15)

    def test_symmetric_in_levels(self):
        a = interferometer_gram_diag(5, 0.7, 4, 1)
        b = interferometer_gram_diag(5, 0.7, 1, 4)
        assert_allclose(a, b, rtol=1e-14)

    def test_zero_on_diagonal(self):
        assert interferometer_gram_diag(5, 0.7, 3, 3) == 0.0

    def test_far_level_matches_binomial_sum(self):
        # only the levels l <= min(k, m) enter, however large k is
        k, m, eta = 20_000, 3, 0.9995
        direct = sum(
            math.comb(k, l) * math.comb(m, l) * eta ** (k + m - 2 * l) * (1 - eta) ** (2 * l)
            for l in range(m + 1)
        )
        assert_allclose(interferometer_gram_diag(k, eta, k, m), (k - m) ** 2 * direct, rtol=1e-9)

    def test_lossless_coherence(self):
        # eta = 1 keeps only l = 0: value (k - m)^2
        assert_allclose(interferometer_gram_diag(6, 1.0, 6, 0), 36.0)

    def test_bounds_checked(self):
        with pytest.raises(IndexOutOfRange):
            interferometer_gram_diag(3, 0.5, 4, 0)
        with pytest.raises(IndexOutOfRange):
            interferometer_gram_diag(3, 0.5, 2, -1)
        with pytest.raises(ValueError):
            interferometer_gram_diag(0, 0.5, 0, 0)


class TestInterferometerOptimalM:
    @pytest.mark.parametrize("eta,expected", [(1.0, 0), (0.8, 6), (0.5, 12)])
    def test_twenty_photon_values(self, eta, expected):
        assert interferometer_optimal_m(20, eta) == expected

    def test_monotone_in_eta(self):
        etas = np.linspace(0.5, 1.0, 11)
        ms = [interferometer_optimal_m(20, float(e)) for e in etas]
        assert all(b <= a for a, b in zip(ms, ms[1:]))

    def test_weight_budget_edge(self, monkeypatch):
        # the sweep charges (N+1)^2 Gram entries: exactly 4096^2 at N = 4095
        def guard_then_stop(*args):
            require_budget(*args)
            raise _Unreached

        monkeypatch.setattr(metrology, "require_budget", guard_then_stop)
        with pytest.raises(_Unreached):
            interferometer_optimal_m(4095, 0.9)
        with pytest.raises(DimensionBudgetExceeded):
            interferometer_optimal_m(4096, 0.9)

    @pytest.mark.parametrize(
        "k,m,printed", [(1300, 5, "1.67702e"), (1450, 5, "2.08802e"), (5, 1450, "2.08802e")]
    )
    def test_off_row_maximum_found_in_any_block(self, monkeypatch, k, m, printed):
        # one entry S(k, m) off the k = N row set to 1 at N = 1500, worth
        # (k - m)^2 where the true row maximum is 464; the patch is made on a
        # copy, so it does not feed the recurrence
        sweep = metrology._gram_sweep

        def patched(*args):
            for d, (lo, s) in enumerate(sweep(*args)):
                if d == k + m:
                    s = s.copy()
                    s[..., k - lo] = 1.0
                yield lo, s

        monkeypatch.setattr(metrology, "_gram_sweep", patched)
        with pytest.warns(MaxRowMismatch, match=printed):
            interferometer_optimal_m(1500, 0.9)

    def test_no_off_row_warning_in_working_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in (0.5, 0.75, 1.0):
                interferometer_optimal_m(30, eta)


DEFAULT_ETAS = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]


class TestInterferometerScan:
    """One sweep answers a whole table of transmissivities."""

    @pytest.mark.parametrize(
        "etas",
        [[0.0], [1.0], [0.5], [0.9, 0.5, 0.9, 0.9], DEFAULT_ETAS],
        ids=["zero", "one", "half", "duplicates", "defaults"],
    )
    @pytest.mark.parametrize("n", [1, 2, 20, 300, 1000])
    def test_matches_the_per_eta_pair_bit_for_bit(self, n, etas):
        # the batch reads the same bits as a sweep of each eta alone, and
        # prints what a probe of the ranked entry returns
        want = []
        for eta in etas:
            m = interferometer_optimal_m(n, eta)
            want.append((m, interferometer_gram_diag(n, eta, n, m)))
        assert interferometer_scan(n, etas) == want

    def test_empty_table(self):
        assert interferometer_scan(20, []) == []

    def test_refuses_a_bad_eta_before_sweeping(self, monkeypatch):
        monkeypatch.setattr(metrology, "_gram_sweep", _unreached)
        with pytest.raises(RangeViolation, match="transmissivity"):
            interferometer_scan(20, [0.9, 1.5])

    def test_off_row_warning_names_its_eta(self, monkeypatch):
        # S(190, 5) set to 1 for the middle eta only, worth 185^2 where every
        # row maximum at N = 200 is below 2000
        sweep = metrology._gram_sweep

        def patched(*args):
            for d, (lo, s) in enumerate(sweep(*args)):
                if d == 195:
                    s = s.copy()
                    s[1, 190 - lo] = 1.0
                yield lo, s

        monkeypatch.setattr(metrology, "_gram_sweep", patched)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            interferometer_scan(200, [0.6, 0.8, 0.95])
        assert [w.category for w in caught] == [MaxRowMismatch]
        assert str(caught[0].message).endswith("for N = 200, eta = 0.8")
        assert "34225" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_memory_is_linear_in_the_eta_count(self):
        # the sweep charges INTERFEROMETER_SCAN_COPIES arrays of N + 2 entries
        # per eta, and the measured peak stays under that charge.  Each added
        # eta costs the same six arrays once the batch outgrows the 8192
        # entries of numpy's iterator buffer (9 etas at N = 1000); below it,
        # the broadcast products buffer a part of their operands as well
        peaks = []
        for n, count in ((1000, 1), (1000, 9), (1000, 10), (1000, 11), (2000, 11)):
            tracemalloc.start()
            try:
                interferometer_scan(n, DEFAULT_ETAS[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] <= INTERFEROMETER_SCAN_COPIES * 8 * count * (n + 2), (n, count)
        assert_allclose(peaks[3] - peaks[2], peaks[2] - peaks[1], rtol=0.05)
        assert peaks[-1] < 2e6

    def test_batch_budget_edge(self, monkeypatch):
        # at N = 4095 the batch charge admits 455 etas and refuses 456, before
        # any array exists and before any eta is swept
        n = 4095
        most = MAX_DENSE_ROWS**2 // (INTERFEROMETER_SCAN_COPIES * (n + 2))
        assert most == 455
        with monkeypatch.context() as patch:
            patch.setattr(metrology.np, "zeros", _unreached)
            with pytest.raises(_Unreached):
                interferometer_scan(n, [0.9] * most)
        etas = [0.9] * (most + 1)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(DimensionBudgetExceeded, match="456 transmissivities"):
                interferometer_scan(n, etas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 64e3


def swept_gram(n, eta):
    """The (N+1)^2 table S(k, m) of metrology._gram_sweep over [0, N]^2."""
    got = np.full((n + 1, n + 1), np.nan)
    for d, (lo, s) in enumerate(metrology._gram_sweep(n, n, eta)):
        k = np.arange(lo, lo + s.size)
        got[k, d - k] = s
    return got


def exact_gram(k, m, eta):
    """S(k, m) = sum_l W[k, l] W[m, l] at a dyadic eta = a / 2^b, in integers:
    the term C(k, l) C(m, l) a^{k+m-2l} (2^b - a)^{2l} over 2^{b(k+m)}, each
    term read off the last one."""
    a, scale = eta.numerator, eta.denominator
    lost = scale - a
    term = a ** (k + m)
    total = 0
    for l in range(min(k, m) + 1):
        total += term
        term = term * (k - l) * (m - l) * lost**2 // ((l + 1) ** 2 * a**2)
    return Fraction(total, scale ** (k + m))


class TestGramSweep:
    """The anti-diagonal recurrence behind both interferometer functions,
    against the dense W W^T of the row recurrence and exact rationals."""

    @pytest.mark.parametrize("eta", [0.0, 1e-6, 0.1, 0.5, 0.7, 0.999, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 30, 150, 400, 1000])
    def test_matches_dense_oracle(self, n, eta):
        w = loss_weights(n, eta)
        want = w @ w.T
        got = swept_gram(n, eta)
        # below 1e-290 both sides have lost digits to underflow
        normal = want >= 1e-290
        assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)
        assert_allclose(got[~normal], want[~normal], rtol=0.0, atol=1e-290)
        row = (n - np.arange(n)) ** 2 * want[n, :n]
        assert interferometer_optimal_m(n, eta) == int(np.argmax(row))

    @pytest.mark.parametrize(
        "eta", [Fraction(1, 16), Fraction(1, 2), Fraction(3, 4), Fraction(1023, 1024), Fraction(8191, 8192)], ids=str
    )
    def test_row_is_exact_to_round_off(self, eta):
        # the k = N row at N = 4095, read as S(m, N) the way
        # interferometer_optimal_m reads it: the ends, the row maximum and
        # its neighbours, and sampled levels; entries below 1e-290 are skipped
        n = 4095
        column = np.empty(n + 1)
        for d, (lo, s) in enumerate(metrology._gram_sweep(n, n, float(eta))):
            if d >= n:
                column[d - n] = s[0]
        best = int(np.argmax((n - np.arange(n)) ** 2 * column[:n]))
        levels = {0, 1, n - 1, best, max(best - 1, 0), min(best + 1, n - 1)}
        levels.update(np.random.default_rng(n).integers(0, n, size=2).tolist())
        checked = 0
        for m in sorted(levels):
            want = exact_gram(n, m, eta)
            if want < Fraction(1, 10**290):
                continue
            assert abs(column[m] - want) <= Fraction(1, 10**13) * want, m
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("eta", [0.5, 0.9])
    def test_probes_read_the_scanned_row_bit_for_bit(self, eta):
        # interferometer_gram_diag sweeps only [0, m] x [0, N], and S(m, N)
        # takes the same bits there as in the [0, N]^2 sweep whose row
        # interferometer_optimal_m ranks: the CLI prints the ranked value
        n = 40
        column = swept_gram(n, eta)[:, n]
        probed = [interferometer_gram_diag(n, eta, n, m) for m in range(n)]
        assert probed == ((n - np.arange(n)) ** 2 * column[:n]).tolist()
        assert interferometer_optimal_m(n, eta) == probed.index(max(probed))

    def test_memory_is_linear_in_n(self):
        # a weight table and its W W^T blocks peaked at 71 MB at N = 2000
        tracemalloc.start()
        try:
            interferometer_optimal_m(2000, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_loss_kraus_budget_edge(monkeypatch):
    # the n_max + 1 operators hold (n_max+1)^3 entries: 256^3 = 4096^2 at
    # n_max = 255, against a budget of 4096^2
    monkeypatch.setattr(channels, "_kraus_diagonals", _unreached)
    with pytest.raises(_Unreached):
        loss_kraus(255, 0.9)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionBudgetExceeded):
            loss_kraus(256, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e3


class TestWholeNumberArguments:
    """A whole-number float such as 3.0 stands for its integer; any other
    non-integer raises ValueError instead of reaching numpy."""

    def test_whole_floats_act_as_integers(self):
        assert ecs_lower_bound_numeric(EcsSpec(1.0, 30.0), 0.9) == ecs_lower_bound_numeric(
            EcsSpec(1.0, 30), 0.9
        )
        assert_array_equal(ecs_vector(EcsSpec(1.0, 30.0)), ecs_vector(EcsSpec(1.0, 30)))
        for got, want in zip(loss_kraus(3.0, 0.5), loss_kraus(3, 0.5), strict=True):
            assert_array_equal(got, want)
        assert interferometer_optimal_m(20.0, 0.8) == interferometer_optimal_m(20, 0.8)
        assert interferometer_gram_diag(3.0, 0.5, 3.0, 1.0) == interferometer_gram_diag(3, 0.5, 3, 1)
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        ns = PrecisionConfig(total_time_T=1.0, N_range=(8.0, 16.0), model=model).N_range
        assert ns == (8, 16) and all(type(n) is int for n in ns)

    def test_whole_float_probe_counts(self):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        assert tau_solve(model, 3.0) == tau_solve(model, 3)
        assert t_opt_numeric(model, 3.0) == t_opt_numeric(model, 3)
        assert t_opt_paper(0.5, 1.0, 3.0) == t_opt_paper(0.5, 1.0, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: interferometer_optimal_m(2.5, 0.5),
            lambda: interferometer_gram_diag(3, 0.5, 2.5, 1),
            lambda: interferometer_gram_diag(3, 0.5, 3, 0.5),
            lambda: PrecisionConfig(
                total_time_T=1.0, N_range=(2.5,), model=ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
            ),
            lambda: EcsSpec(1.0, math.inf),
            lambda: tau_solve(ShortTimeModel(alpha_perp=0.5, beta_perp=1.0), 2.5),
            lambda: t_opt_numeric(ShortTimeModel(alpha_perp=0.5, beta_perp=1.0), 2.5),
            lambda: t_opt_paper(0.5, 1.0, 2.5),
        ],
        ids=[
            "optimal-m", "gram-diag-k", "gram-diag-m", "precision-config", "ecs-spec-inf",
            "tau-solve", "t-opt-numeric", "t-opt-paper",
        ],
    )
    def test_rejects_non_integers(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


_MODEL = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)


# id -> a call that reaches one refusal that once raised a bare ValueError,
# and a fragment of its message
TYPED_REFUSALS = {
    "whole-number": (lambda: EcsSpec(1.0, 2.5), "n_max must be an integer >= 0"),
    "noise-kind": (lambda: named_noise("bogus", 1.0, 1.0), "unknown noise kind"),
    "model-form": (lambda: ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form="bogus"), "form must be"),
    "model-beta": (lambda: ShortTimeModel(alpha_perp=0.5, beta_perp=0.0), "beta_perp must be > 0"),
    "model-alpha": (lambda: ShortTimeModel(alpha_perp=math.nan, beta_perp=1.0), "alpha_perp must be finite"),
    "total-time": (lambda: PrecisionConfig(total_time_T=0.0, N_range=(2,), model=_MODEL), "total time must be > 0"),
    "empty-range": (lambda: PrecisionConfig(total_time_T=1.0, N_range=(), model=_MODEL), "must be nonempty"),
    "unsorted-range": (
        lambda: PrecisionConfig(total_time_T=1.0, N_range=(4, 2), model=_MODEL), "strictly increasing",
    ),
    "paper-alpha": (lambda: t_opt_paper(0.0, 1.0, 3), "alpha_perp must be > 0"),
    "paper-beta": (lambda: t_opt_paper(0.5, 0.0, 3), "beta_perp must be > 0"),
    "tau-alpha": (
        lambda: tau_solve(ShortTimeModel(alpha_perp=0.0, beta_perp=1.0), 3), "finite crossover time",
    ),
}


# id -> a call whose float arithmetic once overflowed, or divided by an
# underflowed zero, with an untyped Python error, and a fragment of its message
OVERFLOW_REFUSALS = {
    "cost-tiny-T": (
        lambda: precision_scaling(PrecisionConfig(total_time_T=1e-320, N_range=(8,), model=_MODEL)),
        "cost at N = 8 is not finite and positive",
    ),
    "cost-underflowed-eta": (
        lambda: precision_scaling(
            PrecisionConfig(total_time_T=1.0, N_range=(8,), model=ShortTimeModel(alpha_perp=1e300, beta_perp=1.0))
        ),
        "alpha_perp = 1e\\+300",
    ),
    "tau-huge-N": (lambda: tau_solve(_MODEL, 10**308), "at N = 1000"),
    "ecs-closed": (lambda: ecs_lower_bound_closed(EcsSpec.for_alpha(1e154), 0.8), "overflows a float"),
}


@pytest.mark.parametrize("name", list(OVERFLOW_REFUSALS))
def test_overflow_refusals_are_typed(name):
    call, message = OVERFLOW_REFUSALS[name]
    with pytest.raises(QfiboundError, match=message):
        call()


@pytest.mark.parametrize("name", list(TYPED_REFUSALS))
def test_refusals_are_typed(name):
    # a caller catching the package's base class sees every refusal, and one
    # catching ValueError still does
    call, message = TYPED_REFUSALS[name]
    with pytest.raises(QfiboundError, match=message) as caught:
        call()
    assert isinstance(caught.value, RangeViolation)
    assert isinstance(caught.value, ValueError)


# id -> an entry point that takes a transmissivity, with its other arguments valid
TRANSMISSIVITY_CALLS = {
    "loss-kraus": lambda eta: loss_kraus(3, eta),
    "gram-diag": lambda eta: interferometer_gram_diag(3, eta, 2, 0),
    "optimal-m": lambda eta: interferometer_optimal_m(4, eta),
    "ecs-closed": lambda eta: ecs_lower_bound_closed(EcsSpec.for_alpha(1.0), eta),
    "ecs-practical": lambda eta: ecs_practical_forms(EcsSpec.for_alpha(1.0), eta),
    "ecs-numeric": lambda eta: ecs_lower_bound_numeric(EcsSpec.for_alpha(1.0), eta),
}


@pytest.mark.parametrize("eta", [-0.1, 1.1, math.nan])
@pytest.mark.parametrize("name", list(TRANSMISSIVITY_CALLS))
def test_rejects_transmissivity_outside_unit_interval(name, eta):
    with pytest.raises(RangeViolation, match="transmissivity"):
        TRANSMISSIVITY_CALLS[name](eta)


class TestEcsClosed:
    def test_breakdown_sums(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        b = ecs_lower_bound_closed(spec, 0.9)
        assert isinstance(b, EcsBreakdown)
        assert_allclose(b.f_lower, b.classical_term + b.heisenberg_term, rtol=1e-12)
        assert_allclose(b.f_lower, 2.5378831285504173, rtol=1e-12)
        assert_allclose(b.xi, 3.8819812250177286, rtol=1e-12)

    def test_lossless_value_is_twice_number_variance(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        closed = ecs_lower_bound_closed(spec, 1.0).f_lower
        assert_allclose(closed, 3.7331754827185426, rtol=1e-12)
        psi = ecs_vector(spec)
        dim = spec.n_max + 1
        n_a = np.kron(np.arange(dim), np.ones(dim))
        mean = float(np.sum(n_a * np.abs(psi) ** 2))
        second = float(np.sum(n_a**2 * np.abs(psi) ** 2))
        assert_allclose(closed, 2.0 * (second - mean**2), rtol=1e-12)

    def test_full_loss_kills_the_bound(self):
        spec = EcsSpec.for_alpha(1.0)
        assert ecs_lower_bound_closed(spec, 0.0).f_lower == 0.0


class TestEcsPractical:
    def test_formulas(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        f_c, f_h = ecs_practical_forms(spec, 0.9)
        e1 = math.exp(-0.1 * 2.0)
        assert_allclose(f_c, (1.0 + e1**2) / 4.0, rtol=1e-14)
        assert_allclose(f_h, e1 / 2.0, rtol=1e-14)

    def test_assembled_bound(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        f_c, f_h = ecs_practical_forms(spec, 0.9)
        n_eta = spec.mean_photons * 0.9
        assert_allclose(
            ecs_lower_bound_practical(spec, 0.9),
            2.0 * n_eta * f_c + n_eta**2 * f_h,
            rtol=1e-14,
        )

    def test_lossless_limits(self):
        spec = EcsSpec.for_alpha(3.0)
        f_c, f_h = ecs_practical_forms(spec, 1.0)
        assert_allclose((f_c, f_h), (0.5, 0.5))


def ecs_factor(spec, eta):
    """The Kraus-branch factor V of the lossy ECS, one column per Kraus pair
    (l, r) that leaves a branch and one row per output level (i, k) that one
    reaches, with V' = -i n_a V at the level n_a = i + l before the loss.
    K_l has its entries on the l-th superdiagonal, so pair (l, r) maps E to
    diag(K_l) diag(K_r)^T E[l:, r:] on the levels from (0, 0)."""
    dim = spec.n_max + 1
    branch = ecs_vector(spec).reshape(dim, dim)
    shifts = [np.diagonal(k, offset=l) for l, k in enumerate(recurrence_kraus(spec.n_max, eta))]
    levels = np.arange(dim)
    columns, prime_columns = [], []
    for l in range(dim):
        for r in range(dim):
            if not branch[l:, r:].any():
                continue
            out = np.zeros((dim, dim), dtype=complex)
            out[: dim - l, : dim - r] = shifts[l][:, None] * shifts[r] * branch[l:, r:]
            columns.append(out.reshape(-1))
            prime_columns.append((-1j * (levels + l)[:, None] * out).reshape(-1))
    v, v_prime = np.stack(columns, axis=1), np.stack(prime_columns, axis=1)
    rows = np.flatnonzero(v.any(axis=1))
    return v[rows], v_prime[rows]


def ecs_numeric_dense(spec, eta, phi=0.0, psi=None):
    """Reference ECS bound: assembles the dense (n_max+1)^2 state rho = V V^dag
    and its derivative rho' = V' V^dag + V V'^dag, then bounds them directly.
    A two-mode vector ``psi`` replaces the ECS when given."""
    dim = spec.n_max + 1
    branch = (ecs_vector(spec) if psi is None else psi).reshape(dim, dim)
    levels = np.arange(dim)
    phase = np.exp(-1j * phi * levels)
    encoded = phase[:, None] * branch
    encoded_prime = (-1j * levels * phase)[:, None] * branch
    kraus = recurrence_kraus(spec.n_max, eta)
    columns = []
    prime_columns = []
    for left in kraus:
        for right in kraus:
            vec = (left @ encoded @ right.T).reshape(-1)
            vec_prime = (left @ encoded_prime @ right.T).reshape(-1)
            if vec.any() or vec_prime.any():
                columns.append(vec)
                prime_columns.append(vec_prime)
    v = np.stack(columns, axis=1)
    v_prime = np.stack(prime_columns, axis=1)
    rho = v @ v.conj().T
    rho_prime = v_prime @ v.conj().T + v @ v_prime.conj().T
    return lower_bound_from_state(rho, rho_prime).f_lower


class TestEcsNumeric:
    @pytest.mark.parametrize("phi", [0.0, 1.7])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("alpha_sq", [0.5, 1.0, 2.0])
    def test_matches_dense_oracle(self, alpha_sq, eta, phi):
        spec = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        want = ecs_numeric_dense(spec, eta, phi)
        # at eta = 0 the bound is exactly 0, and each path leaves its own
        # round-off: the absolute floor is 1e-12 of the lossless bound
        floor = 1e-12 * ecs_lower_bound_closed(spec, 1.0).f_lower
        assert_allclose(ecs_lower_bound_numeric(spec, eta, phi), want, rtol=1e-12, atol=floor)

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense_oracle_on_any_support(self, monkeypatch, seed, eta):
        # the mask and the gather use no ECS structure, so a two-mode state
        # with a scattered, asymmetric support must match the dense assembly,
        # which applies the phase at every phi
        rng = np.random.default_rng(seed)
        spec = EcsSpec(alpha=1.0, n_max=6)
        shape = (spec.n_max + 1, spec.n_max + 1)
        psi = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.3)
        psi = (psi / np.linalg.norm(psi)).reshape(-1)
        monkeypatch.setattr(metrology, "ecs_vector", lambda _: psi)
        for phi in (0.0, 1.7, math.pi):
            want = ecs_numeric_dense(spec, eta, phi, psi=psi)
            assert_allclose(ecs_lower_bound_numeric(spec, eta, phi), want, rtol=1e-12)

    @pytest.mark.parametrize("eta", [0.3, 0.9])
    @pytest.mark.parametrize("alpha_sq", [1.0, 9.0, 25.0])
    def test_matches_factor_form(self, alpha_sq, eta):
        # rho' = -i [n_a, rho] against rho' = V' V^dag + V V'^dag, at
        # truncations the dense Kraus assembly cannot reach
        spec = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        want = lower_bound_from_factor(*ecs_factor(spec, eta)).f_lower
        assert_allclose(ecs_lower_bound_numeric(spec, eta, 0.4), want, rtol=1e-12)

    @pytest.mark.parametrize(
        "corrupt", [lambda psi: psi * np.sqrt(1.0 + 1e-6), lambda psi: np.where(np.arange(psi.size) == 3, np.nan, psi)],
        ids=["trace-off-by-1e-6", "non-finite-amplitude"],
    )
    def test_refuses_what_the_trace_refuses(self, monkeypatch, corrupt):
        # the two checks rho = V V^dag does not make true by construction
        spec = EcsSpec.for_alpha(1.0)
        psi = corrupt(ecs_vector(spec))
        monkeypatch.setattr(metrology, "ecs_vector", lambda _: psi)
        with pytest.raises(InvalidState):
            ecs_lower_bound_numeric(spec, 0.9)

    def test_amplitude_budget_edge(self, monkeypatch):
        # the (n_max+1)^2 amplitudes: 4096^2 entries at n_max = 4095, 4097^2
        # at 4096, against a budget of 4096^2
        monkeypatch.setattr(metrology, "ecs_vector", _unreached)
        with pytest.raises(_Unreached):
            ecs_lower_bound_numeric(EcsSpec(alpha=1.0, n_max=4095), 0.9)
        with pytest.raises(DimensionBudgetExceeded):
            ecs_lower_bound_numeric(EcsSpec(alpha=1.0, n_max=4096), 0.9)

    def test_factor_budget_edge(self, monkeypatch):
        # on the ECS support V is (2 n_max + 1)^2, charged ECS_FACTOR_COPIES
        # = 4 times: 4 * 2047^2 = 16 760 836 entries at n_max = 1023 and
        # 4 * 2049^2 = 16 793 604 at 1024, against a budget of 4096^2 =
        # 16 777 216
        assert metrology.ECS_FACTOR_COPIES == 4
        small = EcsSpec.for_alpha(2.0)
        assert_array_equal(_ecs_support(small) != 0, ecs_vector(small) != 0)
        monkeypatch.setattr(metrology, "ecs_vector", _ecs_support)
        monkeypatch.setattr(metrology, "_kraus_diagonals", _unreached)
        with pytest.raises(_Unreached):
            ecs_lower_bound_numeric(EcsSpec(alpha=1.0, n_max=1023), 0.9)
        with pytest.raises(DimensionBudgetExceeded):
            ecs_lower_bound_numeric(EcsSpec(alpha=1.0, n_max=1024), 0.9)

    @pytest.mark.parametrize(
        "n_max,alpha,dtype",
        [
            pytest.param(200, 3.0, np.float64, id="200"),
            pytest.param(300, 3.0, np.float64, id="300"),
            pytest.param(200, 3.0j, np.complex128, id="complex-200"),
            pytest.param(300, 3.0j, np.complex128, id="complex-300"),
        ],
    )
    def test_peak_memory_within_charged_copies(self, n_max, alpha, dtype):
        # the guard charges ECS_FACTOR_COPIES copies of V, each of V's own
        # dtype; the traced peak, everything the call allocates, must stay
        # within that charge and above one copy less, so that the charge
        # cannot drift loose on the real path or the complex one
        spec = EcsSpec(alpha=alpha, n_max=n_max)
        assert ecs_vector(spec).dtype == dtype
        factor_bytes = (2 * n_max + 1) ** 2 * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            ecs_lower_bound_numeric(spec, 0.9, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copies = metrology.ECS_FACTOR_COPIES
        assert (copies - 1) * factor_bytes < peak <= copies * factor_bytes

    @pytest.mark.parametrize("alpha_sq", [16.0, 25.0])
    def test_matches_closed_form_at_large_alpha(self, alpha_sq):
        spec = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        assert spec.n_max == {16.0: 66, 25.0: 85}[alpha_sq]
        closed = ecs_lower_bound_closed(spec, 0.9).f_lower
        assert_allclose(ecs_lower_bound_numeric(spec, 0.9), closed, rtol=1e-10)

    def test_peak_memory_at_n_max_100(self):
        # the factor is (2 n_max + 1)^2 = 201^2 entries (0.65 MB); the dense
        # Kraus-pair assembly peaked at 175 MB
        spec = EcsSpec(alpha=3.0, n_max=100)
        tracemalloc.start()
        try:
            ecs_lower_bound_numeric(spec, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("alpha_sq", [9.0, 100.0, 400.0])
    def test_matches_closed_form_to_round_off(self, alpha_sq, eta):
        # n_max 49, 210 and 610: the Kraus diagonals carry no error that grows
        # with the photon number
        spec = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        closed = ecs_lower_bound_closed(spec, eta).f_lower
        assert_allclose(ecs_lower_bound_numeric(spec, eta), closed, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("eta", [0.3, 0.8])
    def test_diagonals_end_at_the_top_kept_level(self, monkeypatch, eta):
        # alpha = 1 puts <n|alpha> below the float range past n ~ 150, so the
        # branch stops well short of n_max; the table of the full truncation,
        # cut to the levels asked for, gives the same value bit for bit
        spec = EcsSpec(alpha=1.0, n_max=400)
        want = ecs_lower_bound_numeric(spec, eta)
        full = metrology._kraus_diagonals
        asked = []

        def spy(top, transmissivity):
            asked.append(top)
            return full(spec.n_max, transmissivity)[: top + 1, : top + 1]

        monkeypatch.setattr(metrology, "_kraus_diagonals", spy)
        assert ecs_lower_bound_numeric(spec, eta) == want
        top = np.flatnonzero(ecs_vector(spec)[: spec.n_max + 1]).max()
        assert asked == [top] and top < spec.n_max

    def test_wide_truncation_peaks_at_the_branch(self):
        # the (n_max+1)^2 branch E is 134 MB at n_max = 4095, and E with its
        # two boolean reach masks is 10 bytes per entry; a weight table of the
        # full truncation would add 8 more (the peak was 436 MB)
        spec = EcsSpec(alpha=1.0, n_max=4095)
        entries = (spec.n_max + 1) ** 2
        tracemalloc.start()
        try:
            value = ecs_lower_bound_numeric(spec, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_allclose(value, ecs_lower_bound_closed(spec, 0.7).f_lower, rtol=1e-13)
        assert peak < 12 * entries

    @pytest.mark.parametrize("alpha_sq", [1.0, 9.0])
    def test_complex_alpha_takes_the_complex_path_to_the_same_bound(self, alpha_sq):
        # e^{i theta (n_a + n_b)} maps alpha to alpha e^{i theta} and commutes
        # with the loss and with n_a, so only |alpha| enters the bound
        real = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        rotated = EcsSpec(alpha=real.alpha * complex(math.cos(0.7), math.sin(0.7)), n_max=real.n_max)
        assert np.iscomplexobj(ecs_vector(rotated)) and not np.iscomplexobj(ecs_vector(real))
        for eta in (0.3, 0.9):
            assert_allclose(ecs_lower_bound_numeric(rotated, eta), ecs_lower_bound_numeric(real, eta), rtol=1e-12)

    def test_matches_closed_form(self):
        spec = EcsSpec.for_alpha(1.0)
        closed = ecs_lower_bound_closed(spec, 0.9).f_lower
        numeric = ecs_lower_bound_numeric(spec, 0.9)
        assert_allclose(numeric, closed, rtol=1e-10)

    def test_phase_independent(self):
        # loss commutes with the phase, which rotates the state unitarily
        spec = EcsSpec.for_alpha(1.0)
        want = ecs_lower_bound_numeric(spec, 0.8, phi=0.0)
        for phi in (1.7, math.pi, -2.0):
            assert ecs_lower_bound_numeric(spec, 0.8, phi=phi) == want

    def test_truncation_guard(self):
        with pytest.raises(TruncationInsufficient):
            ecs_lower_bound_numeric(EcsSpec(alpha=2.0, n_max=5), 0.9)


class TestCorrelatedGramMax:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 10.0])
    def test_dfs_value(self, n, gamma):
        t = 0.7
        assert_allclose(correlated_gram_max(n, gamma, t), n**2 * t**2, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("t", [0.7, 1e-3])
    @pytest.mark.parametrize("omega2", [0.0])
    def test_grid_is_the_dense_diagonal_maximum(self, n, gamma, t, omega2):
        _, derivative = correlated_dephasing_family(n, omega2, gamma, t)
        dense = derivative(0.0)
        assert correlated_gram_max(n, gamma, t) == np.max(np.abs(dense) ** 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_holds_the_dense_values(self, n):
        # every charge pair (alpha1, alpha2) in [-N, N]^2 occurs on 2N qubits
        gamma, t, omega2 = 0.3, 0.7, 0.3
        charges = np.arange(-n, n + 1)
        grid = _correlated_derivative(charges[:, None], charges, omega2, omega2, gamma, t)
        _, derivative = correlated_dephasing_family(n, omega2, gamma, t)
        dense = derivative(0.0)
        assert set(np.abs(grid.ravel()) ** 2) == set(np.abs(dense) ** 2)

    def test_thousand_probes_in_linear_memory(self):
        # the 16^N diagonal is out of reach; the (2N+1)^2 grid is scanned in
        # blocks of rows
        n, t = 1000, 0.7
        tracemalloc.start()
        try:
            value = correlated_gram_max(n, 0.3, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_allclose(value, n**2 * t**2, rtol=1e-12)
        assert peak < 32e6

    def test_budget(self, monkeypatch):
        # the grid is (2N+1)^2: 4095^2 entries at N = 2047, 4097^2 at 2048,
        # against a budget of 4096^2
        monkeypatch.setattr(metrology, "_correlated_derivative", _unreached)
        with pytest.raises(_Unreached):
            correlated_gram_max(2047, 0.1, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionBudgetExceeded):
                correlated_gram_max(2048, 0.1, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("gamma,t", [(-1.0, 0.7), (0.1, -0.7)])
    def test_rejects_negative_rate_or_time(self, gamma, t):
        # unchecked, gamma = -1 amplifies: 1.05e10 at N = 2, t = 0.7, not N^2 t^2 = 1.96
        with pytest.raises(RangeViolation):
            correlated_gram_max(2, gamma, t)
