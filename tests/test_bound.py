from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    bures_distance_liouville,
    correlated_dephasing_family,
    devectorize,
    lower_bound_from_factor,
    projector_distance,
    random_cptp_params,
    vectorize,
)
from numpy.testing import assert_allclose

from qfibound.bound import (
    STATE_TOL,
    _bound_from_products,
    _check_density,
    analytic_max_phase_covariant,
    associated_qfi,
    ghz_lower_bound,
    ghz_state,
    lower_bound_from_channel,
    lower_bound_from_state,
    max_bound_over_states,
)
from qfibound.channels import (
    AMPLITUDE_DAMPING,
    DEPHASING,
    DEPOLARIZING,
    NoiseParams,
    named_noise,
    params_at,
    phase_covariant_family,
    rotation_family,
)
from qfibound.errors import (
    CptpViolation,
    DimensionBudgetExceeded,
    DimensionMismatch,
    InvalidState,
    NonHermitian,
    NonTraceless,
    RangeViolation,
)
from qfibound import liouville
from qfibound.liouville import (
    ChannelFamily,
    _check_trace_preserving,
    _population_top,
    covariant_gram_top,
    gram_tensor_power,
    gram_triple,
    product_family,
)
from qfibound.metrology import tau_solve
from qfibound.numerics import largest_eigval_psd
from qfibound.qfi_oracle import exact_qfi
from qfibound.sampling import (
    random_mixed_state,
    random_noisy_family,
    random_short_time_model,
    random_unitary_family,
)
from qfibound.verify import corrupt_family

PLUS = np.full((2, 2), 0.5)


def apply_family(family, x, rho0):
    rho = devectorize(family.evaluate(x) @ vectorize(rho0))
    rho_prime = devectorize(family.derivative(x) @ vectorize(rho0))
    return rho, rho_prime


class TestLowerBoundFromState:
    def test_plus_state_under_rotation(self):
        rho, rho_prime = apply_family(rotation_family(1.0), 0.3, PLUS)
        result = lower_bound_from_state(rho, rho_prime)
        assert_allclose(result.f_lower, 0.5, rtol=1e-14)
        assert_allclose(result.purity, 1.0, rtol=1e-14)
        assert_allclose(result.term_proj, 0.0, atol=1e-14)

    def test_coherence_derivative_hand_value(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        rho_prime = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
        result = lower_bound_from_state(rho, rho_prime)
        # (rho'|rho') = 2 * 0.2^2 and the overlap vanishes
        assert_allclose(result.f_lower, 0.08, rtol=1e-14)
        assert_allclose(result.purity, 0.58, rtol=1e-14)

    def test_population_derivative_hand_value(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        rho_prime = np.diag([0.1, -0.1]).astype(complex)
        result = lower_bound_from_state(rho, rho_prime)
        assert_allclose(result.term_grad, 0.02, rtol=1e-14)
        assert_allclose(result.term_proj, 0.04**2 / 0.58, rtol=1e-14)
        assert_allclose(result.f_lower, 0.02 - 0.0016 / 0.58, rtol=1e-13)

    def test_half_of_exact_qfi_for_pure_unitary(self, rng):
        for _ in range(10):
            family = random_unitary_family(rng, 3)
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            rho0 = np.outer(psi, psi.conj())
            rho, rho_prime = apply_family(family, 0.4, rho0)
            f_lower = lower_bound_from_state(rho, rho_prime).f_lower
            f_exact = exact_qfi(rho, rho_prime).qfi
            assert_allclose(f_lower, 0.5 * f_exact, rtol=1e-9, atol=1e-12)

    def test_never_exceeds_exact_qfi(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            rho = random_mixed_state(rng, dim)
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = h + h.conj().T
            rho_prime = -1j * (h @ rho - rho @ h)
            f_lower = lower_bound_from_state(rho, rho_prime).f_lower
            f_exact = exact_qfi(rho, rho_prime).qfi
            assert f_lower <= f_exact + 1e-9 * max(f_exact, 1.0)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(InvalidState):
            lower_bound_from_state(np.eye(2), np.zeros((2, 2)))

    def test_rejects_traceful_derivative(self):
        with pytest.raises(NonTraceless):
            lower_bound_from_state(PLUS, np.diag([0.1, 0.1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidState):
            lower_bound_from_state(PLUS, np.zeros((3, 3)))


def state_with_min_eigenvalue(rng, dim, low):
    """A Hermitian unit-trace dim x dim matrix, in a random basis, whose
    smallest eigenvalue is ``low``."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    spectrum = np.full(dim, (1.0 - low) / (dim - 1))
    spectrum[0] = low
    rho = (q * spectrum) @ q.conj().T
    return (rho + rho.conj().T) / 2.0


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestDensityCheck:
    """The PSD test of a state is a Cholesky factorization of rho + STATE_TOL I;
    eigvalsh runs only to confirm a refusal and name the eigenvalue."""

    @pytest.mark.parametrize("dim", [2, 5])
    def test_accepts_excursion_within_tolerance(self, rng, dim):
        rho = state_with_min_eigenvalue(rng, dim, -0.5 * STATE_TOL)
        assert _check_density(rho) is not None

    @pytest.mark.parametrize("dim", [2, 5])
    def test_refuses_and_names_excursion_beyond_tolerance(self, rng, dim):
        rho = state_with_min_eigenvalue(rng, dim, -2.0 * STATE_TOL)
        with pytest.raises(InvalidState, match="negative eigenvalue -2.000e-09"):
            _check_density(rho)

    def test_accepts_rank_one_ghz(self):
        assert _check_density(ghz_state(6)) is not None

    def test_non_finite_refused_before_factorization(self, monkeypatch):
        factorizations = count_calls(monkeypatch, np.linalg, "cholesky")
        eigensolves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = np.nan
        with pytest.raises(InvalidState, match="non-finite"):
            _check_density(rho)
        assert factorizations == eigensolves == []

    def test_valid_state_runs_no_eigensolver(self, monkeypatch, rng):
        factorizations = count_calls(monkeypatch, np.linalg, "cholesky")
        eigensolves = count_calls(monkeypatch, np.linalg, "eigvalsh")
        rho = random_mixed_state(rng, 4)
        lower_bound_from_state(rho, np.zeros((4, 4)))
        lower_bound_from_state(ghz_state(3), np.zeros((8, 8)))
        assert len(factorizations) == 2
        assert eigensolves == []


def random_factor(rng, dim, k):
    """(V, V') with tr(V V^dag) = 1 and tr(V' V^dag + V V'^dag) = 0."""
    v = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    v /= np.linalg.norm(v)
    v_prime = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    v_prime -= np.vdot(v, v_prime).real * v
    return v, v_prime


def dense_pair(v, v_prime):
    """(rho, rho') built as dense matrices, the reference for the factored path."""
    with np.errstate(invalid="ignore"):
        return v @ v.conj().T, v_prime @ v.conj().T + v @ v_prime.conj().T


class TestDerivativeCheck:
    """The two cases any rule for the derivative checks must keep."""

    def test_accepts_round_off_derivative(self):
        # like the ECS oracle's rho' at eta = 0: trace -2.7e-17, peak of the same order
        rho_prime = np.array([[-1.7e-17, 1e-17], [1e-17, -1e-17]])
        result = lower_bound_from_state(np.diag([0.5, 0.5]), rho_prime)
        assert 0.0 <= result.f_lower < 1e-33

    def test_refuses_non_hermitian_traceful_derivative(self):
        with pytest.raises(InvalidState):
            lower_bound_from_state(np.diag([0.5, 0.5]), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_refuses_non_hermitian_traceful_derivative_below_unit_scale(self):
        # its trace is its whole scale: the floor is the state's round-off, not 1
        with pytest.raises(InvalidState):
            lower_bound_from_state(np.diag([0.5, 0.5]), 1e-12 * np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestRoundOffClip:
    """A negative bound within 1e-12 (rho'|rho') of zero is round-off and
    reads 0; the rule looks at the three products alone, so scaling them
    scales the result."""

    @pytest.mark.parametrize("exponent", [0, -66, 66])
    @pytest.mark.parametrize("excess", [1e-6, 1e-14])
    def test_scales_with_the_products(self, excess, exponent):
        # (rho|rho') = sqrt(1 + excess), so term_proj = (1 + excess) term_grad;
        # a power-of-two scale leaves every rounding as it is
        base = _bound_from_products(1.0, math.sqrt(1.0 + excess), 1.0).f_lower
        scale = math.ldexp(1.0, exponent)
        got = _bound_from_products(scale, scale * math.sqrt(1.0 + excess), scale).f_lower
        assert got == scale * base
        if excess > 1e-12:
            assert_allclose(base, -excess, rtol=1e-9)
        else:
            assert base == 0.0


class TestLowerBoundFromFactor:
    @pytest.mark.parametrize("dim,k", [(6, 1), (6, 3), (6, 9), (2, 5)])
    def test_matches_dense_state(self, rng, dim, k):
        for _ in range(5):
            v, v_prime = random_factor(rng, dim, k)
            got = lower_bound_from_factor(v, v_prime)
            want = lower_bound_from_state(*dense_pair(v, v_prime))
            for field in ("f_lower", "term_grad", "term_proj", "purity"):
                assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "corrupt,error",
        [
            (lambda v, vp: (v * np.sqrt(1.0 + 1e-6), vp), InvalidState),
            (lambda v, vp: (np.where(np.arange(v.size).reshape(v.shape) == 4, np.nan, v), vp), InvalidState),
            (lambda v, vp: (v, np.where(np.arange(vp.size).reshape(vp.shape) == 4, np.inf, vp)), InvalidState),
            (lambda v, vp: (v, vp + 0.1 * v), NonTraceless),
        ],
        ids=["trace-off-by-1e-6", "non-finite-state", "non-finite-derivative", "traceful-derivative"],
    )
    @pytest.mark.parametrize("k", [3, 9])
    def test_rejects_what_the_dense_path_rejects(self, rng, corrupt, error, k):
        v, v_prime = corrupt(*random_factor(rng, 6, k))
        with pytest.raises(error):
            lower_bound_from_state(*dense_pair(v, v_prime))
        with pytest.raises(error):
            lower_bound_from_factor(v, v_prime)

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_rejects_traceful_derivative_at_any_scale(self, scale):
        # rho = |0><0| and rho' = 2 scale |0><0|, whose trace is its whole scale
        v = np.array([[1.0], [0.0]])
        with pytest.raises(NonTraceless):
            lower_bound_from_factor(v, scale * v)

    def test_rejects_mismatched_factors(self, rng):
        v, v_prime = random_factor(rng, 4, 2)
        with pytest.raises(InvalidState):
            lower_bound_from_factor(v, v_prime[:, :1])


def nan_derivative_family():
    """The diagonal rotation family at t = 1 with a NaN in place of the
    |01) entry of its derivative map."""
    def evaluate(x):
        return _check_trace_preserving(np.diag([1.0, np.exp(-1j * x), np.exp(1j * x), 1.0]))

    def derivative(x):
        return np.diag([0.0, np.nan, 1j * np.exp(1j * x), 0.0])

    return ChannelFamily(evaluate=evaluate, derivative=derivative)


class TestNonFiniteProducts:
    """A non-finite inner product raises; no path returns a NaN or inf bound."""

    def test_vector_path(self):
        family = product_family(nan_derivative_family(), 2)
        with pytest.raises(InvalidState, match="non-finite"):
            lower_bound_from_channel(family, 0.1, ghz_state(2))

    def test_factor_path(self):
        # finite entries and norms, B = V^dag V' = 0, but (rho'|rho') = 2 ||V'||^2 overflows
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        v_prime = np.array([[0.0, 0.0], [1.2e154, 0.0]])
        with pytest.raises(InvalidState, match="non-finite"):
            lower_bound_from_factor(v, v_prime)

    def test_ghz_path(self):
        # b = t^2 = 1e308 on the coherences: the GHZ sums overflow
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidState, match="non-finite"):
            ghz_lower_bound(rotation_family(1e154), 0.3, 2)

    def test_gram_triple_rejects_before_eigvalsh(self):
        family = nan_derivative_family()
        with pytest.raises(NonHermitian, match="non-finite"):
            ghz_lower_bound(family, 0.1, 2)
        with pytest.raises(NonHermitian, match="non-finite"):
            max_bound_over_states(family, 0.1, 2)


class TestAssociatedQfi:
    def test_rescaling_identity(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        rho_prime = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
        result = lower_bound_from_state(rho, rho_prime)
        assert_allclose(
            associated_qfi(rho, rho_prime), 4.0 * result.f_lower / result.purity
        )

    def test_additive_over_products(self, rng):
        rho_a = random_mixed_state(rng, 2)
        rho_b = random_mixed_state(rng, 2)
        ha = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ha = ha + ha.conj().T
        hb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hb = hb + hb.conj().T
        da = -1j * (ha @ rho_a - rho_a @ ha)
        db = -1j * (hb @ rho_b - rho_b @ hb)
        joint = associated_qfi(
            np.kron(rho_a, rho_b), np.kron(da, rho_b) + np.kron(rho_a, db)
        )
        assert_allclose(
            joint,
            associated_qfi(rho_a, da) + associated_qfi(rho_b, db),
            rtol=1e-10,
            atol=1e-12,
        )


class TestChannelLevel:
    def test_matches_state_level(self):
        params = NoiseParams(k=0.1, eta_par=0.9, eta_perp=0.6)
        family = phase_covariant_family(1.2, params)
        rho, rho_prime = apply_family(family, 0.5, PLUS)
        via_channel = lower_bound_from_channel(family, 0.5, PLUS)
        via_state = lower_bound_from_state(rho, rho_prime)
        assert_allclose(via_channel.f_lower, via_state.f_lower, rtol=1e-13)

    def test_ghz_saturates_dephasing_norm(self):
        params = NoiseParams(eta_perp=0.8)
        n = 3
        family = phase_covariant_family(1.0, params)
        result = lower_bound_from_channel(product_family(family, n), 0.0, ghz_state(n))
        assert_allclose(
            result.f_lower,
            0.5 * analytic_max_phase_covariant(n, 1.0, 0.8),
            rtol=1e-12,
        )


class TestGhzState:
    def test_two_qubit_entries(self):
        rho = ghz_state(2)
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert_allclose(rho, expected)

    def test_is_pure(self):
        rho = ghz_state(3)
        assert_allclose(np.trace(rho).real, 1.0)
        assert_allclose(np.trace(rho @ rho).real, 1.0)

    def test_budget(self):
        with pytest.raises(DimensionBudgetExceeded):
            ghz_state(7)

    def test_budget_decided_from_n(self):
        with pytest.raises(DimensionBudgetExceeded, match="7200 qubits"):
            ghz_state(7200)


class TestAnalyticMax:
    @pytest.mark.parametrize(
        "n,t,eta,expected",
        [
            (1, 1.0, 1.0, 1.0),
            (3, 1.2, 0.8, 9.0 * 1.44 * 0.8**6),
            (5, 0.5, 1.0, 6.25),
        ],
    )
    def test_values(self, n, t, eta, expected):
        assert_allclose(analytic_max_phase_covariant(n, t, eta), expected, rtol=1e-15)

    def test_rejects_bad_eta(self):
        with pytest.raises(RangeViolation):
            analytic_max_phase_covariant(2, 1.0, 1.5)


class TestMaxBoundOverStates:
    def test_unitary_norm_is_n_squared_t_squared(self):
        result = max_bound_over_states(rotation_family(0.7), 0.9, 4)
        assert_allclose(result.norm_bound, 16 * 0.49, rtol=1e-12)

    def test_dephasing_norm_and_state(self):
        params = NoiseParams(eta_perp=0.8)
        family = phase_covariant_family(1.0, params)
        result = max_bound_over_states(family, 0.0, 3)
        assert_allclose(
            result.norm_bound, analytic_max_phase_covariant(3, 1.0, 0.8), rtol=1e-12
        )
        assert result.ghz_optimal
        assert_allclose(result.initial_state, ghz_state(3))

    def test_top_eigenspace_holds_extremal_coherences(self):
        params = NoiseParams(eta_perp=0.9)
        family = phase_covariant_family(1.0, params)
        result = max_bound_over_states(family, 0.0, 2)
        assert len(result.top_eigenspace) == 2
        dim = 4
        hot = sorted(int(np.argmax(np.abs(v))) for v in result.top_eigenspace)
        # |00><11| and |11><00| in global row-major indexing
        assert hot == [dim - 1, dim * (dim - 1)]

    def test_diagonal_family_outside_the_closed_form(self):
        # correlated dephasing on two probes: a diagonal map on a 16-dim site,
        # maximal on the two decoherence-free coherences with alpha1 = +-2
        evaluate, derivative = correlated_dephasing_family(2, omega2=0.3, gamma=0.5, t=0.7)
        family = ChannelFamily(
            evaluate=lambda x: _check_trace_preserving(np.diag(evaluate(x))),
            derivative=lambda x: np.diag(derivative(x)),
        )
        assert covariant_gram_top(gram_triple(family, 0.1), 1) is None
        result = max_bound_over_states(family, 0.1, 1)
        assert_allclose(result.norm_bound, 4 * 0.49, rtol=1e-12)
        assert len(result.top_eigenspace) == 2

    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-5])
    def test_ghz_test_is_relative_at_any_scale(self, t):
        # eta_perp = 1/2 is past the crossover 3/4 at N = 4: the GHZ bound is
        # a quarter of norm/2 at every t, and norm/2 ~ t^2 shrinks with t
        family = phase_covariant_family(t, NoiseParams(k=0.0, eta_par=1.0, eta_perp=0.5))
        result = max_bound_over_states(family, 0.2, 4)
        assert_allclose(ghz_lower_bound(family, 0.2, 4).f_lower, result.norm_bound / 8, rtol=1e-12)
        assert not result.ghz_optimal
        assert result.initial_state is None

    @pytest.mark.parametrize("s", [1e-85, 1e-90])
    def test_norm_is_scale_free(self, s):
        # the Gram matrix scales as s^2: at s = 1e-85 its entries are ~1e-170,
        # below where a Frobenius norm of them underflows to 0
        want = max_bound_over_states(random_noisy_family(np.random.default_rng(3), 2, 2), 0.2, 2)
        family = random_noisy_family(np.random.default_rng(3), 2, 2, scale=s)
        got = max_bound_over_states(family, 0.2, 2)
        assert_allclose(got.norm_bound / s**2, want.norm_bound, rtol=1e-12)

    @pytest.mark.parametrize("t", [1e-155, 1e-160])
    def test_subnormal_gram_component(self, t):
        # b = t^2 is subnormal: its unit-scaled checks must not divide a
        # complex array by a subnormal peak, which overflows
        result = max_bound_over_states(phase_covariant_family(t, NoiseParams()), 0.0, 2)
        assert result.norm_bound == analytic_max_phase_covariant(2, t, 1.0) > 0.0
        assert result.ghz_optimal

    @pytest.mark.parametrize(
        "n,eta,t",
        [
            (2, 0.99, 1e-160),
            (2, 0.875, 1e-160),
            (2, 0.5, 1e-160),
            (1000, 1.0 - 1.0 / 4000, 1e-158),
            (2, 0.9, 1e-170),  # b ~ t^2 underflows to 0 unless Phi' is scaled first
        ],
    )
    def test_ghz_decision_at_subnormal_scale(self, n, eta, t):
        # G ~ t^2 is subnormal, and the decision must be the one at t = 1
        def decide(t):
            return max_bound_over_states(phase_covariant_family(t, NoiseParams(eta_perp=eta)), 0.0, n).ghz_optimal

        assert decide(t) == decide(1.0)

    def test_subnormal_norm_is_rounded_once(self):
        # Phi' ~ t is brought to unit scale before b = Phi'^dag Phi' is
        # formed, so G ~ t^2 ~ 1e-311 is rounded once, from the unit-scale
        # norm, and not first to the few digits a subnormal b holds
        n, eta, t = 1000, 1.0 - 1.0 / 4000, 1e-158
        want = math.ldexp(analytic_max_phase_covariant(n, math.ldexp(t, 600), eta), -1200)
        family = phase_covariant_family(t, NoiseParams(eta_perp=eta))
        got = max_bound_over_states(family, 0.0, n).norm_bound
        assert abs(got - want) <= 4 * math.ulp(0.0)

    def test_closed_form_memory_is_linear_in_n(self):
        # the whole (N+1)^2 table of g and its weights would take 6.4 GB at N = 20000
        n = 20000
        eta = 1.0 - 1.0 / (4 * n)
        family = phase_covariant_family(1.0, NoiseParams(eta_perp=eta))
        tracemalloc.start()
        try:
            result = max_bound_over_states(family, 0.3, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert_allclose(result.norm_bound, analytic_max_phase_covariant(n, 1.0, eta), rtol=1e-10)
        assert result.ghz_optimal

    @pytest.mark.parametrize("t", [1.0, 1e-5])
    def test_ghz_found_at_any_scale(self, t):
        family = phase_covariant_family(t, NoiseParams(eta_perp=0.9))
        result = max_bound_over_states(family, 0.2, 4)
        assert result.ghz_optimal
        assert_allclose(result.initial_state, ghz_state(4))

    def test_zero_gram_has_no_eigenspace_on_dense_path(self):
        # a constant qutrit channel: its dense N-fold Gram matrix is 0
        family = ChannelFamily(evaluate=lambda x: np.eye(9), derivative=lambda x: np.zeros((9, 9)))
        result = max_bound_over_states(family, 0.2, 2)
        assert result.norm_bound == 0.0
        assert result.top_eigenspace == []

    def test_qutrit_family_has_no_state(self):
        # a qutrit family has no GHZ candidate wired up
        result = max_bound_over_states(qutrit_family(), 0.2, 1)
        assert result.norm_bound > 0.0
        assert not result.ghz_optimal
        assert result.initial_state is None

    def test_budget_edge(self):
        # below the crossover (eta_perp > 5/6 at N = 6), so GHZ is optimal
        family = phase_covariant_family(1.0, NoiseParams(eta_perp=0.9))
        result = max_bound_over_states(family, 0.0, 6)
        assert_allclose(result.norm_bound, analytic_max_phase_covariant(6, 1.0, 0.9), rtol=1e-12)
        assert result.ghz_optimal
        assert len(result.top_eigenspace) == 2
        # at N = 7 the call answers, and the 4^N objects raise on first read
        result = max_bound_over_states(family, 0.0, 7)
        assert_allclose(result.norm_bound, analytic_max_phase_covariant(7, 1.0, 0.9), rtol=1e-12)
        assert result.ghz_optimal
        with pytest.raises(DimensionBudgetExceeded):
            result.top_eigenspace
        with pytest.raises(DimensionBudgetExceeded):
            result.initial_state
        # the closed form's own guard, at the read of its vectors
        top = covariant_gram_top(gram_triple(family, 0.0), 7)
        assert top.value == result.norm_bound
        with pytest.raises(DimensionBudgetExceeded):
            top.vectors

    def test_budget_decided_from_n(self):
        # 4^7200 has more digits than an int may print; the refusal names N
        result = max_bound_over_states(phase_covariant_family(1.0, named_noise("dephasing", 0.3, 1.0)), 0.0, 7200)
        with pytest.raises(DimensionBudgetExceeded, match=r"7200-fold .* 4\^7200"):
            result.top_eigenspace

    @pytest.mark.parametrize("n", [50, 200, 1000])
    def test_reach_below_crossover(self, n):
        # eta_perp = 1 - 1/(4N) sits above the crossover (N-1)/N, so GHZ is optimal
        eta = 1.0 - 1.0 / (4 * n)
        family = phase_covariant_family(1.0, NoiseParams(eta_perp=eta))
        # the best of three calls, so that a load spike on the machine does
        # not count as the cost of the call
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            result = max_bound_over_states(family, 0.3, n)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.25, elapsed
        assert_allclose(result.norm_bound, analytic_max_phase_covariant(n, 1.0, eta), rtol=1e-12)
        assert result.ghz_optimal

    def test_reach_past_crossover(self):
        family = phase_covariant_family(1.0, named_noise(DEPHASING, 0.3, 1.0))
        result = max_bound_over_states(family, 0.3, 1000)
        assert result.norm_bound > 0.0
        assert not result.ghz_optimal
        assert result.initial_state is None
        with pytest.raises(DimensionBudgetExceeded):
            result.top_eigenspace

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_rejects_bad_probe_count(self, n):
        family = phase_covariant_family(1.0, NoiseParams(eta_perp=0.9))
        with pytest.raises(ValueError):
            max_bound_over_states(family, 0.0, n)

    def test_integral_float_probe_count(self):
        family = phase_covariant_family(1.0, NoiseParams(eta_perp=0.9))
        result = max_bound_over_states(family, 0.0, 2.0)
        assert [devectorize(v).shape for v in result.top_eigenspace] == [(4, 4), (4, 4)]


def qutrit_family() -> ChannelFamily:
    """A unitary qutrit family x -> W(x) rho W(x)^dag, W = diag(1, e^-ix, e^-3ix)."""

    def evaluate(x):
        w = np.diag([1.0, np.exp(-1j * x), np.exp(-3j * x)])
        return _check_trace_preserving(np.kron(w, w.conj()))

    def derivative(x):
        w = np.diag([1.0, np.exp(-1j * x), np.exp(-3j * x)])
        dw = np.diag([0.0, -1j * np.exp(-1j * x), -3j * np.exp(-3j * x)])
        return np.kron(dw, w.conj()) + np.kron(w, dw.conj())

    return ChannelFamily(evaluate=evaluate, derivative=derivative)


TAU_FACTORS = (0.5, 0.8, 1.0, 1.5, 3.0)


def short_time_models(seed: int, count: int) -> list[tuple]:
    """(model, theta) pairs that stay CPTP at every factor of tau(N), N = 1..6."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        model = random_short_time_model(rng)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        try:
            for n in range(1, 7):
                for factor in TAU_FACTORS:
                    params_at(model, factor * tau_solve(model, n), theta)
        except (CptpViolation, RangeViolation):
            continue
        models.append((model, theta))
    return models


MODELS = short_time_models(7, 3)


def model_family(index: int, factor: float, n: int) -> ChannelFamily:
    """Short-time model ``index`` at ``factor`` times its crossover time tau(N)."""
    model, theta = MODELS[index]
    t = factor * tau_solve(model, n)
    return phase_covariant_family(t, params_at(model, t, theta))


def coherence_sites(vectors, n: int) -> set[int]:
    """The numbers s of sites at |0><1| or |1><0| over the support of the
    vectors: popcount(mu XOR nu) of each index mu 2^N + nu."""
    amplitudes = np.column_stack(vectors)
    support = np.flatnonzero(np.any(np.abs(amplitudes) > 1e-12, axis=1))
    mu, nu = np.divmod(support, 2**n)
    return {bin(int(bits)).count("1") for bits in mu ^ nu}


def covariant_map_family(seed: int, *, mirrored: bool = False) -> ChannelFamily:
    """A linear (not trace-preserving) qubit map family with the covariant
    block pattern and independent random entries: a random population block
    and coherence scalars phi+- with derivatives phi'+-.  Unlike a physical
    phase-covariant channel it has a+ != a-, b+ != b- and, over the seeds
    0, 1, 7 and 9, both signs of Re(conj(c+) c-).  ``mirrored`` copies
    phi+ and phi'+ to the minus site, so that every split of s coherence
    sites into n+ and n- ties and the mixed pairs decide the eigenspace."""
    rng = np.random.default_rng(seed)
    value = np.zeros((4, 4), dtype=complex)
    value[np.ix_([0, 3], [0, 3])] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    value[1, 1], value[2, 2], prime_plus, prime_minus = rng.normal(size=4) + 1j * rng.normal(size=4)
    if mirrored:
        value[2, 2], prime_minus = value[1, 1], prime_plus
    prime = np.diag([0.0, prime_plus, prime_minus, 0.0])
    return ChannelFamily(evaluate=lambda x: value, derivative=lambda x: prime)


# (id, family at N, largest N checked against the dense oracle, first N past tau);
# "diagonal" in the model ids is the channel's layout: coherence factors on the diagonal
ORACLE_CASES = [
    *(
        (f"model{i}-{factor}tau-diagonal",
         lambda n, i=i, factor=factor: model_family(i, factor, n),
         # a dense 1024-row eigh costs about a second: N = 5 for model0 only
         5 if i == 0 else 4,
         2 if factor > 1.0 else None)
        for i in (0, 1)
        for factor in (0.5, 0.8, 1.5, 3.0)
    ),
    # pure dephasing: A_pop = I is degenerate; eta_perp = 0.7 < (N-1)/N from N = 4 on
    ("dephasing", lambda n: phase_covariant_family(1.3, NoiseParams(eta_perp=0.7)), 5, 4),
    ("depolarizing", lambda n: phase_covariant_family(1.3, named_noise(DEPOLARIZING, 0.3, 1.3)), 5, None),
    ("amplitude-damping", lambda n: phase_covariant_family(1.3, named_noise(AMPLITUDE_DAMPING, 0.5, 1.3)), 5, None),
    ("corrupted", lambda n: corrupt_family(model_family(1, 1.5, n)), 5, 2),
    # 1e-4 past tau the s = N block trails the winner by far more than
    # TOP_EIGENSPACE_RTOL, and stays out of the top eigenspace
    ("model0-1.0001tau", lambda n: model_family(0, 1.0001, n), 4, 2),
    ("rotation", lambda n: rotation_family(0.7), 4, None),
    ("covariant-map-mirrored", lambda n: covariant_map_family(0, mirrored=True), 4, None),
    *((f"covariant-map{seed}", lambda n, seed=seed: covariant_map_family(seed), 4, None) for seed in (0, 1, 7, 9)),
    ("eta-perp-zero", lambda n: phase_covariant_family(1.3, NoiseParams(k=0.2, eta_par=0.5, eta_perp=0.0)), 4, None),
]


class TestCovariantGramOracle:
    """The closed-form Gram norm and top eigenspace against the dense
    gram_tensor_power + largest_eigval_psd."""

    @pytest.mark.parametrize("make_family,n_max,past_from", [c[1:] for c in ORACLE_CASES],
                             ids=[c[0] for c in ORACLE_CASES])
    def test_matches_dense(self, make_family, n_max, past_from):
        for n in range(1, n_max + 1):
            triple = gram_triple(make_family(n), 0.3)
            got = covariant_gram_top(triple, n)
            want = largest_eigval_psd(gram_tensor_power(triple, n))
            assert got is not None
            assert_allclose(got.value, want.value, rtol=1e-12, atol=0.0)
            if want.value == 0.0:
                assert got.vectors.shape == (4**n, 0)
                continue
            assert projector_distance(got.vectors, want.vectors) <= 1e-8
            if past_from is not None and n >= past_from:
                sites = coherence_sites(got.vectors.T, n)
                assert 0 < min(sites) and max(sites) < n, sites

    def test_degenerate_populations_span_many_products(self):
        # pure dephasing past tau at N = 5: the s* = 3 blocks with A_pop = I
        # span C(5, 3) * 2 * 2^2 = 80 dimensions
        family = phase_covariant_family(1.3, NoiseParams(eta_perp=0.7))
        top = covariant_gram_top(gram_triple(family, 0.3), 5)
        assert top.vectors.shape == (4**5, 80)
        assert coherence_sites(top.vectors.T, 5) == {3}
        assert_allclose(top.vectors.conj().T @ top.vectors, np.eye(80), atol=1e-15)

    def test_zero_coherence_has_no_eigenspace(self):
        family = phase_covariant_family(1.3, NoiseParams(k=0.2, eta_par=0.5, eta_perp=0.0))
        result = max_bound_over_states(family, 0.3, 5)
        assert result.norm_bound == 0.0
        assert result.top_eigenspace == []
        assert result.initial_state is None

    @pytest.mark.parametrize("name,i,j", [("a", 0, 1), ("b", 0, 0), ("b", 1, 2), ("c", 3, 3), ("c", 2, 1)])
    def test_each_condition_is_checked(self, name, i, j):
        # one entry outside the covariant pattern, Hermitian for a and b:
        # beyond round-off it routes the triple to the dense path
        triple = gram_triple(covariant_map_family(0), 0.0)
        for size, covariant in ((1e-14, True), (1e-9, False)):
            changed = triple.copy()
            part = changed["abc".index(name)]
            part[i, j] += size * np.max(np.abs(part))
            if name != "c":
                part[j, i] = part[i, j].conjugate()
            assert (covariant_gram_top(changed, 2) is not None) == covariant

    def test_other_triples_fail_the_detection(self, rng):
        for _ in range(10):
            for family in (random_unitary_family(rng, 2), random_noisy_family(rng, 2, 2)):
                assert covariant_gram_top(gram_triple(family, 0.3), 2) is None
        assert covariant_gram_top(gram_triple(qutrit_family(), 0.2), 1) is None


def five_term_norm(triple: np.ndarray, n: int) -> float:
    """||G|| of a covariant triple from the five terms of g, each evaluated
    on the full (N+1) x (N+1) grid, and lambda_A from eigh."""
    a, b, c = triple
    ap, am, bp, bm, cp, cm = a[1, 1].real, a[2, 2].real, b[1, 1].real, b[2, 2].real, c[1, 1], c[2, 2]
    k = np.arange(n + 1)
    pp, pm = np.append(ap**k, [0.0, 0.0]), np.append(am**k, [0.0, 0.0])
    p, m = k[:, None], k[None, :]
    g = (
        p * bp * pp[p - 1] * pm[m]
        + m * bm * pp[p] * pm[m - 1]
        + p * (p - 1) * abs(cp) ** 2 * pp[p - 2] * pm[m]
        + m * (m - 1) * abs(cm) ** 2 * pp[p] * pm[m - 2]
        + 2 * p * m * (np.conj(cp) * cm).real * pp[p - 1] * pm[m - 1]
    )
    lam_a = np.linalg.eigvalsh(a[np.ix_([0, 3], [0, 3])])[-1]
    rest = n - p - m
    return max(float(np.max(np.where(rest >= 0, g * lam_a ** np.maximum(rest, 0), 0.0))), 0.0)


POPULATION_CASES = [
    *((f"covariant-map{seed}", covariant_map_family(seed)) for seed in (0, 1, 7, 9)),
    ("amplitude-damping", phase_covariant_family(1.3, named_noise(AMPLITUDE_DAMPING, 0.5, 1.3))),
    ("dephasing", phase_covariant_family(1.3, NoiseParams(eta_perp=0.7))),
    ("zero", ChannelFamily(evaluate=lambda x: np.diag([0.0, 1.0, 1.0, 0.0]),
                           derivative=lambda x: np.diag([0.0, 1.0, -1.0, 0.0]))),
]


class TestSeparableNorm:
    """The Gram norm from g = X Y^T and a closed-form lambda_A against the
    five-term table of g and eigh."""

    @pytest.mark.parametrize("family", [c[1] for c in POPULATION_CASES], ids=[c[0] for c in POPULATION_CASES])
    def test_population_top_matches_eigh(self, family):
        a = gram_triple(family, 0.3)[0]
        want = np.linalg.eigvalsh(a[np.ix_([0, 3], [0, 3])])[-1]
        assert_allclose(_population_top(a), want, rtol=1e-14, atol=0.0)

    def test_population_cases_cover_each_block_shape(self):
        blocks = {name: gram_triple(family, 0.3)[0][np.ix_([0, 3], [0, 3])]
                  for name, family in POPULATION_CASES}
        assert abs(blocks["amplitude-damping"][0, 1]) > 0.1
        assert blocks["dephasing"][0, 1] == 0.0
        assert not blocks["zero"].any()

    @pytest.mark.parametrize("make_family", [c[1] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES])
    def test_matches_five_term_table(self, make_family):
        for n in range(1, 7):
            triple = gram_triple(make_family(n), 0.3)
            assert_allclose(covariant_gram_top(triple, n).value, five_term_norm(triple, n), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [50, 200, 1000])
    @pytest.mark.parametrize("make_family", [
        lambda n: phase_covariant_family(1.0, NoiseParams(eta_perp=1.0 - 1.0 / (4 * n))),
        lambda n: phase_covariant_family(1.0, named_noise(DEPHASING, 0.3, 1.0)),
        lambda n: phase_covariant_family(0.7, named_noise(AMPLITUDE_DAMPING, 0.01, 0.7)),
    ], ids=["below-crossover", "dephasing", "amplitude-damping"])
    def test_matches_five_term_table_at_large_n(self, make_family, n):
        triple = gram_triple(make_family(n), 0.3)
        assert_allclose(covariant_gram_top(triple, n).value, five_term_norm(triple, n), rtol=1e-13, atol=0.0)

    def test_value_runs_no_eigensolver(self, monkeypatch):
        family = phase_covariant_family(1.3, named_noise(AMPLITUDE_DAMPING, 0.5, 1.3))
        triple = gram_triple(family, 0.3)
        eigensolves = count_calls(monkeypatch, np.linalg, "eigh")
        top = covariant_gram_top(triple, 6)
        assert top.value > 0.0
        assert eigensolves == []
        assert top.vectors.shape[1] > 0
        assert eigensolves == ["eigh"]


class TestLazyEigenspace:
    """The top eigenvectors and the GHZ projector are built on first read."""

    def test_norm_builds_no_eigenvectors(self, monkeypatch):
        calls = {"site_permutation": 0, "indices": 0}
        for module, name in ((liouville, "site_permutation"), (np, "indices")):
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # pure dephasing past tau at N = 6: a top eigenspace of many products
        family = phase_covariant_family(1.3, NoiseParams(eta_perp=0.7))
        top = covariant_gram_top(gram_triple(family, 0.3), 6)
        result = max_bound_over_states(family, 0.3, 6)
        assert top.value == result.norm_bound > 0.0
        assert not result.ghz_optimal
        assert calls == {"site_permutation": 0, "indices": 0}
        vectors = top.vectors
        assert calls == {"site_permutation": 1, "indices": 1}
        assert top.vectors is vectors
        assert calls == {"site_permutation": 1, "indices": 1}

    def test_second_read_returns_the_same_object(self):
        family = phase_covariant_family(1.0, NoiseParams(eta_perp=0.9))
        result = max_bound_over_states(family, 0.2, 3)
        assert result.top_eigenspace is result.top_eigenspace
        assert result.initial_state is result.initial_state
        assert result.top.vectors is result.top.vectors
        dense = largest_eigval_psd(np.diag([1.0, 3.0]))
        assert dense.vectors is dense.vectors
        assert_allclose(np.abs(dense.vectors), [[0.0], [1.0]])


class TestGhzCrossover:
    """tau_solve against the closed-form Gram norm: the winning block has
    s = N coherence sites until tau, and fewer after it."""

    @pytest.mark.parametrize("index", range(len(MODELS)))
    def test_winning_block_leaves_s_equal_n_at_tau(self, index):
        x = 0.3
        for n in range(2, 7):
            below = max_bound_over_states(model_family(index, 0.8, n), x, n)
            assert coherence_sites(below.top_eigenspace, n) == {n}
            above = max_bound_over_states(model_family(index, 1.5, n), x, n)
            assert max(coherence_sites(above.top_eigenspace, n)) < n
            # at tau both blocks hold the norm; their values are Rayleigh
            # quotients ||(Phi^xN)' v||^2 from the matrix-free product kernel
            family = model_family(index, 1.0, n)
            at_tau = max_bound_over_states(family, x, n)
            product = product_family(family, n)
            values: dict[int, list[float]] = {}
            for v in at_tau.top_eigenspace:
                (s,) = coherence_sites([v], n)
                _, prime = product.apply_with_derivative(x, v)
                values.setdefault(s, []).append(float(np.vdot(prime, prime).real))
            assert set(values) == {n - 1, n}
            assert_allclose(values[n - 1], at_tau.norm_bound, rtol=1e-9)
            assert_allclose(values[n], at_tau.norm_bound, rtol=1e-9)


def ghz_families(seed: int) -> list[tuple[str, ChannelFamily]]:
    """Qubit families for the GHZ-from-triple tests: random noisy channels,
    phase-covariant sets, rotations and their corrupted derivatives."""
    rng = np.random.default_rng(seed)
    families = [(f"noisy-k{k}", random_noisy_family(rng, 2, k)) for k in (1, 2, 3)]
    families += [(f"covariant{j}", phase_covariant_family(1.1, random_cptp_params(rng, 1.1))) for j in range(2)]
    families += [
        ("dephasing", phase_covariant_family(1.0, NoiseParams(eta_perp=0.8))),
        ("amplitude-damping", phase_covariant_family(1.3, named_noise(AMPLITUDE_DAMPING, 0.5, 1.3))),
        ("rotation", rotation_family(0.7)),
    ]
    families += [(f"corrupt-{name}", corrupt_family(family)) for name, family in families[2:]]
    return families


class TestGhzFromTriple:
    """The GHZ bound from the single-site Gram triple against the product
    kernel acting on the dense GHZ projector."""

    @pytest.mark.parametrize("name,family", ghz_families(11), ids=[name for name, _ in ghz_families(11)])
    def test_matches_kernel(self, name, family):
        x = 0.3
        for n in range(1, 7):
            got = ghz_lower_bound(family, x, n)
            want = lower_bound_from_channel(product_family(family, n), x, ghz_state(n))
            for field in ("f_lower", "term_grad", "purity"):
                assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-12, atol=0.0)
            # term_proj is round-off for the covariant sets, whose GHZ overlap vanishes
            assert_allclose(got.term_proj, want.term_proj, rtol=1e-12, atol=1e-14 * want.term_grad)

    def test_max_bound_needs_no_kernel(self, monkeypatch):
        def refuse(self, x, v):
            raise AssertionError("the GHZ candidate ran the product kernel")

        monkeypatch.setattr(liouville._ProductFamily, "apply_with_derivative", refuse)
        for family in (rotation_family(0.7), model_family(0, 0.8, 3)):
            result = max_bound_over_states(family, 0.3, 3)
            assert result.ghz_optimal
            assert_allclose(result.initial_state, ghz_state(3))

    @pytest.mark.parametrize("n", [50, 200, 1000])
    @pytest.mark.parametrize("index", range(len(MODELS)))
    def test_saturates_analytic_norm_below_tau(self, index, n):
        model, theta = MODELS[index]
        t = 0.8 * tau_solve(model, n)
        params = params_at(model, t, theta)
        got = ghz_lower_bound(phase_covariant_family(t, params), 0.3, n)
        # eta_perp^(2N) carries the round-off of eta_perp 2N times over
        assert_allclose(got.f_lower, analytic_max_phase_covariant(n, t, params.eta_perp) / 2, rtol=1e-12)

    def test_scaled_family_at_large_n(self):
        # c Phi scales the bound by c^(2N) exactly; at N = 300 and c = 1/2,
        # |(rho|rho')|^2 ~ max|g|^(2N) would underflow without the scaling
        # by max|g|, and the projection term would vanish
        n, c = 300, 0.5
        base = random_noisy_family(np.random.default_rng(3), 2, 2)
        scaled = ChannelFamily(
            evaluate=lambda x: c * base.evaluate(x),
            derivative=lambda x: c * base.derivative(x),
        )
        want = ghz_lower_bound(base, 0.3, n)
        got = ghz_lower_bound(scaled, 0.3, n)
        assert want.term_proj > 1e-3 * want.f_lower
        for field in ("f_lower", "term_grad", "term_proj", "purity"):
            assert_allclose(getattr(got, field), c ** (2 * n) * getattr(want, field), rtol=1e-12)

    def test_rejects_non_qubit_family(self):
        with pytest.raises(DimensionMismatch):
            ghz_lower_bound(qutrit_family(), 0.2, 2)

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_rejects_bad_probe_count(self, n):
        with pytest.raises(ValueError):
            ghz_lower_bound(rotation_family(0.7), 0.0, n)


class TestBuresLiouville:
    def test_zero_for_identical_states(self):
        rho = np.diag([0.6, 0.4])
        assert bures_distance_liouville(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert_allclose(bures_distance_liouville(a, b), 2.0)

    def test_symmetric(self, rng):
        a = random_mixed_state(rng, 3)
        b = random_mixed_state(rng, 3)
        assert_allclose(
            bures_distance_liouville(a, b), bures_distance_liouville(b, a)
        )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bound_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = random_mixed_state(rng, 3)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = h + h.conj().T
    rho_prime = -1j * (h @ rho - rho @ h)
    assert lower_bound_from_state(rho, rho_prime).f_lower >= 0.0
