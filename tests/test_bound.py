from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfibound.bound import (
    analytic_max_phase_covariant,
    associated_qfi,
    bures_distance_liouville,
    ghz_state,
    lower_bound_from_channel,
    lower_bound_from_factor,
    lower_bound_from_state,
    max_bound_over_states,
)
from qfibound.channels import (
    NoiseParams,
    phase_covariant_family,
    rotation_family,
)
from qfibound.errors import (
    DimensionBudgetExceeded,
    InvalidState,
    NonTraceless,
    NoPhysicalState,
)
from qfibound.liouville import devectorize, product_family, vectorize
from qfibound.qfi_oracle import exact_qfi
from qfibound.sampling import random_mixed_state, random_unitary_family

PLUS = np.full((2, 2), 0.5)


def apply_family(family, x, rho0):
    rho = devectorize(family.evaluate(x).apply(vectorize(rho0)))
    rho_prime = devectorize(family.derivative_at(x).apply(vectorize(rho0)))
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

    def test_rejects_mismatched_factors(self, rng):
        v, v_prime = random_factor(rng, 4, 2)
        with pytest.raises(InvalidState):
            lower_bound_from_factor(v, v_prime[:, :1])


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
        with pytest.raises(ValueError):
            analytic_max_phase_covariant(2, 1.0, 1.5)


class TestMaxBoundOverStates:
    def test_unitary_norm_is_n_squared_t_squared(self):
        result = max_bound_over_states(rotation_family(0.7), 0.9, 4)
        assert_allclose(result.norm_bound, 16 * 0.49, rtol=1e-12)

    def test_dephasing_norm_and_state(self):
        params = NoiseParams(eta_perp=0.8)
        family = phase_covariant_family(1.0, params)
        result = max_bound_over_states(family, 0.0, 3, require_state=True)
        assert_allclose(
            result.norm_bound, analytic_max_phase_covariant(3, 1.0, 0.8), rtol=1e-12
        )
        assert result.initial_state is not None
        assert_allclose(result.initial_state, ghz_state(3))

    def test_top_eigenspace_holds_extremal_coherences(self):
        params = NoiseParams(eta_perp=0.9)
        family = phase_covariant_family(1.0, params)
        result = max_bound_over_states(family, 0.0, 2)
        assert len(result.top_eigenspace) == 2
        dim = 4
        hot = sorted(int(np.argmax(np.abs(v.amplitudes))) for v in result.top_eigenspace)
        # |00><11| and |11><00| in global row-major indexing
        assert hot == [dim - 1, dim * (dim - 1)]

    def test_no_state_raises_when_required(self):
        # a qutrit family has no GHZ candidate wired up
        u = np.diag([1.0, np.exp(-0.3j), np.exp(-0.9j)])

        def evaluate(x):
            from qfibound.liouville import Superoperator

            w = np.diag([1.0, np.exp(-1j * x), np.exp(-3j * x)])
            return Superoperator(np.kron(w, w.conj()), trace_preserving=True)

        def derivative(x):
            from qfibound.liouville import Superoperator

            w = np.diag([1.0, np.exp(-1j * x), np.exp(-3j * x)])
            dw = np.diag([0.0, -1j * np.exp(-1j * x), -3j * np.exp(-3j * x)])
            return Superoperator(
                np.kron(dw, w.conj()) + np.kron(w, dw.conj())
            )

        from qfibound.liouville import ChannelFamily

        family = ChannelFamily(evaluate=evaluate, derivative=derivative)
        with pytest.raises(NoPhysicalState):
            max_bound_over_states(family, 0.2, 1, require_state=True)


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
