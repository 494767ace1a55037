from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import bures_distance_exact, pure_state_qfi
from qfibound.bound import lower_bound_from_state
from qfibound.errors import SingularOutcome, UnsupportedDerivative
from qfibound.qfi_oracle import (
    Povm,
    classical_bound,
    classical_fisher,
    exact_qfi,
    optimal_povm_from_rho_prime,
)
from qfibound.sampling import random_mixed_state, random_unitary

PLUS = np.full((2, 2), 0.5)


def commutator_derivative(rng, rho):
    dim = rho.shape[0]
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T
    return -1j * (h @ rho - rho @ h)


class TestExactQfi:
    def test_qubit_coherence_hand_value(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        rho_prime = np.array([[0.0, 0.2], [0.2, 0.0]], dtype=complex)
        # both eigenvalue pairs are off-diagonal: F = 4 |0.2|^2 / (0.3 + 0.7)
        result = exact_qfi(rho, rho_prime)
        assert_allclose(result.qfi, 0.16, rtol=1e-13)

    def test_population_direction_hand_value(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        rho_prime = np.diag([0.1, -0.1]).astype(complex)
        # classical: sum (dp)^2 / p = 0.01/0.7 + 0.01/0.3
        result = exact_qfi(rho, rho_prime)
        assert_allclose(result.qfi, 0.01 / 0.7 + 0.01 / 0.3, rtol=1e-13)

    def test_sld_solves_lyapunov_equation(self, rng):
        rho = random_mixed_state(rng, 4)
        rho_prime = commutator_derivative(rng, rho)
        result = exact_qfi(rho, rho_prime)
        recon = (rho @ result.sld + result.sld @ rho) / 2.0
        assert_allclose(recon, rho_prime, atol=1e-10)
        assert_allclose(
            result.qfi, float(np.trace(rho @ result.sld @ result.sld).real), atol=1e-10
        )

    def test_pure_state_agreement(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        dpsi = rng.normal(size=4) + 1j * rng.normal(size=4)
        # project out the norm-changing direction to keep d(tr rho) = 0
        dpsi -= psi * np.vdot(psi, dpsi).real
        rho = np.outer(psi, psi.conj())
        rho_prime = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        assert_allclose(
            exact_qfi(rho, rho_prime).qfi, pure_state_qfi(psi, dpsi), rtol=1e-9
        )

    def test_rank_deficient_state_is_fine_in_support(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho_prime = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        # the (1, 0) pair has lambda sum 1, the (0, 0) pair is excluded but empty
        result = exact_qfi(rho, rho_prime)
        assert_allclose(result.qfi, 4.0 * 0.09, rtol=1e-12)

    def test_unsupported_derivative_raises(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho_prime = np.zeros((3, 3), dtype=complex)
        rho_prime[1, 2] = rho_prime[2, 1] = 0.1
        with pytest.raises(UnsupportedDerivative):
            exact_qfi(rho, rho_prime)

    def test_half_relation_against_bound(self, rng):
        for _ in range(5):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            rho_prime = commutator_derivative(rng, rho)
            f_lower = lower_bound_from_state(rho, rho_prime).f_lower
            assert_allclose(f_lower, 0.5 * exact_qfi(rho, rho_prime).qfi, rtol=1e-9)


class TestBures:
    def test_commuting_states(self):
        a = np.diag([0.7, 0.3])
        b = np.diag([0.4, 0.6])
        fid_root = np.sqrt(0.7 * 0.4) + np.sqrt(0.3 * 0.6)
        assert_allclose(bures_distance_exact(a, b), 2.0 * (1.0 - fid_root), rtol=1e-12)

    def test_identical_states(self, rng):
        rho = random_mixed_state(rng, 3)
        assert bures_distance_exact(rho, rho) < 1e-12

    def test_fd_limit_gives_qfi(self, rng):
        # d_B^2(rho_x, rho_{x+h}) ~ (F/4) h^2, probed by a symmetric average
        rho = random_mixed_state(rng, 3)
        h_op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h_op = h_op + h_op.conj().T

        def state_at(x):
            u = np.eye(3) + 0j
            w, v = np.linalg.eigh(h_op)
            u = v @ np.diag(np.exp(-1j * x * w)) @ v.conj().T
            return u @ rho @ u.conj().T

        rho_prime = -1j * (h_op @ rho - rho @ h_op)
        qfi = exact_qfi(rho, rho_prime).qfi
        step = 1e-4
        fd = (
            bures_distance_exact(state_at(0.0), state_at(step))
            + bures_distance_exact(state_at(0.0), state_at(-step))
        ) / 2.0
        assert_allclose(4.0 * fd / step**2, qfi, rtol=1e-4)


class TestOptimalPovm:
    def test_projectors_resolve_identity(self, rng):
        rho = random_mixed_state(rng, 4)
        rho_prime = commutator_derivative(rng, rho)
        povm = optimal_povm_from_rho_prime(rho_prime)
        assert_allclose(sum(povm.elements), np.eye(4), atol=1e-12)
        assert not povm.degenerate

    def test_degenerate_spectrum_is_flagged(self):
        povm = optimal_povm_from_rho_prime(np.diag([0.5, 0.5, -1.0]))
        assert povm.degenerate
        assert len(povm.elements) == 2

    def test_achieves_classical_bound(self, rng):
        rho = random_mixed_state(rng, 3)
        rho_prime = commutator_derivative(rng, rho)
        povm = optimal_povm_from_rho_prime(rho_prime)
        cb = classical_bound(povm, rho_prime)
        assert_allclose(cb, float(np.trace(rho_prime @ rho_prime).real), rtol=1e-10)


class TestClassicalFisher:
    def test_plus_state_with_z_measurement_is_blind(self):
        rho = PLUS
        rho_prime = np.array([[0.0, -0.5j], [0.5j, 0.0]])
        povm = Povm(elements=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert classical_fisher(povm, rho, rho_prime) == 0.0

    def test_interference_measurement_hand_value(self):
        # measuring |+>, |-> on rho = (I + cos(x) sx)/2 at x = pi/3
        x = np.pi / 3
        rho = 0.5 * (np.eye(2) + np.cos(x) * np.array([[0, 1], [1, 0]]))
        rho_prime = -0.5 * np.sin(x) * np.array([[0.0, 1.0], [1.0, 0.0]])
        plus = PLUS
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        povm = Povm(elements=[plus, minus])
        got = classical_fisher(povm, rho, rho_prime)
        expected = np.sin(x) ** 2 / (1.0 - np.cos(x) ** 2)  # = 1 for this family
        assert_allclose(got, expected, rtol=1e-12)

    def test_never_exceeds_qfi(self, rng):
        for _ in range(10):
            rho = random_mixed_state(rng, 3)
            rho_prime = commutator_derivative(rng, rho)
            basis = random_unitary(rng, 3)
            povm = Povm(
                elements=[
                    np.outer(basis[:, i], basis[:, i].conj()) for i in range(3)
                ]
            )
            cfi = classical_fisher(povm, rho, rho_prime)
            qfi = exact_qfi(rho, rho_prime).qfi
            assert cfi <= qfi + 1e-8 * max(qfi, 1.0)

    def test_singular_outcome_warns_and_excludes(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho_prime = np.diag([-0.2, 0.2]).astype(complex)
        povm = Povm(elements=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.warns(SingularOutcome):
            got = classical_fisher(povm, rho, rho_prime)
        assert_allclose(got, 0.04)


def test_classical_bound_trivial_identity(rng):
    rho_prime = commutator_derivative(rng, random_mixed_state(rng, 3))
    povm = optimal_povm_from_rho_prime(rho_prime)
    assert_allclose(
        classical_bound(povm, rho_prime),
        float(np.trace(rho_prime @ rho_prime).real),
        rtol=1e-10,
    )
