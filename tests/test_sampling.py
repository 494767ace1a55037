from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qfibound.channels import EXPONENTIAL_FORM
from qfibound.liouville import devectorize, vectorize
from qfibound.sampling import (
    random_cptp_params,
    random_hermitian,
    random_kraus_set,
    random_mixed_state,
    random_pure_state,
    random_short_time_model,
    random_unitary,
    random_unitary_family,
)


class TestRandomUnitary:
    def test_unitarity(self, rng):
        u = random_unitary(rng, 5)
        assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    def test_seeded_reproducibility(self):
        a = random_unitary(np.random.default_rng(7), 4)
        b = random_unitary(np.random.default_rng(7), 4)
        assert_allclose(a, b)


class TestRandomStates:
    def test_pure_state_normalized(self, rng):
        psi = random_pure_state(rng, 6)
        assert_allclose(np.vdot(psi, psi).real, 1.0, atol=1e-13)

    def test_mixed_state_is_density(self, rng):
        rho = random_mixed_state(rng, 4)
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        assert_allclose(rho, rho.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(rho)[0] > -1e-14

    def test_rank_control(self, rng):
        rho = random_mixed_state(rng, 5, rank=2)
        evals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.all(evals[2:] < 1e-12)
        assert evals[1] > 1e-6

    def test_hermitian_and_traceless(self, rng):
        h = random_hermitian(rng, 4, traceless=True)
        assert_allclose(h, h.conj().T, atol=1e-14)
        assert abs(np.trace(h)) < 1e-12


class TestRandomKraus:
    @pytest.mark.parametrize("n_kraus", [1, 2, 4])
    def test_completeness(self, rng, n_kraus):
        ops = random_kraus_set(rng, 3, n_kraus)
        total = sum(op.conj().T @ op for op in ops)
        assert_allclose(total, np.eye(3), atol=1e-12)


class TestRandomFamilies:
    def test_unitary_family_preserves_trace(self, rng):
        family = random_unitary_family(rng, 3)
        rho = random_mixed_state(rng, 3)
        out = family.evaluate(0.7) @ vectorize(rho)
        assert_allclose(np.trace(devectorize(out)).real, 1.0, atol=1e-12)


def test_random_short_time_model_ranges(rng):
    for _ in range(25):
        model = random_short_time_model(rng)
        assert model.form == EXPONENTIAL_FORM
        assert 0.3 <= model.alpha_perp <= 1.2
        assert model.alpha_par <= model.alpha_perp
        assert model.alpha_k <= model.alpha_par
        assert model.beta_perp == model.beta_par == model.beta_k


def test_random_cptp_params_is_physical(rng):
    for _ in range(10):
        params = random_cptp_params(rng, 0.4)
        assert params.eta_par + abs(params.k) <= 1.0 + 1e-12
        assert 0.0 <= params.eta_perp <= 1.0
