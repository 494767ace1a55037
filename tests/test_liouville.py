from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfibound.channels import (
    named_noise,
    phase_covariant_family,
    rotation_family,
    rotation_superop,
)
from qfibound.errors import (
    CompletenessViolation,
    DimensionBudgetExceeded,
    DimensionMismatch,
    NonHermitian,
)
from qfibound.liouville import (
    MAX_DENSE_ROWS,
    ChannelFamily,
    GramTriple,
    Superoperator,
    devectorize,
    finite_diff_superop,
    gram_tensor_power,
    gram_triple,
    liouville_inner,
    product_family,
    site_permutation,
    superop_from_kraus,
    tensor_power,
    tensor_power_derivative,
    vectorize,
)
from qfibound.sampling import random_cptp_params, random_unitary_family

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestVectorize:
    def test_row_major_layout(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(vectorize(a), [1.0, 2.0, 3.0, 4.0])

    def test_roundtrip(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_allclose(devectorize(vectorize(a)), a)

    def test_dim_properties(self):
        assert vectorize(np.eye(4)).shape == (16,)

    def test_rejects_non_square_length(self):
        with pytest.raises(DimensionMismatch):
            devectorize(np.zeros(5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5))
    def test_roundtrip_any_dim(self, dim):
        a = np.arange(dim * dim, dtype=float).reshape(dim, dim)
        assert_allclose(devectorize(vectorize(a)), a)


class TestLiouvilleInner:
    def test_is_trace_of_adjoint_product(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_allclose(liouville_inner(vectorize(a), vectorize(b)), np.trace(a.conj().T @ b))

    def test_self_inner_is_purity(self):
        rho = np.array([[0.75, 0.25], [0.25, 0.25]])
        assert_allclose(liouville_inner(vectorize(rho), vectorize(rho)), np.trace(rho @ rho))

    def test_accepts_raw_arrays(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        assert_allclose(liouville_inner(v, v), 2.0)

    def test_operator_hand_value(self):
        a = np.array([[1.0, 1j], [0.0, 1.0]])
        b = np.array([[2.0, 0.0], [1j, 1.0]])
        # tr(a^dag b) = conj(1)*2 + conj(i)*0 + conj(0)*i + conj(1)*1
        assert_allclose(liouville_inner(a, b), 3.0 + 0j)

    def test_operator_conjugate_symmetry(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert_allclose(liouville_inner(a, b), np.conj(liouville_inner(b, a)))


class TestSuperoperator:
    def test_unitary_conjugation(self, rng):
        u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        s = Superoperator(np.kron(u, u.conj()), trace_preserving=True)
        rho = random_density(rng, 2)
        out = devectorize(s.apply(vectorize(rho)))
        assert_allclose(out, u @ rho @ u.conj().T, atol=1e-14)

    def test_requires_exactly_one_representation(self):
        with pytest.raises(ValueError):
            Superoperator(np.eye(4), diag=np.ones(4))
        with pytest.raises(ValueError):
            Superoperator()

    def test_rejects_non_square_dimension(self):
        with pytest.raises(DimensionMismatch):
            Superoperator(diag=np.ones(5))

    def test_trace_preserving_check_fires(self):
        with pytest.raises(CompletenessViolation):
            Superoperator(diag=np.array([0.5, 1.0, 1.0, 1.0]), trace_preserving=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "diagonal"])
    def test_trace_preserving_check_rejects_non_finite_maps(self, bad, dense):
        # a NaN defect compares false against any tolerance; inf times the
        # identity's zero imaginary parts is such a NaN
        entries = np.ones(4, dtype=complex)
        entries[0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(CompletenessViolation):
            if dense:
                Superoperator(np.diag(entries), trace_preserving=True)
            else:
                Superoperator(diag=entries, trace_preserving=True)

    def test_dagger_is_adjoint(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = Superoperator(m)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = np.vdot(a, s.apply(b))
        rhs = np.vdot(s.dagger().apply(a), b)
        assert_allclose(lhs, rhs)

    def test_compose_matches_matrix_product(self, rng):
        m1 = rng.normal(size=(4, 4))
        m2 = rng.normal(size=(4, 4))
        composed = Superoperator(m1).compose(Superoperator(m2))
        assert_allclose(composed.matrix, m1 @ m2)

    def test_diag_compose_stays_diagonal(self):
        s = Superoperator(diag=np.array([1.0, 0.5, 0.5, 1.0]))
        out = s.compose(s)
        assert out.is_diagonal
        assert_allclose(out.diag, [1.0, 0.25, 0.25, 1.0])

    def test_diag_matrix_view(self):
        s = Superoperator(diag=np.array([1.0, 2.0, 3.0, 4.0]))
        assert_allclose(s.matrix, np.diag([1.0, 2.0, 3.0, 4.0]))


class TestSuperopFromKraus:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_dephasing_kraus_is_diagonal_map(self, eta):
        p = (1.0 + eta) / 2.0
        kraus = [np.sqrt(p) * np.eye(2), np.sqrt(1.0 - p) * SZ]
        s = superop_from_kraus(kraus)
        assert_allclose(s.matrix, np.diag([1.0, eta, eta, 1.0]), atol=1e-14)

    def test_matches_direct_action(self, rng):
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.4)]])
        k1 = np.array([[0.0, np.sqrt(0.6)], [0.0, 0.0]])
        s = superop_from_kraus([k0, k1])
        rho = random_density(rng, 2)
        expected = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
        assert_allclose(devectorize(s.apply(vectorize(rho))), expected, atol=1e-14)

    def test_incomplete_set_rejected_when_tp_required(self):
        with pytest.raises(CompletenessViolation):
            superop_from_kraus([0.9 * np.eye(2)], trace_preserving=True)


class TestSitePermutation:
    def test_is_a_permutation(self):
        p = site_permutation(2, 2)
        assert p.shape == (16,)
        assert_allclose(np.sort(p), np.arange(16))

    def test_reorders_product_vectorization(self, rng):
        # vec(A (x) B) indexed by (mu1 mu2, nu1 nu2) equals the Kronecker
        # product of the single-site vectorizations read through the map
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        p = site_permutation(2, 2)
        site_major = np.kron(vectorize(a), vectorize(b))
        assert_allclose(site_major[p], vectorize(np.kron(a, b)))


class TestTensorPower:
    def test_matches_product_action(self, rng):
        u = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        s = Superoperator(np.kron(u, u.conj()), trace_preserving=True)
        s2 = tensor_power(s, 2)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        out = devectorize(s2.apply(vectorize(np.kron(rho, sigma))))
        uu = np.kron(u, u)
        assert_allclose(out, uu @ np.kron(rho, sigma) @ uu.conj().T, atol=1e-13)

    def test_diagonal_map_stays_diagonal(self):
        s = Superoperator(diag=np.array([1.0, 0.5, 0.5, 1.0]))
        s3 = tensor_power(s, 3)
        assert s3.is_diagonal
        assert s3.diag.size == 4**3

    def test_identity_power(self):
        s = rotation_superop(0.7, 1.0)
        assert_allclose(tensor_power(s, 1).diag, s.diag)

    def test_dense_budget_enforced(self):
        u = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        s = Superoperator(np.kron(u, u.conj()))
        with pytest.raises(DimensionBudgetExceeded):
            tensor_power(s, 7)

    def test_diagonal_budget_enforced(self):
        s = Superoperator(diag=np.array([1.0, 0.5, 0.5, 1.0]))
        with pytest.raises(DimensionBudgetExceeded):
            tensor_power(s, 40)


class TestGramTriple:
    def test_rotation_building_blocks(self):
        t = 1.3
        triple = gram_triple(rotation_family(t), 0.9)
        assert_allclose(triple.a.diag, [1.0, 1.0, 1.0, 1.0])
        assert_allclose(triple.b.diag, [0.0, t * t, t * t, 0.0])
        assert_allclose(triple.c.diag, [0.0, 1j * t, -1j * t, 0.0])

    def test_validation_rejects_negative_diagonal(self):
        good = Superoperator(diag=np.ones(4))
        bad = Superoperator(diag=np.array([1.0, -0.5, 1.0, 1.0]))
        with pytest.raises(NonHermitian):
            GramTriple(a=good, b=bad, c=good)

    def test_validation_rejects_complex_diagonal(self):
        good = Superoperator(diag=np.ones(4))
        bad = Superoperator(diag=np.array([1.0, 0.5j, 1.0, 1.0]))
        with pytest.raises(NonHermitian):
            GramTriple(a=bad, b=good, c=good)

    def test_validation_rejects_non_hermitian_dense(self):
        good = Superoperator(diag=np.ones(4))
        bad = Superoperator(np.eye(4) + np.triu(np.ones((4, 4)), 1))
        with pytest.raises(NonHermitian):
            GramTriple(a=good, b=bad, c=good)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "diagonal"])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_validation_rejects_non_finite(self, name, dense, bad):
        entries = np.ones(4, dtype=complex)
        entries[1] = bad
        bad_op = Superoperator(np.diag(entries)) if dense else Superoperator(diag=entries)
        good = Superoperator(diag=np.ones(4))
        parts = {"a": good, "b": good, "c": good, name: bad_op}
        with pytest.raises(NonHermitian, match="non-finite"):
            GramTriple(**parts)


class TestGramTensorPower:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_direct_construction(self, n):
        # the two-summation recursion must equal the Gram matrix built
        # from the explicit product-rule derivative
        t = 0.8
        family = rotation_family(t)
        x = 0.35
        triple = gram_triple(family, x)
        via_recursion = gram_tensor_power(triple, n)

        phi_n = tensor_power(family.evaluate(x), n)
        dphi_n = tensor_power_derivative(family.evaluate(x), family.derivative_at(x), n)
        direct = dphi_n.dagger().compose(dphi_n)
        delta = via_recursion.matrix - direct.matrix
        assert np.max(np.abs(delta)) < 1e-10

    def test_unitary_gram_norm_value(self):
        # for the qubit rotation the N-site Gram norm is N^2 t^2
        t = 0.6
        triple = gram_triple(rotation_family(t), 0.0)
        g = gram_tensor_power(triple, 3)
        top = np.max(np.abs(g.diag.real)) if g.is_diagonal else np.max(np.linalg.eigvalsh(g.matrix))
        assert_allclose(top, 9.0 * t * t, rtol=1e-12)


def _amplitude_damping():
    return phase_covariant_family(0.8, named_noise("amplitude_damping", 0.5, 0.8))


def _random_phase_covariant():
    return phase_covariant_family(0.5, random_cptp_params(np.random.default_rng(7), 0.5))


def _finite_difference():
    return ChannelFamily(evaluate=_amplitude_damping().evaluate, derivative=None)


def _qutrit_unitary():
    return random_unitary_family(np.random.default_rng(11), 3)


# name -> (family factory, site Hilbert dimension)
_PRODUCT_FAMILIES = {
    "amplitude-damping": (_amplitude_damping, 2),
    "rotation": (lambda: rotation_family(0.9), 2),
    "random-phase-covariant": (_random_phase_covariant, 2),
    "finite-difference": (_finite_difference, 2),
    "qutrit": (_qutrit_unitary, 3),
}


class TestProductAction:
    """The site-by-site action of product_family against the dense powers."""

    @pytest.mark.parametrize(
        "name,n",
        [
            (name, n)
            for name, (_, d) in _PRODUCT_FAMILIES.items()
            for n in (1, 2, 3, 4)
            if (d * d) ** n <= MAX_DENSE_ROWS
        ],
    )
    def test_matches_dense_oracle(self, name, n, rng):
        family = _PRODUCT_FAMILIES[name][0]()
        site = family.evaluate(0.4)
        rows = site.hilbert_dim ** (2 * n)
        v = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        value, deriv = product_family(family, n).apply_with_derivative(0.4, v)
        oracle = tensor_power(site, n).apply(v)
        d_oracle = tensor_power_derivative(site, family.derivative_at(0.4), n).apply(v)
        assert_allclose(value, oracle, rtol=0, atol=1e-12)
        assert_allclose(deriv, d_oracle, rtol=0, atol=1e-12)

    def test_accepts_liouville_vector(self, rng):
        rho = random_density(rng, 4)
        prod = product_family(rotation_family(0.9), 2)
        from_vector = prod.apply_with_derivative(0.4, vectorize(rho))
        from_array = prod.apply_with_derivative(0.4, rho.reshape(-1))
        for got, want in zip(from_vector, from_array):
            assert_allclose(got, want, rtol=0, atol=0)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            product_family(rotation_family(0.9), 3).apply_with_derivative(0.4, np.ones(16))


class TestFamilies:
    def test_product_family_derivative_is_product_rule(self):
        family = rotation_family(0.9)
        prod = product_family(family, 2)
        x = 0.4
        analytic = prod.derivative_at(x)
        numeric = finite_diff_superop(prod, x, 1e-6)
        assert np.max(np.abs(analytic.matrix - numeric.matrix)) < 1e-8

    def test_finite_diff_matches_analytic(self):
        family = rotation_family(1.1)
        fd = finite_diff_superop(family, 0.2, 1e-6)
        exact = family.derivative_at(0.2)
        assert np.max(np.abs(fd.matrix - exact.matrix)) < 1e-9

    def test_family_fd_fallback(self):
        family = ChannelFamily(
            evaluate=lambda x: rotation_superop(x, 1.0),
            derivative=None,
            fd_step=1e-6,
        )
        assert family.derivative_mode == "central"
        approx = family.derivative_at(0.3)
        exact = rotation_family(1.0).derivative_at(0.3)
        assert np.max(np.abs(approx.matrix - exact.matrix)) < 1e-9
