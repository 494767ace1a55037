from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import finite_diff
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfibound.bound import ghz_lower_bound, ghz_state, lower_bound_from_channel, max_bound_over_states
from qfibound.channels import (
    NoiseParams,
    named_noise,
    phase_covariant_family,
    rotation_family,
)
from qfibound.errors import (
    CompletenessViolation,
    DimensionBudgetExceeded,
    DimensionMismatch,
    NonHermitian,
    NonSquare,
)
from qfibound.liouville import (
    MAX_DENSE_ROWS,
    ChannelFamily,
    _check_trace_preserving,
    _gram_arrays,
    devectorize,
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
from qfibound.numerics import HERMITICITY_RTOL, _hermiticity_defect, _scaled
from qfibound.sampling import random_cptp_params, random_kraus_set, random_noisy_family, random_unitary_family
from qfibound.verify import CORRUPTION_FACTOR, corrupt_family

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
    """A channel is its d^2 x d^2 matrix; trace preservation is checked by
    ``_check_trace_preserving``."""

    def test_unitary_conjugation(self, rng):
        u = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        s = _check_trace_preserving(np.kron(u, u.conj()))
        rho = random_density(rng, 2)
        out = devectorize(s @ vectorize(rho))
        assert_allclose(out, u @ rho @ u.conj().T, atol=1e-14)

    def test_rejects_non_square_dimension(self):
        # a 5 x 5 matrix is no map on d x d operators
        with pytest.raises(DimensionMismatch):
            tensor_power(np.eye(5), 2)

    def test_trace_preserving_check_fires(self):
        with pytest.raises(CompletenessViolation):
            _check_trace_preserving(np.diag([0.5, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trace_preserving_check_rejects_non_finite_maps(self, bad):
        # a NaN defect compares false against any tolerance; inf times the
        # identity's zero imaginary parts is such a NaN
        entries = np.ones(4, dtype=complex)
        entries[0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(CompletenessViolation):
            _check_trace_preserving(np.diag(entries))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trace_preserving_check_sees_every_row(self, bad):
        # rows 1 and 2 (|0><1| and |1><0|) hold no part of the dual on the
        # identity, so only a test of every entry sees a defect there
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(CompletenessViolation, match="non-finite"):
            _check_trace_preserving(m)

    def test_compose_matches_matrix_product(self, rng):
        # the channel K . L (L acts first) is the matrix product of the two
        # channel matrices: composing Kraus sets multiplies superoperators
        ks, ls = random_kraus_set(rng, 2, 2), random_kraus_set(rng, 2, 3)
        composed = superop_from_kraus([k @ m for k in ks for m in ls])
        assert_allclose(composed, superop_from_kraus(ks) @ superop_from_kraus(ls), atol=1e-14)


class TestSuperopFromKraus:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_dephasing_kraus_is_diagonal_map(self, eta):
        p = (1.0 + eta) / 2.0
        kraus = [np.sqrt(p) * np.eye(2), np.sqrt(1.0 - p) * SZ]
        s = superop_from_kraus(kraus)
        assert_allclose(s, np.diag([1.0, eta, eta, 1.0]), atol=1e-14)

    def test_matches_direct_action(self, rng):
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(0.4)]])
        k1 = np.array([[0.0, np.sqrt(0.6)], [0.0, 0.0]])
        s = superop_from_kraus([k0, k1])
        rho = random_density(rng, 2)
        expected = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
        assert_allclose(devectorize(s @ vectorize(rho)), expected, atol=1e-14)

    def test_incomplete_set_rejected_when_tp_required(self):
        with pytest.raises(CompletenessViolation):
            superop_from_kraus([0.9 * np.eye(2)])

    @pytest.mark.parametrize("defect,refused", [(2e-10, True), (5e-11, False)])
    def test_completeness_tolerance_is_the_trace_preserving_one(self, defect, refused):
        # sum K^dag K = (1 + defect) I: the trace-preserving check's 1e-10
        # is the one tolerance, with no looser pre-check
        kraus = [np.sqrt(1.0 + defect) * np.eye(2)]
        if refused:
            with pytest.raises(CompletenessViolation, match="dual moves identity"):
                superop_from_kraus(kraus)
        else:
            assert_allclose(superop_from_kraus(kraus), (1.0 + defect) * np.eye(4))


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
        s2 = tensor_power(np.kron(u, u.conj()), 2)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        out = devectorize(s2 @ vectorize(np.kron(rho, sigma)))
        uu = np.kron(u, u)
        assert_allclose(out, uu @ np.kron(rho, sigma) @ uu.conj().T, atol=1e-13)

    def test_identity_power(self):
        s = np.diag([1.0, np.exp(-0.7j), np.exp(0.7j), 1.0])
        assert_allclose(tensor_power(s, 1), s)

    def test_derivative_is_product_rule(self):
        # against a central difference of the dense power of a non-diagonal family
        family = _amplitude_damping()
        x, h = 0.4, 1e-6
        analytic = tensor_power_derivative(family.evaluate(x), family.derivative(x), 2)
        plus, minus = (tensor_power(family.evaluate(x + s * h), 2) for s in (1, -1))
        assert np.max(np.abs(analytic - (plus - minus) / (2 * h))) < 1e-8

    def test_dense_budget_enforced(self):
        u = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        with pytest.raises(DimensionBudgetExceeded):
            tensor_power(np.kron(u, u.conj()), 7)


class TestGramTriple:
    def test_rotation_building_blocks(self):
        t = 1.3
        triple = gram_triple(rotation_family(t), 0.9)
        assert isinstance(triple, np.ndarray) and triple.shape == (3, 4, 4)
        a, b, c = triple
        assert_allclose(a, np.eye(4))
        assert_allclose(b, np.diag([0.0, t * t, t * t, 0.0]))
        assert_allclose(c, np.diag([0.0, 1j * t, -1j * t, 0.0]))

    @pytest.mark.parametrize("k", [-500, 0, 500])
    def test_a_and_b_are_hermitian_psd_by_construction(self, rng, k):
        # random finite maps, some rank-deficient, at scales 2^k: the
        # products X^dag X need no runtime check
        for rank in (1, 2, 4, 9):
            phi, dphi = (
                2.0**k * (rng.normal(size=(9, rank)) + 1j * rng.normal(size=(9, rank)))
                @ (rng.normal(size=(rank, 9)) + 1j * rng.normal(size=(rank, 9)))
                for _ in range(2)
            )
            pair = _gram_arrays(phi, dphi)[:2]
            assert np.all(_hermiticity_defect(pair) <= HERMITICITY_RTOL)
            unit = _scaled(pair, np.abs(pair).max(axis=(1, 2))[:, None, None])
            lowest = np.linalg.eigvalsh((unit + unit.conj().transpose(0, 2, 1)) / 2.0)[:, 0]
            assert np.all(lowest >= -1e-10 * np.linalg.norm(unit, axis=(1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_validation_rejects_non_finite(self, name, bad):
        # a non-finite entry in Phi (name a) or in Phi' (name b)
        maps = {"a": np.eye(4, dtype=complex), "b": np.eye(4, dtype=complex)}
        maps[name][1, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NonHermitian, match="non-finite"):
            _gram_arrays(maps["a"], maps["b"])

    def test_validation_rejects_overflowing_product(self):
        # every entry of Phi' is finite, but b = Phi'^dag Phi' overflows
        dphi = np.diag([0.0, 1e155, 1.0, 0.0]).astype(complex)
        assert np.isfinite(dphi).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonHermitian, match="non-finite"):
            _gram_arrays(np.eye(4, dtype=complex), dphi)


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
        dphi_n = tensor_power_derivative(family.evaluate(x), family.derivative(x), n)
        direct = dphi_n.conj().T @ dphi_n
        delta = via_recursion - direct
        assert np.max(np.abs(delta)) < 1e-10

    def test_unitary_gram_norm_value(self):
        # for the qubit rotation the N-site Gram norm is N^2 t^2
        t = 0.6
        triple = gram_triple(rotation_family(t), 0.0)
        g = gram_tensor_power(triple, 3)
        assert_allclose(np.max(np.linalg.eigvalsh(g)), 9.0 * t * t, rtol=1e-12)


def _amplitude_damping():
    return phase_covariant_family(0.8, named_noise("amplitude_damping", 0.5, 0.8))


def _random_phase_covariant():
    return phase_covariant_family(0.5, random_cptp_params(np.random.default_rng(7), 0.5))


def _finite_difference():
    family = _amplitude_damping()
    return ChannelFamily(evaluate=family.evaluate, derivative=lambda x: finite_diff(family, x))


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
        make_family, d = _PRODUCT_FAMILIES[name]
        family = make_family()
        site = family.evaluate(0.4)
        rows = d ** (2 * n)
        v = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        value, deriv = product_family(family, n).apply_with_derivative(0.4, v)
        oracle = tensor_power(site, n) @ v
        d_oracle = tensor_power_derivative(site, family.derivative(0.4), n) @ v
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

    def test_is_only_the_site_kernel(self):
        family = rotation_family(0.9)
        assert product_family(family, 1) is family
        prod = product_family(family, 2.0)
        assert prod.site is family and prod.n == 2
        assert not hasattr(prod, "evaluate") and not hasattr(prod, "derivative")


# id -> (family factory, x, tolerance, derivative / central difference):
# every channel family of the package against the central-difference oracle;
# rotation_family is checked by test_finite_diff_matches_analytic below
_FD_CASES = {
    "phase-covariant-diagonal": (
        lambda: phase_covariant_family(1.3, NoiseParams(k=0.2, eta_par=0.6, eta_perp=0.3)), 0.4, 1e-9, 1.0),
    "random-unitary": (lambda: random_unitary_family(np.random.default_rng(20240817), 3), 0.3, 1e-7, 1.0),
    "random-noisy": (lambda: random_noisy_family(np.random.default_rng(20240817), 2, 3), 0.5, 1e-7, 1.0),
    "corrupt": (lambda: corrupt_family(rotation_family(1.1)), 0.2, 1e-9, CORRUPTION_FACTOR),
}


class TestFamilies:
    @pytest.mark.parametrize("name", list(_FD_CASES))
    def test_derivative_matches_central_difference(self, name):
        make_family, x, tol, factor = _FD_CASES[name]
        family = make_family()
        value, exact = family.evaluate(x), family.derivative(x)
        assert isinstance(value, np.ndarray) and isinstance(exact, np.ndarray)
        d = math.isqrt(len(value))
        assert value.shape == exact.shape == (d * d, d * d)
        assert np.max(np.abs(exact - factor * finite_diff(family, x))) < tol

    def test_finite_diff_matches_analytic(self):
        family = rotation_family(1.1)
        assert np.max(np.abs(family.derivative(0.2) - finite_diff(family, 0.2))) < 1e-9


def _mismatched():
    # a qubit map with a qutrit-sized derivative
    return ChannelFamily(evaluate=lambda x: np.eye(4), derivative=lambda x: np.zeros((9, 9)))


def _non_square():
    return ChannelFamily(evaluate=lambda x: np.ones((4, 9)), derivative=lambda x: np.ones((4, 9)))


def _side_five():
    return ChannelFamily(evaluate=lambda x: np.eye(5), derivative=lambda x: np.zeros((5, 5)))


# every entry point that reads a family's matrices
_ENTRY_POINTS = {
    "max_bound_over_states": lambda f: max_bound_over_states(f, 0.0, 2),
    "ghz_lower_bound": lambda f: ghz_lower_bound(f, 0.0, 2),
    "gram_triple": lambda f: gram_triple(f, 0.0),
    "product-kernel": lambda f: lower_bound_from_channel(product_family(f, 2), 0.0, ghz_state(2)),
    "single-site": lambda f: lower_bound_from_channel(f, 0.0, np.eye(2) / 2.0),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "make_family,error",
    [(_mismatched, DimensionMismatch), (_non_square, NonSquare), (_side_five, DimensionMismatch)],
    ids=["mismatched-derivative", "non-square", "side-five"],
)
def test_malformed_family_is_refused_alike(entry, make_family, error):
    with pytest.raises(error):
        _ENTRY_POINTS[entry](make_family())
