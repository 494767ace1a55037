from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qfibound.errors import (
    DegenerateInput,
    InvalidBracket,
    NegativeSpectrum,
    NonHermitian,
    NonSquare,
    NoSignChange,
)
from qfibound.numerics import (
    herm_eig,
    largest_eigval_psd,
    loglog_slope,
    minimize_unimodal,
    psd_sqrt,
    solve_root_bisect,
)


class TestHermEig:
    def test_known_two_by_two(self):
        eigenvalues, _ = herm_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(eigenvalues, [1.0, 3.0])

    def test_reconstruction(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        w, v = herm_eig(h)
        rebuilt = v @ np.diag(w) @ v.conj().T
        assert_allclose(rebuilt, h, atol=1e-12)

    def test_eigenvalues_ascending(self, rng):
        a = rng.normal(size=(6, 6))
        eigenvalues, _ = herm_eig(a + a.T)
        assert np.all(np.diff(eigenvalues) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            herm_eig(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        # a Frobenius norm of entries below about 1e-154 underflows to 0
        with pytest.raises(NonHermitian):
            herm_eig(np.array([[0.0, scale], [0.0, 0.0]]))


class TestLargestEigvalPsd:
    def test_diagonal(self):
        top = largest_eigval_psd(np.diag([0.2, 0.5, 0.3]))
        assert_allclose(top.value, 0.5)
        assert top.vectors.shape == (3, 1)
        assert_allclose(np.abs(top.vectors[:, 0]), [0.0, 1.0, 0.0], atol=1e-14)

    def test_degenerate_top_cluster(self):
        top = largest_eigval_psd(np.diag([1.0, 3.0, 3.0]))
        assert_allclose(top.value, 3.0)
        assert top.vectors.shape[1] == 2

    def test_near_degenerate_within_rtol(self):
        # a 1e-9 relative split is below the clustering width
        top = largest_eigval_psd(np.diag([1.0, 3.0 * (1 - 1e-9), 3.0]))
        assert top.vectors.shape[1] == 2

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NegativeSpectrum):
            largest_eigval_psd(np.diag([1.0, -0.5]))

    def test_scale_free(self, rng):
        scale = 1e-170
        a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        m = a @ a.conj().T  # rank 3: its smallest eigenvalue is round-off
        assert_allclose(largest_eigval_psd(scale * m).value / scale, largest_eigval_psd(m).value)
        with pytest.raises(NegativeSpectrum):
            largest_eigval_psd(scale * np.diag([1.0, -0.5]))


class TestPsdSqrt:
    def test_squares_back(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        root = psd_sqrt(m)
        assert_allclose(root @ root, m, atol=1e-10)

    def test_hand_value(self):
        # sqrt of [[2,1],[1,2]] has eigenvalues 1 and sqrt(3)
        root = psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(np.linalg.eigvalsh(root), [1.0, np.sqrt(3.0)])

    def test_tolerates_tiny_negative_eigenvalues(self):
        m = np.diag([1.0, -1e-12])
        root = psd_sqrt(m)
        assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-6)

    def test_rejects_genuinely_negative(self):
        with pytest.raises(NegativeSpectrum):
            psd_sqrt(np.diag([1.0, -0.1]))


class TestMinimizeUnimodal:
    def test_quadratic(self):
        x, fx = minimize_unimodal(lambda t: (t - 1.7) ** 2 + 0.25, 0.0, 3.0)
        assert_allclose(x, 1.7, atol=1e-8)
        assert_allclose(fx, 0.25, atol=1e-12)

    def test_minimum_near_edge(self):
        x, _ = minimize_unimodal(lambda t: (t - 0.01) ** 2, 0.0, 10.0)
        assert_allclose(x, 0.01, atol=1e-7)

    def test_rejects_empty_bracket(self):
        with pytest.raises(InvalidBracket):
            minimize_unimodal(lambda t: t * t, 2.0, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_random_shifted_quadratics(self, center):
        x, _ = minimize_unimodal(lambda t: (t - center) ** 2, -6.0, 6.0)
        assert abs(x - center) < 1e-7


class TestSolveRootBisect:
    def test_cosine_root(self):
        assert_allclose(solve_root_bisect(np.cos, 1.0, 2.0), np.pi / 2, atol=1e-11)

    def test_rejects_same_sign(self):
        with pytest.raises(NoSignChange):
            solve_root_bisect(lambda t: t * t + 1.0, 0.0, 1.0)

    def test_rejects_bad_bracket(self):
        with pytest.raises(InvalidBracket):
            solve_root_bisect(np.cos, 2.0, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-0.9, max_value=0.9))
    @example(1e-320)
    @example(5e-324)
    @example(-5e-324)
    def test_linear_roots(self, root):
        got = solve_root_bisect(lambda t: t - root, -1.0, 1.0)
        assert abs(got - root) < 1e-10


class TestLoglogSlope:
    @pytest.mark.parametrize("exponent", [-1.5, -1.0, 0.5, 2.0])
    def test_exact_power_law(self, exponent):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        points = [(x, 3.0 * x**exponent) for x in xs]
        assert_allclose(loglog_slope(points), exponent, rtol=1e-12)

    def test_rejects_single_point(self):
        with pytest.raises(DegenerateInput):
            loglog_slope([(1.0, 2.0)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DegenerateInput):
            loglog_slope([(1.0, 1.0), (2.0, 0.0)])
