from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import psd_sqrt
from qfibound.bound import _check_derivative
from qfibound.errors import (
    DegenerateInput,
    InvalidBracket,
    InvalidState,
    NegativeSpectrum,
    NonHermitian,
    NonSquare,
    NoSignChange,
)
from qfibound.numerics import (
    _hermiticity_defect,
    _scaled,
    herm_eig,
    largest_eigval_psd,
    loglog_slope,
    minimize_unimodal,
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


    @pytest.mark.parametrize("scale", [1e-310, 1e-320])
    def test_rejects_non_hermitian_at_subnormal_scale(self, scale):
        # the same matrix at unit scale is refused; at a subnormal peak the
        # complex division m / peak overflows unless done by parts
        unit = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonHermitian):
            herm_eig(unit)
        with pytest.raises(NonHermitian):
            herm_eig(scale * unit)

    def test_accepts_hermitian_at_subnormal_scale(self):
        eigenvalues, _ = herm_eig(np.array([[2e-320, 1e-320j], [-1e-320j, 2e-320]]))
        assert eigenvalues[-1] > 0.0


class TestScaled:
    def test_subnormal_peak_divides_exactly(self):
        # small integers times 2^-1060 are exact subnormals, and so is the peak
        unit = np.array([[4.0 - 2.0j, 0.0], [1.0j, -8.0]])
        m = unit * 2.0**-1060
        peak = float(np.max(np.abs(m)))
        assert 0.0 < peak < np.finfo(float).tiny
        assert_allclose(_scaled(m, peak), unit / 8.0, rtol=0.0, atol=0.0)

    def test_peak_per_leading_index(self):
        pair = np.array([np.eye(2) * 1e-315j, np.eye(2) * 3.0])
        unit = _scaled(pair, np.array([1e-315, 3.0])[:, None, None])
        assert_allclose(unit, [np.eye(2) * 1j, np.eye(2)], rtol=0.0, atol=0.0)


_PSD = np.array(
    [[2.0, 1.0 - 1.0j, 0.0, 0.5], [1.0 + 1.0j, 3.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.5, 0.0, 0.0, 1.0]]
)
_TRACELESS = np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])


def _skewed(m):
    """m with a defect of 1e-6 of its peak above the diagonal."""
    out = np.array(m, dtype=complex)
    out[0, 1] += 1e-6 * np.abs(m).max()
    return out


# (check of a matrix m that may carry the scale s, its error, a Hermitian m,
# a non-Hermitian m).  The derivative's floor is the round-off of its state,
# so the state carries the scale too.
SCALE_FREE_CHECKS = {
    "herm_eig": (lambda m, s: herm_eig(m), NonHermitian, _PSD, _skewed(_PSD)),
    "_check_derivative": (
        lambda m, s: _check_derivative(m, s * np.diag([0.5, 0.5])),
        InvalidState,
        _TRACELESS,
        _skewed(_TRACELESS),
    ),
}


class TestHermiticityDefect:
    @pytest.mark.parametrize("k", [-900, -300, 0, 300, 900])
    @pytest.mark.parametrize("name", sorted(SCALE_FREE_CHECKS))
    def test_checks_decide_alike_at_any_scale(self, name, k):
        check, error, hermitian, skew = SCALE_FREE_CHECKS[name]
        s = 2.0**k
        check(s * hermitian, s)
        with pytest.raises(error):
            check(s * skew, s)

    def test_measure(self):
        assert _hermiticity_defect(np.array([[1.0, 2.0], [0.0, 4.0]])) == 0.5
        assert_allclose(_hermiticity_defect(np.array([_PSD, _skewed(_PSD)])), [0.0, 1e-6])

    def test_zero_matrix(self):
        assert _hermiticity_defect(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_non_finite_fails(self, bad):
        for m in (np.array([[1.0, 0.0], [0.0, bad]]), np.array([[1.0, bad], [bad, 1.0]])):
            assert not _hermiticity_defect(m) <= 1.0

    def test_overflowing_difference_fails(self):
        assert not _hermiticity_defect(np.array([[1e308, 1e308], [-1e308, 1.0]])) <= 1.0


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

    def test_zero_matrix_has_empty_top_eigenspace(self):
        top = largest_eigval_psd(np.zeros((3, 3)))
        assert top.value == 0.0
        assert top.vectors.shape == (3, 0)

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
