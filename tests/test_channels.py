from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import conftest
from conftest import (
    ECS_GRID_ALPHAS,
    assert_same_bits,
    correlated_alphas,
    correlated_dephasing_diag,
    correlated_dephasing_family,
    devectorize,
    indexed_coherent_amplitudes,
    loss_weight_rows,
    loss_weights,
    masked_kraus_diagonals,
    normalized_ecs_vector,
    random_cptp_params,
    recurrence_kraus,
    vectorize,
)
from qfibound import channels
from qfibound.channels import (
    AMPLITUDE_DAMPING,
    DEPHASING,
    DEPOLARIZING,
    EXPONENTIAL_FORM,
    TRUNCATED_FORM,
    EcsSpec,
    NoiseParams,
    ShortTimeModel,
    ecs_vector,
    loss_kraus,
    named_noise,
    params_at,
    phase_covariant_derivative,
    phase_covariant_family,
    phase_covariant_superop,
    rotation_family,
)
from qfibound.errors import (
    CptpViolation,
    DimensionBudgetExceeded,
    RangeViolation,
    TruncationInsufficient,
)
from qfibound.metrology import interferometer_gram_diag


def ecs_state(spec):
    """Two-mode density matrix of the ECS (rank 1, trace 1 up to the tail)."""
    psi = ecs_vector(spec)
    return np.outer(psi, psi.conj())


PHYSICAL_POINTS = [(0.0, 1.0, 1.0), (0.5, 0.5, 0.5), (0.0, 0.0, 0.5), (0.0, 1.0, 0.0)]


class TestNoiseParams:
    @pytest.mark.parametrize("k,eta_par,eta_perp", PHYSICAL_POINTS)
    def test_accepts_physical_points(self, k, eta_par, eta_perp):
        NoiseParams(k=k, eta_par=eta_par, eta_perp=eta_perp)

    def test_rejects_too_much_coherence(self):
        # 1 + eta_par = 1 while sqrt(4 eta_perp^2) = 1.2
        with pytest.raises(CptpViolation):
            NoiseParams(k=0.0, eta_par=0.0, eta_perp=0.6)

    def test_rejects_excess_displacement(self):
        with pytest.raises(CptpViolation):
            NoiseParams(k=0.6, eta_par=0.5, eta_perp=0.3)

    def test_rejects_out_of_range(self):
        with pytest.raises(CptpViolation):
            NoiseParams(eta_perp=1.5)

    def test_amplitude_damping_boundary_is_allowed(self):
        # k = 1 - d, eta_par = d, eta_perp = sqrt(d) saturates
        # 1 + eta_par = sqrt(k^2 + 4 eta_perp^2) exactly
        d = 0.7
        NoiseParams(k=1.0 - d, eta_par=d, eta_perp=math.sqrt(d))

    def test_population_weights(self):
        p = NoiseParams(k=0.2, eta_par=0.6, eta_perp=0.3)
        assert_allclose((p.j_pp, p.j_pm, p.j_mp, p.j_mm), (0.9, 0.3, 0.7, 0.1))

    @pytest.mark.parametrize(
        "params",
        [
            *(pytest.param(NoiseParams(*point), id="-".join(map(str, point))) for point in PHYSICAL_POINTS),
            pytest.param(NoiseParams(k=0.3, eta_par=0.7, eta_perp=math.sqrt(0.7)), id="amplitude-damping-boundary"),
            *(pytest.param(random_cptp_params(np.random.default_rng(seed), 0.8), id=f"random{seed}") for seed in range(8)),
        ],
    )
    def test_channel_is_completely_positive(self, params):
        # the Choi matrix sum_ij |i><j| (x) Phi(|i><j|) reshuffled from the
        # row-major map: C[(i, a), (j, b)] = Phi[(a, b), (i, j)]
        m = phase_covariant_superop(0.7, 1.3, params)
        choi = m.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
        assert_allclose(choi, choi.conj().T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(choi).min() >= -1e-12


class TestPhaseCovariantSuperop:
    def test_entry_layout(self):
        params = NoiseParams(k=0.2, eta_par=0.6, eta_perp=0.3, theta=0.1)
        m = phase_covariant_superop(0.5, 2.0, params)
        phi = 0.5 * 2.0 + 0.1
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0], expected[0, 3] = 0.9, 0.3
        expected[3, 0], expected[3, 3] = 0.1, 0.7
        expected[1, 1] = 0.3 * np.exp(-1j * phi)
        expected[2, 2] = 0.3 * np.exp(+1j * phi)
        assert_allclose(m, expected, rtol=0, atol=1e-15)

    def test_diagonal_variant_moves_coherences(self):
        # the coherence factors sit on the diagonal; nothing swaps |01) and |10)
        params = NoiseParams(k=0.2, eta_par=0.6, eta_perp=0.3)
        m = phase_covariant_superop(0.5, 2.0, params)
        phi = 1.0
        assert_allclose(m[1, 1], 0.3 * np.exp(-1j * phi))
        assert_allclose(m[2, 2], 0.3 * np.exp(+1j * phi))
        assert m[1, 2] == 0.0 and m[2, 1] == 0.0

    @pytest.mark.parametrize("on_state", [False, True])
    def test_reduces_to_rotation_when_noiseless(self, on_state):
        s = phase_covariant_superop(0.7, 1.0, NoiseParams())
        if not on_state:
            assert_allclose(s, np.diag([1.0, np.exp(-0.7j), np.exp(0.7j), 1.0]))
        else:
            # U rho U^dag with U = e^{-i omega t sz/2}, on a state with complex coherences
            rho = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])
            u = np.diag([np.exp(-0.35j), np.exp(0.35j)])
            out = devectorize(s @ vectorize(rho))
            assert_allclose(out, u @ rho @ u.conj().T, rtol=0, atol=1e-15)

    def test_populations_are_phase_independent(self):
        params = NoiseParams(k=0.1, eta_par=0.8, eta_perp=0.4)
        m0 = phase_covariant_superop(0.0, 1.0, params)
        m1 = phase_covariant_superop(2.3, 1.0, params)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            assert m0[i, j] == m1[i, j]

    def test_rotation_family_hand_values(self):
        # Phi = diag(1, e^{-i w t}, e^{i w t}, 1), Phi' = diag(0, -i t e^{-i w t}, i t e^{i w t}, 0)
        omega, t = 0.7, 1.3
        family = rotation_family(t)
        minus, plus = np.exp(-1j * omega * t), np.exp(1j * omega * t)
        assert_allclose(family.evaluate(omega), np.diag([1.0, minus, plus, 1.0]), rtol=0, atol=1e-15)
        assert_allclose(
            family.derivative(omega), np.diag([0.0, -1j * t * minus, 1j * t * plus, 0.0]), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("via_family", [False, True])
    def test_derivative_hand_values(self, via_family):
        # the |0><1| output row gets -i t eta_perp e^{-i phi}, the |1><0| row +i t eta_perp e^{+i phi}
        params = NoiseParams(k=0.2, eta_par=0.6, eta_perp=0.3, theta=0.1)
        if via_family:
            m = phase_covariant_family(2.0, params).derivative(0.5)
        else:
            m = phase_covariant_derivative(0.5, 2.0, params)
        phi = 0.5 * 2.0 + 0.1
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = -2.0j * 0.3 * np.exp(-1j * phi)
        expected[2, 2] = 2.0j * 0.3 * np.exp(1j * phi)
        assert_allclose(m, expected, rtol=0, atol=1e-15)


class TestNamedNoise:
    def test_dephasing(self):
        p = named_noise(DEPHASING, 0.3, 2.0)
        assert_allclose((p.k, p.eta_par, p.eta_perp), (0.0, 1.0, 0.5488116360940264))

    def test_depolarizing(self):
        p = named_noise(DEPOLARIZING, 0.3, 2.0)
        d = math.exp(-0.6)
        assert_allclose((p.k, p.eta_par, p.eta_perp), (0.0, d, d))

    def test_amplitude_damping(self):
        p = named_noise(AMPLITUDE_DAMPING, 0.3, 2.0)
        d = math.exp(-0.6)
        assert_allclose((p.k, p.eta_par, p.eta_perp), (1.0 - d, d, math.sqrt(d)))

    def test_zero_time_is_identity_channel(self):
        p = named_noise(DEPHASING, 0.5, 0.0)
        assert (p.k, p.eta_par, p.eta_perp) == (0.0, 1.0, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            named_noise("thermal", 0.1, 1.0)

    def test_negative_strength(self):
        with pytest.raises(RangeViolation):
            named_noise(DEPHASING, -0.1, 1.0)


class TestShortTimeModel:
    def test_truncated_laws(self):
        m = ShortTimeModel(alpha_perp=0.25, beta_perp=2.0, alpha_par=0.1, alpha_k=0.05)
        assert_allclose(m.eta_perp_at(1.2), 1.0 - 0.25 * 1.2**2)
        assert_allclose(m.eta_par_at(1.2), 1.0 - 0.1 * 1.2)
        assert_allclose(m.k_at(1.2), 0.05 * 1.2)

    def test_exponential_laws(self):
        m = ShortTimeModel(
            alpha_perp=0.25, beta_perp=2.0, alpha_k=0.05, form=EXPONENTIAL_FORM
        )
        assert_allclose(m.eta_perp_at(1.2), math.exp(-0.25 * 1.2**2))
        assert_allclose(m.k_at(1.2), 1.0 - math.exp(-0.05 * 1.2))

    def test_forms_agree_at_short_times(self):
        kw = dict(alpha_perp=0.5, beta_perp=1.0)
        trunc = ShortTimeModel(form=TRUNCATED_FORM, **kw)
        expo = ShortTimeModel(form=EXPONENTIAL_FORM, **kw)
        t = 1e-4
        assert abs(trunc.eta_perp_at(t) - expo.eta_perp_at(t)) < 1e-8

    def test_rejects_bad_form(self):
        with pytest.raises(ValueError):
            ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form="quadratic")

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            ShortTimeModel(alpha_perp=0.5, beta_perp=0.0)

    @pytest.mark.parametrize("form", [TRUNCATED_FORM, EXPONENTIAL_FORM])
    def test_laws_define_their_overflow(self, form):
        # a numpy time point makes t**beta numpy arithmetic; the laws read 0
        # for alpha = 0 and +-inf where alpha t^beta overflows, and the
        # suite's error filter fails any overflow or invalid-value warning
        t = np.float64(2.0)
        unset = ShortTimeModel(alpha_perp=0.5, beta_perp=1e308, beta_par=2.0**63, beta_k=1e308, form=form)
        assert unset.eta_par_at(t) == 1.0 and unset.k_at(t) == 0.0
        huge = ShortTimeModel(alpha_perp=1e308, beta_perp=1.0, alpha_par=1.0, beta_par=1e308, alpha_k=-1e308, form=form)
        assert huge.eta_perp_at(t) == (0.0 if form == EXPONENTIAL_FORM else -math.inf)
        assert huge.eta_par_at(t) == (0.0 if form == EXPONENTIAL_FORM else -math.inf)
        if form == TRUNCATED_FORM:
            assert huge.k_at(t) == -math.inf

    def test_rejects_negative_alpha(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                ShortTimeModel(alpha_perp=bad, beta_perp=1.0)
            with pytest.raises(ValueError):
                ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, alpha_par=bad)


class TestParamsAt:
    def test_produces_validated_params(self):
        m = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0, form=EXPONENTIAL_FORM)
        p = params_at(m, 0.8, theta=0.3)
        assert_allclose(p.eta_perp, math.exp(-0.4))
        assert p.theta == 0.3

    def test_truncated_law_can_leave_range(self):
        m = ShortTimeModel(alpha_perp=1.0, beta_perp=1.0)
        with pytest.raises(RangeViolation):
            params_at(m, 1.5)

    def test_rejects_negative_time(self):
        m = ShortTimeModel(alpha_perp=0.5, beta_perp=1.0)
        with pytest.raises(RangeViolation):
            params_at(m, -0.1)


def correlated_alphas_by_qubit(n_probes: int) -> tuple[np.ndarray, np.ndarray]:
    """The index sums of ``conftest.correlated_alphas``, one qubit at a
    time: qubit i of 2N (most significant first) adds mu_i - nu_i to alpha1
    when i is even (a first atom) and to alpha2 when it is odd."""
    n_qubits = 2 * n_probes
    dim = 2**n_qubits
    mu, nu = np.divmod(np.arange(dim * dim), dim)
    alpha1 = np.zeros(dim * dim, dtype=np.int64)
    alpha2 = np.zeros(dim * dim, dtype=np.int64)
    for i in range(n_qubits):
        shift = 2 ** (n_qubits - 1 - i)
        diff = (mu // shift) % 2 - (nu // shift) % 2
        if i % 2 == 0:
            alpha1 += diff
        else:
            alpha2 += diff
    return alpha1, alpha2


class TestCorrelatedDephasing:
    """The dense diagonal oracle of ``conftest`` against hand values: the
    charge grid of ``correlated_gram_max`` is checked against it."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_sums_match_the_qubit_loop(self, n):
        for got, want in zip(correlated_alphas(n), correlated_alphas_by_qubit(n)):
            assert got.dtype == want.dtype
            assert_array_equal(got, want)

    @pytest.mark.parametrize("gamma,t", [(-1.0, 1.0), (0.1, -1.0), (-0.1, -0.2)])
    def test_rejects_negative_rate_or_time(self, gamma, t):
        # either would amplify coherences: |diag| up to e^{4 |gamma t|} at N = 1
        with pytest.raises(RangeViolation):
            correlated_dephasing_diag(1, 0.1, 0.2, gamma, t)
        with pytest.raises(RangeViolation):
            correlated_dephasing_family(1, 0.2, gamma, t)

    def test_dfs_entries_survive_any_gamma(self):
        # |01><10| has alpha1 = -1, alpha2 = +1, so alpha = 0
        for gamma in (0.0, 1.0, 10.0):
            s = correlated_dephasing_diag(1, 0.4, 0.7, gamma, 1.0)
            assert_allclose(abs(s[1 * 4 + 2]), 1.0)

    def test_phase_and_damping_factors(self):
        s = correlated_dephasing_diag(1, 0.4, 0.7, 0.2, 1.0)
        # |01><10|: pure phase e^{i(-w1 + w2)t}
        assert_allclose(s[1 * 4 + 2], np.exp(1j * 0.3))
        # |11><00|: alpha1 = alpha2 = 1, alpha = 2
        assert_allclose(s[3 * 4 + 0], np.exp(1j * 1.1 - 4.0 * 0.2))

    def test_gamma_zero_is_unitary(self):
        s = correlated_dephasing_diag(2, 0.4, 0.7, 0.0, 1.3)
        assert_allclose(np.abs(s), np.ones(256))

    def test_family_derivative_factor(self):
        evaluate, derivative = correlated_dephasing_family(1, omega2=0.7, gamma=0.5, t=1.2)
        base = evaluate(0.4)
        deriv = derivative(0.4)
        ratio = deriv[np.abs(base) > 1e-15] / base[np.abs(base) > 1e-15]
        # every element is i alpha1 t with alpha1 in {-1, 0, +1} for one probe
        assert set(np.round(ratio.imag / 1.2).astype(int)) <= {-1, 0, 1}
        assert_allclose(ratio.real, 0.0, atol=1e-14)

    def test_family_matches_diag(self):
        evaluate, _ = correlated_dephasing_family(2, omega2=0.7, gamma=0.5, t=1.2)
        for omega_bar in (0.0, 0.4):
            assert_array_equal(evaluate(omega_bar), correlated_dephasing_diag(2, omega_bar + 0.7, 0.7, 0.5, 1.2))

    def test_family_computes_index_sums_once(self, monkeypatch):
        calls = []
        original = conftest.correlated_alphas
        monkeypatch.setattr(conftest, "correlated_alphas", lambda n: calls.append(n) or original(n))
        evaluate, derivative = correlated_dephasing_family(2, omega2=0.7, gamma=0.5, t=1.2)
        for omega_bar in (0.0, 0.4):
            evaluate(omega_bar)
            derivative(omega_bar)
        assert calls == [2]

    def test_budget(self):
        with pytest.raises(DimensionBudgetExceeded):
            correlated_dephasing_diag(4, 0.1, 0.1, 0.1, 1.0)


class TestLossKraus:
    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    def test_completeness(self, eta):
        ops = loss_kraus(5, eta)
        total = sum(op.T @ op for op in ops)
        assert_allclose(total, np.eye(6), atol=1e-14)

    def test_binomial_amplitudes(self):
        ops = loss_kraus(3, 0.37)
        assert_allclose(ops[1][1, 2], 0.6827884006044626)
        assert_allclose(ops[0][2, 2], 0.37)

    def test_no_loss_is_identity(self):
        ops = loss_kraus(4, 1.0)
        assert_allclose(ops[0], np.eye(5))
        for op in ops[1:]:
            assert_allclose(op, 0.0, atol=1e-300)

    @pytest.mark.parametrize("eta", [0.0, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", [1, 49, 100])
    def test_matches_the_recurrence(self, n, eta):
        # the operators read off the Kraus diagonals against the root of the
        # row recurrence, whose own error grows with n (to 1.4e-14 relative
        # at n = 100, eta = 0.1)
        for got, want in zip(loss_kraus(n, eta), recurrence_kraus(n, eta), strict=True):
            assert_array_equal(got == 0.0, want == 0.0)
            assert_allclose(got, want, rtol=0.0, atol=1e-14)


class TestLossWeights:
    """Pins the tests' binomial row recurrence (``conftest.loss_weights``),
    the oracle that the Kraus diagonals, the loss Kraus operators and the
    interferometer's Gram sweep are checked against."""

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    def test_binomial_closed_form(self, eta):
        for n in range(31):
            want = [
                [math.comb(k, l) * eta ** (k - l) * (1.0 - eta) ** l if l <= k else 0.0 for l in range(n + 1)]
                for k in range(n + 1)
            ]
            assert_allclose(loss_weights(n, eta), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 31])
    def test_table_rows_are_the_streamed_rows(self, n, eta):
        # list() keeps every yielded row, so a row reused in place would show
        assert_array_equal(loss_weights(n, eta), np.array(list(loss_weight_rows(n, eta, n))))

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 5, 49, 200])
    def test_amplitude_table_is_the_root_of_the_recurrence(self, n, eta):
        # the Kraus diagonals D[i, l] = sqrt(W[i+l, l]) from the cumulative
        # product against the row recurrence, with its zeros (past n_max, and
        # at the edges eta = 0 and 1) exact; the pytest configuration makes
        # any RuntimeWarning an error
        root = np.sqrt(loss_weights(n, eta))
        want = np.zeros_like(root)
        for i in range(n + 1):
            want[i, : n + 1 - i] = np.diagonal(root, offset=-i)  # root[i + l, l]
        got = channels._kraus_diagonals(n, eta)
        past = np.add.outer(np.arange(n + 1), np.arange(n + 1)) > n
        assert_array_equal(got[past], 0.0)
        assert_array_equal(got == 0.0, want == 0.0)
        assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if eta in (0.0, 1.0):
            assert set(np.unique(got)) <= {0.0, 1.0}
            assert_array_equal(got, want)

    @pytest.mark.parametrize("eta", [Fraction(1, 16), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(15, 16)], ids=str)
    @pytest.mark.parametrize("n", [49, 610, 1023])
    def test_amplitude_table_is_exact_to_round_off(self, n, eta):
        # D[i, l] against the root of the exact C(i+l, l) eta^i (1-eta)^l, in
        # rationals (a dyadic eta makes eta and 1 - eta exact), on entries
        # drawn both uniformly and along the ridge l ~ (1-eta)(i+l) where the
        # weight sits; entries whose exact square is below 1e-300 are skipped
        got = channels._kraus_diagonals(n, float(eta))
        rng = np.random.default_rng(n)
        total = rng.integers(0, n + 1, size=200)
        ridge = np.rint(total * float(1 - eta) + np.sqrt(total) * rng.normal(size=total.size))
        lost = np.concatenate((rng.integers(0, n + 1, size=200), np.clip(ridge, 0, total)))
        kept = np.concatenate((rng.integers(0, n + 1, size=200), total - lost[200:]))
        worst, checked = 0.0, 0
        for i, l in zip(kept.astype(int).tolist(), lost.astype(int).tolist()):
            if i + l > n:
                assert got[i, l] == 0.0
                continue
            exact = math.comb(i + l, l) * eta**i * (1 - eta) ** l
            if exact <= Fraction(1, 10**300):
                continue
            want = math.sqrt(exact)  # the root of the correctly rounded square, to 1 ulp
            worst = max(worst, abs(got[i, l] - want) / want)
            checked += 1
        assert checked >= 200
        assert worst <= 1e-14

    @pytest.mark.parametrize("eta", [0.0, 1e-9, 0.1, 0.3, 0.5, 0.5000001, 0.7, 0.9, 1.0 - 1e-12, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 49, 610, 1023])
    def test_amplitude_table_is_the_masked_table_bit_for_bit(self, n, eta):
        # the zero ratio that ends each row writes the same zeros past n_max
        # as the mask did, on both sides of eta = 1/2 (the transposed table)
        assert_same_bits(channels._kraus_diagonals(n, eta), masked_kraus_diagonals(n, eta))

    @pytest.mark.parametrize("eta", [0.3, 0.7])
    def test_amplitude_table_peaks_at_one_table(self, eta):
        # every step writes into the one table, and the transpose is a view;
        # the masked table peaked at 3.01 tables
        tracemalloc.start()
        try:
            table = channels._kraus_diagonals(1023, eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (1024, 1024)
        assert peak < 1.2 * table.nbytes

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.0])
    def test_gram_diag_matches_table(self, eta):
        for n in range(1, 41):
            w = loss_weights(n, eta)
            for m in range(n):
                want = (n - m) ** 2 * (w[n, : m + 1] @ w[m, : m + 1])
                assert_allclose(interferometer_gram_diag(n, eta, n, m), want, rtol=1e-14, atol=0.0)


class TestEcsSpec:
    def test_for_alpha_truncation_choice(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        assert spec.n_max == 27

    def test_norm_const(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        assert_allclose(spec.norm_const, 0.6636253001422875)

    def test_mean_photons(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        assert_allclose(spec.mean_photons, 1.7615941559557646)

    def test_coherent_amplitudes_match_poisson(self):
        spec = EcsSpec.for_alpha(math.sqrt(2.0))
        amps = spec.coherent_amplitudes()
        assert_allclose(amps[3].real, 0.4247905887793228)
        assert_allclose(
            np.abs(amps) ** 2,
            [math.exp(-2.0) * 2.0**n / math.factorial(n) for n in range(28)],
        )

    def test_tail_mass_small_for_default_truncation(self):
        assert EcsSpec.for_alpha(2.0).tail_mass() < 1e-13

    def test_require_truncation_raises_when_cut_short(self):
        with pytest.raises(TruncationInsufficient):
            EcsSpec(alpha=math.sqrt(2.0), n_max=3).require_truncation()

    @pytest.mark.parametrize("n_max", [23, 24])
    def test_vector_raises_what_require_truncation_raises(self, n_max):
        # at alpha = 2 the tail mass crosses 1e-12 between n_max = 24 and 25
        spec = EcsSpec(alpha=2.0, n_max=n_max)
        with pytest.raises(TruncationInsufficient) as want:
            spec.require_truncation()
        with pytest.raises(TruncationInsufficient) as got:
            ecs_vector(spec)
        assert str(got.value) == str(want.value)
        assert f"at n_max = {n_max} exceeds 1e-12" in str(got.value)

    @pytest.mark.parametrize("n_max", [25, 26])
    def test_vector_built_past_the_tail_edge(self, n_max):
        spec = EcsSpec(alpha=2.0, n_max=n_max)
        assert spec.tail_mass() < channels.ECS_TAIL_TOL
        assert_array_equal(spec.require_truncation(), spec.coherent_amplitudes())
        psi = ecs_vector(spec)
        assert_allclose(np.vdot(psi, psi).real, 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "alpha,dtype",
        [(1.0, np.float64), (2, np.float64), (1.5 + 0.0j, np.float64), (1.0 + 0.5j, np.complex128), (2.0j, np.complex128)],
    )
    def test_vector_is_real_for_a_real_alpha(self, alpha, dtype):
        spec = EcsSpec.for_alpha(alpha)
        assert spec.coherent_amplitudes().dtype == dtype
        assert ecs_vector(spec).dtype == dtype

    @pytest.mark.parametrize("alpha", ECS_GRID_ALPHAS, ids=str)
    def test_amplitudes_and_vector_keep_their_bits(self, alpha):
        # scalars collected into one array, and N_alpha applied to the 2 n_max
        # + 1 amplitudes, against the array-indexed recurrence and the whole
        # vector normalized afterwards
        spec = EcsSpec.for_alpha(alpha)
        assert_same_bits(spec.coherent_amplitudes(), indexed_coherent_amplitudes(spec))
        assert_same_bits(ecs_vector(spec), normalized_ecs_vector(spec))

    def test_vector_is_normalized(self):
        psi = ecs_vector(EcsSpec.for_alpha(math.sqrt(2.0)))
        assert_allclose(np.vdot(psi, psi).real, 1.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0 + 0.5j, 3.0])
    def test_vector_matches_kron_construction(self, alpha):
        spec = EcsSpec.for_alpha(alpha)
        c = spec.coherent_amplitudes()
        vacuum = np.zeros_like(c)
        vacuum[0] = 1.0
        want = spec.norm_const * (np.kron(c, vacuum) + np.kron(vacuum, c))
        assert_array_equal(ecs_vector(spec), want)

    def test_vector_peak_memory_is_one_array(self):
        # the kron construction held three (n_max+1)^2 arrays at once
        spec = EcsSpec(alpha=3.0, n_max=400)
        tracemalloc.start()
        try:
            itemsize = ecs_vector(spec).itemsize
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert itemsize == np.dtype(float).itemsize
        assert peak < 1.1 * (spec.n_max + 1) ** 2 * itemsize

    def test_state_is_rank_one(self):
        rho = ecs_state(EcsSpec.for_alpha(1.0))
        assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        evals = np.linalg.eigvalsh(rho)
        assert_allclose(evals[-1], 1.0, atol=1e-12)
        assert np.all(evals[:-1] < 1e-12)


def test_rotation_family_evaluate_and_derivative_consistent():
    fam = rotation_family(1.7)
    exact = fam.derivative(0.25)
    assert np.max(np.abs(conftest.finite_diff(fam, 0.25) - exact)) < 1e-9
