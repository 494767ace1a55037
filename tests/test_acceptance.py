"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [PASS] line on success so a -s run reads as a
checklist; tolerances and instance counts are part of the contract and
must not be loosened.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import bures_distance_exact, bures_distance_liouville, devectorize, projector_distance, vectorize
from numpy.testing import assert_allclose

from qfibound.bound import (
    analytic_max_phase_covariant,
    associated_qfi,
    ghz_state,
    lower_bound_from_channel,
    lower_bound_from_state,
    max_bound_over_states,
)
from qfibound.channels import (
    EXPONENTIAL_FORM,
    EcsSpec,
    NoiseParams,
    ShortTimeModel,
    params_at,
    phase_covariant_family,
    rotation_family,
)
from qfibound.cli import main
from qfibound.liouville import (
    gram_tensor_power,
    gram_triple,
    product_family,
    tensor_power_derivative,
)
from qfibound.metrology import (
    PrecisionConfig,
    correlated_gram_max,
    ecs_lower_bound_closed,
    ecs_lower_bound_numeric,
    interferometer_gram_diag,
    interferometer_optimal_m,
    precision_scaling,
    tau_solve,
)
from qfibound.qfi_oracle import (
    classical_bound,
    exact_qfi,
    optimal_povm_from_rho_prime,
)
from qfibound.sampling import (
    random_mixed_state,
    random_noisy_family,
    random_pure_state,
    random_short_time_model,
    random_unitary_family,
)

SEED = 20240819


def report(number: int, text: str) -> None:
    print(f"[PASS] criterion {number:02d}: {text}")


def apply_family(family, x, rho0):
    rho = devectorize(family.evaluate(x) @ vectorize(rho0))
    rho_prime = devectorize(family.derivative(x) @ vectorize(rho0))
    return rho, rho_prime


def test_criterion_01_half_qfi_identity():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dim = 2 if i % 2 == 0 else 4
        family = random_unitary_family(rng, dim)
        rho0 = random_pure_state(rng, dim)
        x = float(rng.uniform(-1.0, 1.0))
        rho, rho_prime = apply_family(family, x, rho0)
        f_lower = lower_bound_from_state(rho, rho_prime).f_lower
        f_exact = exact_qfi(rho, rho_prime).qfi
        worst = max(worst, abs(f_lower - 0.5 * f_exact) / max(0.5 * f_exact, 1e-300))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"half-QFI identity over 200 pure-unitary instances "
              f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_unitary_norm_and_eigenspace():
    worst_norm = 0.0
    worst_proj = 0.0
    for n in range(1, 7):
        dim = 2**n
        for t in (0.1, 1.0, 2.0):
            result = max_bound_over_states(rotation_family(t), 0.7, n)
            target = n * n * t * t
            worst_norm = max(worst_norm, abs(result.norm_bound - target) / target)
            # expected top eigenspace: |0..0><1..1| and |1..1><0..0|
            expected = np.zeros((dim * dim, 2))
            expected[[dim - 1, dim * (dim - 1)], [0, 1]] = 1.0
            got = np.column_stack(result.top_eigenspace)
            worst_proj = max(worst_proj, projector_distance(expected, got))
    assert worst_norm <= 1e-10, f"worst norm deviation {worst_norm:.3e}"
    assert worst_proj <= 1e-8, f"worst projector distance {worst_proj:.3e}"
    report(2, f"unitary Gram norm N^2 t^2 and doubly degenerate eigenspace "
              f"(norm {worst_norm:.2e}, projector {worst_proj:.2e})")


def test_criterion_03_ghz_equality_for_random_cptp_sets():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(50):
        model = random_short_time_model(rng)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        for n in range(1, 6):
            t = 0.8 * tau_solve(model, n)
            params = params_at(model, t, theta=theta)
            family = phase_covariant_family(t, params)
            norm = max_bound_over_states(family, 0.3, n).norm_bound
            f_ghz = lower_bound_from_channel(
                product_family(family, n), 0.3, ghz_state(n)
            ).f_lower
            worst = max(worst, abs(f_ghz - 0.5 * norm) / max(0.5 * norm, 1e-300))
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
    report(3, f"GHZ attains half the Gram norm for 50 random CPTP sets, "
              f"N in 1..5 (worst {worst:.2e})")


def test_criterion_04_dephasing_norm_formula_and_crossover():
    gamma = 0.3
    model = ShortTimeModel(alpha_perp=gamma, beta_perp=1.0, form=EXPONENTIAL_FORM)
    worst = 0.0
    for n in range(1, 6):
        tau = tau_solve(model, n) if n > 1 else 1.0 / gamma
        t = 0.7 * tau
        eta = math.exp(-gamma * t)
        family = phase_covariant_family(t, NoiseParams(eta_perp=eta))
        norm = max_bound_over_states(family, 0.2, n).norm_bound
        target = analytic_max_phase_covariant(n, t, eta)
        worst = max(worst, abs(norm - target) / target)
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
    for n in range(2, 6):
        t = 1.3 * tau_solve(model, n)
        eta = math.exp(-gamma * t)
        family = phase_covariant_family(t, NoiseParams(eta_perp=eta))
        norm = max_bound_over_states(family, 0.2, n).norm_bound
        target = analytic_max_phase_covariant(n, t, eta)
        assert norm > target * (1.0 + 1e-12), (
            f"past the crossover the norm should exceed the formula "
            f"(N={n}: {norm} vs {target})"
        )
    report(4, f"dephasing norm equals N^2 t^2 eta^2N below tau and exceeds "
              f"it above (worst {worst:.2e})")


def test_criterion_05_bound_validity_bulk():
    rng = np.random.default_rng(SEED + 5)
    start = time.perf_counter()
    worst = -np.inf
    for i in range(1000):
        dim = 2 if i % 2 == 0 else 4
        family = random_noisy_family(rng, dim, int(rng.integers(1, 4)))
        rho0 = random_mixed_state(rng, dim)
        rho0 = 0.999 * rho0 + 0.001 * np.eye(dim) / dim
        x = float(rng.uniform(-1.0, 1.0))
        rho, rho_prime = apply_family(family, x, rho0)
        f_lower = lower_bound_from_state(rho, rho_prime).f_lower
        f_exact = exact_qfi(rho, rho_prime).qfi
        worst = max(worst, f_lower - f_exact)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"bound exceeded the QFI by {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(5, f"bound below exact QFI on 1000 random channel instances "
              f"(max excess {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_06_tau_closed_form():
    worst = 0.0
    for alpha in (0.1, 0.5, 1.0):
        for beta in (1.0, 2.0):
            for n in (2, 10, 100):
                for alpha_par in (0.0, alpha / 2.0):
                    model = ShortTimeModel(
                        alpha_perp=alpha, beta_perp=beta,
                        alpha_par=alpha_par, beta_par=beta,
                    )
                    got = tau_solve(model, n)
                    expected = (alpha * n) ** (-1.0 / beta)
                    worst = max(worst, abs(got - expected) / expected)
    assert worst <= 1e-8, f"worst relative deviation {worst:.3e}"
    report(6, f"unital crossover matches (alpha N)^(-1/beta) "
              f"(worst {worst:.2e})")


def test_criterion_07_cost_scaling_slopes():
    start = time.perf_counter()
    n_range = tuple(8 * 2**i for i in range(8))
    slopes = {}
    for beta, expected in ((1.0, -1.0), (2.0, -1.5)):
        model = ShortTimeModel(alpha_perp=0.5, beta_perp=beta, form=EXPONENTIAL_FORM)
        config = PrecisionConfig(total_time_T=1.0, N_range=n_range, model=model)
        result = precision_scaling(config)
        slopes[beta] = result.slope
        assert abs(result.slope - expected) <= 0.02 * abs(expected), (
            f"beta={beta}: slope {result.slope} vs {expected}"
        )
        assert_allclose(result.predicted_exponent, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(7, f"cost slopes {slopes[1.0]:.4f} / {slopes[2.0]:.4f} for "
              f"beta 1 / 2 ({elapsed:.2f}s)")


def test_criterion_08_correlated_dephasing_dfs():
    t = 0.7
    worst = 0.0
    for n in (1, 2, 3):
        values = [correlated_gram_max(n, g, t) for g in (0.0, 0.1, 1.0, 10.0)]
        for v in values:
            worst = max(worst, abs(v - n * n * t * t))
        worst = max(worst, max(values) - min(values))
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    report(8, f"correlated-dephasing Gram max is N^2 t^2, gamma-independent "
              f"(worst {worst:.2e})")


def test_criterion_09_gram_recursion_vs_direct():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    for n in (2, 3):
        for _ in range(5):
            model = random_short_time_model(rng)
            t = 0.5 * tau_solve(model, n)
            params = params_at(model, t, theta=float(rng.uniform(0.0, 2.0 * np.pi)))
            family = phase_covariant_family(t, params)
            x = float(rng.uniform(-1.0, 1.0))
            triple = gram_triple(family, x)
            via_recursion = gram_tensor_power(triple, n)
            dphi_n = tensor_power_derivative(
                family.evaluate(x), family.derivative(x), n
            )
            direct = dphi_n.conj().T @ dphi_n
            worst = max(worst, float(np.max(np.abs(via_recursion - direct))))
    assert worst <= 1e-10, f"worst entrywise deviation {worst:.3e}"
    report(9, f"two-summation Gram equals product-rule construction "
              f"(worst {worst:.2e})")


def test_criterion_10_classical_bound_identity():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    checked = 0
    while checked < 200:
        dim = int(rng.integers(2, 5))
        rho = random_mixed_state(rng, dim)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        rho_prime = -1j * (h @ rho - rho @ h)
        povm = optimal_povm_from_rho_prime(rho_prime)
        if povm.degenerate:
            continue
        target = float(np.trace(rho_prime @ rho_prime).real)
        got = classical_bound(povm, rho_prime)
        worst = max(worst, abs(got - target) / max(target, 1e-300))
        checked += 1
    assert worst <= 1e-10, f"worst relative deviation {worst:.3e}"
    report(10, f"optimal POVM attains tr(rho'^2) on 200 non-degenerate "
               f"instances (worst {worst:.2e})")


def test_criterion_11_interferometer_trends():
    for n in (1, 2, 5, 10, 20, 50):
        assert interferometer_optimal_m(n, 1.0) == 0
    etas = [0.5 + 0.05 * i for i in range(11)]
    curves = {}
    for n in (20, 50):
        ms = [interferometer_optimal_m(n, eta) for eta in etas]
        assert all(b <= a for a, b in zip(ms, ms[1:])), f"N={n} not monotone: {ms}"
        curves[n] = ms
    assert all(a >= b for a, b in zip(curves[50], curves[20])), (
        f"N=50 curve not pointwise above N=20: {curves}"
    )
    hand = interferometer_gram_diag(2, 0.5, 2, 1)
    assert abs(hand - 0.375) <= 1e-12
    report(11, "m_max trends (zero lossless, monotone in eta, growing in N) "
               "and the 0.375 hand value")


def test_criterion_12_ecs_closed_vs_numeric():
    start = time.perf_counter()
    worst = 0.0
    for alpha_sq in (1.0, 2.0, 4.0):
        spec = EcsSpec.for_alpha(math.sqrt(alpha_sq))
        for eta in (0.8, 0.9, 1.0):
            closed = ecs_lower_bound_closed(spec, eta).f_lower
            numeric = ecs_lower_bound_numeric(spec, eta)
            worst = max(worst, abs(closed - numeric) / max(abs(numeric), 1e-300))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst relative deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(12, f"ECS closed form matches the truncated-Fock oracle "
               f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_13_bures_consistency():
    rng = np.random.default_rng(SEED + 13)
    h = 1e-4
    worst_liouville = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        family = random_unitary_family(rng, dim)
        rho0 = random_mixed_state(rng, dim)
        x = float(rng.uniform(-1.0, 1.0))

        def state_at(y):
            return devectorize(family.evaluate(y) @ vectorize(rho0))

        rho = state_at(x)
        rho_prime = devectorize(family.derivative(x) @ vectorize(rho0))
        f_tilde = associated_qfi(rho, rho_prime)
        fd = 2.0 * (
            bures_distance_liouville(rho, state_at(x + h))
            + bures_distance_liouville(rho, state_at(x - h))
        ) / h**2
        worst_liouville = max(worst_liouville, abs(fd - f_tilde) / max(f_tilde, 1e-300))
    assert worst_liouville <= 1e-4, f"worst relative deviation {worst_liouville:.3e}"

    worst_exact = 0.0
    for _ in range(50):
        family = random_unitary_family(rng, 2)
        rho0 = 0.9 * random_mixed_state(rng, 2) + 0.1 * np.eye(2) / 2.0
        x = float(rng.uniform(-1.0, 1.0))

        def state_at(y):
            return devectorize(family.evaluate(y) @ vectorize(rho0))

        rho = state_at(x)
        rho_prime = devectorize(family.derivative(x) @ vectorize(rho0))
        f_exact = exact_qfi(rho, rho_prime).qfi
        if f_exact < 1e-6:
            continue
        fd = 2.0 * (
            bures_distance_exact(rho, state_at(x + h))
            + bures_distance_exact(rho, state_at(x - h))
        ) / h**2
        worst_exact = max(worst_exact, abs(fd - f_exact) / f_exact)
    assert worst_exact <= 1e-3, f"worst relative deviation {worst_exact:.3e}"
    report(13, f"Bures second differences reproduce F-tilde ({worst_liouville:.2e}) "
               f"and the exact QFI ({worst_exact:.2e})")


def test_criterion_14_additivity_and_subadditivity():
    rng = np.random.default_rng(SEED + 14)
    worst_add = 0.0
    worst_sub = -np.inf
    for i in range(100):
        nu = 2 if i % 2 == 0 else 3
        states, derivs = [], []
        for _ in range(nu):
            rho = random_mixed_state(rng, 2)
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            states.append(rho)
            derivs.append(-1j * (h @ rho - rho @ h))
        joint = states[0]
        for rho in states[1:]:
            joint = np.kron(joint, rho)
        joint_prime = np.zeros_like(joint)
        for j in range(nu):
            term = derivs[j] if j == 0 else states[0]
            for idx in range(1, nu):
                term = np.kron(term, derivs[j] if idx == j else states[idx])
            joint_prime = joint_prime + term
        f_tilde_joint = associated_qfi(joint, joint_prime)
        f_tilde_sum = sum(associated_qfi(r, d) for r, d in zip(states, derivs))
        worst_add = max(
            worst_add, abs(f_tilde_joint - f_tilde_sum) / max(f_tilde_sum, 1e-300)
        )
        f_lower_joint = lower_bound_from_state(joint, joint_prime).f_lower
        f_lower_sum = sum(
            lower_bound_from_state(r, d).f_lower for r, d in zip(states, derivs)
        )
        worst_sub = max(worst_sub, f_lower_joint - f_lower_sum)
    assert worst_add <= 1e-9, f"additivity violated by {worst_add:.3e}"
    assert worst_sub <= 1e-9, f"subadditivity violated by {worst_sub:.3e}"
    report(14, f"F-tilde additive ({worst_add:.2e}), bound subadditive "
               f"(max excess {worst_sub:.2e}) over 100 product instances")


@pytest.mark.parametrize(
    "name,argv",
    [
        (
            "bound.csv",
            ["bound", "--channel", "dephasing", "--gamma", "0.3", "--N", "3", "--t", "1.0"],
        ),
        (
            "bound.json",
            [
                "bound", "--channel", "dephasing", "--gamma", "0.3",
                "--N", "3", "--t", "1.0", "--format", "json",
            ],
        ),
        (
            "sweep.csv",
            ["sweep", "--alpha-perp", "0.5", "--beta-perp", "1.0", "--N-list", "8,16,32,64"],
        ),
        (
            "interferometer.csv",
            ["interferometer", "--N", "20", "--eta-list", "0.5,0.8,1.0"],
        ),
        ("ecs.csv", ["ecs", "--alpha-sq-list", "1,2", "--eta-list", "0.9,1.0"]),
        ("verify.json", ["verify"]),
    ],
)
def test_criterion_15_golden_files(tmp_path, golden_check, name, argv):
    out = tmp_path / name
    code = main([*argv, "--output", str(out)])
    assert code == 0
    golden_check(name, out.read_bytes())
    report(15, f"golden {name} reproduced")
