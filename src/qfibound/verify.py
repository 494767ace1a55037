"""Seeded self-verification suite with a machine-readable report.

Runs fast versions of the package's key invariants (the full-size versions
live in the test suite) and reports each one as pass/fail with the measured
violation.  ``corrupt_channels=True`` is a negative-control hook: every
channel family entering a check gets its derivative scaled by 1.5, which
must break the bound-correctness checks and flip the overall verdict.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bound import (
    analytic_max_phase_covariant,
    associated_qfi,
    channel_output,
    ghz_state,
    lower_bound_from_channel,
    lower_bound_from_state,
    max_bound_over_states,
)
from .channels import (
    DEPHASING,
    EcsSpec,
    ShortTimeModel,
    named_noise,
    params_at,
    phase_covariant_family,
    rotation_family,
)
from .errors import CptpViolation, RangeViolation
from .liouville import ChannelFamily, _site_arrays, _superop, liouville_inner, product_family
from .metrology import (
    correlated_gram_max,
    ecs_lower_bound_closed,
    ecs_lower_bound_numeric,
    interferometer_gram_diag,
    tau_solve,
)
from .qfi_oracle import Povm, classical_fisher, exact_qfi
from .sampling import (
    random_mixed_state,
    random_pure_state,
    random_short_time_model,
    random_unitary,
    random_unitary_family,
)

#: Seed used when the caller does not supply one.
DEFAULT_SEED = 1234

#: Derivative inflation factor for the negative-control hook.
CORRUPTION_FACTOR = 1.5


@dataclass(frozen=True)
class CheckResult:
    """One verified invariant: ``passed`` iff max_violation <= tolerance."""

    name: str
    passed: bool
    max_violation: float
    tolerance: float
    detail: str


#: JSON schema of the report emitted by :func:`run_verification`.
VERIFY_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema_version", "seed", "all_passed", "checks"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "seed": {"type": "integer"},
        "all_passed": {"type": "boolean"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "passed", "max_violation", "tolerance", "detail"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "max_violation": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "detail": {"type": "string"},
                },
            },
        },
    },
}


def corrupt_family(family: ChannelFamily, factor: float = CORRUPTION_FACTOR) -> ChannelFamily:
    """Negative-control wrapper: same channel, derivative scaled by ``factor``."""
    return ChannelFamily(
        evaluate=family.evaluate,
        derivative=lambda x: _superop(_site_arrays(family.derivative_at(x))[0] * factor),
        fd_step=family.fd_step,
    )


def _result(name: str, violation: float, tolerance: float, detail: str) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(violation <= tolerance),
        max_violation=float(violation),
        tolerance=float(tolerance),
        detail=detail,
    )


def _check_half_qfi(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    worst = 0.0
    n_instances = 20
    for _ in range(n_instances):
        dim = int(rng.integers(2, 5))
        family = random_unitary_family(rng, dim)
        if corrupt:
            family = corrupt_family(family)
        rho0 = random_pure_state(rng, dim)
        x = float(rng.uniform(-1.0, 1.0))
        f_lower = lower_bound_from_channel(family, x, rho0).f_lower
        rho, rho_prime = channel_output(family, x, rho0)
        f_exact = exact_qfi(rho, rho_prime).qfi
        worst = max(worst, abs(f_lower - 0.5 * f_exact) / max(0.5 * f_exact, 1e-300))
    return _result(
        "half-qfi-pure-unitary",
        worst,
        1e-9,
        f"{n_instances} random pure states under unitary families, dims 2-4",
    )


def _check_orthogonality(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    worst = 0.0
    n_instances = 20
    for _ in range(n_instances):
        dim = int(rng.integers(2, 5))
        family = random_unitary_family(rng, dim)
        if corrupt:
            family = corrupt_family(family)
        rho0 = random_pure_state(rng, dim)
        rho, rho_prime = channel_output(family, float(rng.uniform(-1.0, 1.0)), rho0)
        worst = max(worst, abs(liouville_inner(rho, rho_prime)))
    return _result(
        "pure-unitary-orthogonality",
        worst,
        1e-10,
        f"(rho|rho') over {n_instances} pure-unitary instances",
    )


def _check_bound_validity(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    worst = 0.0
    n_instances = 40
    for _ in range(n_instances):
        dim = int(rng.integers(2, 5))
        family = random_unitary_family(rng, dim)
        if corrupt:
            family = corrupt_family(family)
        rho0 = random_mixed_state(rng, dim)
        x = float(rng.uniform(-1.0, 1.0))
        f_lower = lower_bound_from_channel(family, x, rho0).f_lower
        rho, rho_prime = channel_output(family, x, rho0)
        f_exact = exact_qfi(rho, rho_prime).qfi
        worst = max(worst, (f_lower - f_exact) / max(f_exact, 1.0))
    return _result(
        "bound-below-qfi",
        max(worst, 0.0),
        1e-9,
        f"{n_instances} random mixed states under unitary families",
    )


def _check_unitary_gram_norm(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del rng
    worst = 0.0
    for n in (1, 2, 3, 4):
        for t in (0.5, 1.0):
            family = rotation_family(t)
            if corrupt:
                family = corrupt_family(family)
            norm = max_bound_over_states(family, 0.7, n).norm_bound
            target = n * n * t * t
            worst = max(worst, abs(norm - target) / target)
    return _result(
        "unitary-gram-norm",
        worst,
        1e-10,
        "||Gram|| vs N^2 t^2 for N in 1..4, t in {0.5, 1}",
    )


def _check_ghz_saturation(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    worst = 0.0
    n_sets = 5
    drawn = 0
    while drawn < n_sets:
        model = random_short_time_model(rng)
        n = int(rng.integers(2, 4))
        try:
            tau = tau_solve(model, n)
            t = 0.8 * tau
            params = params_at(model, t)
        except (CptpViolation, RangeViolation):
            continue
        drawn += 1
        family = phase_covariant_family(t, params)
        if corrupt:
            family = corrupt_family(family)
        result = max_bound_over_states(family, 0.3, n)
        ghz = ghz_state(n)
        f_ghz = lower_bound_from_channel(product_family(family, n), 0.3, ghz).f_lower
        half_norm = 0.5 * result.norm_bound
        worst = max(worst, abs(f_ghz - half_norm) / max(half_norm, 1e-300))
    return _result(
        "ghz-saturation-below-tau",
        worst,
        1e-9,
        f"{n_sets} random CPTP phase-covariant sets at t = 0.8 tau, N in 2..3",
    )


def _check_additivity(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del corrupt  # state-level check; channel derivatives play no role
    worst = 0.0
    n_pairs = 5
    for _ in range(n_pairs):
        parts = []
        for _ in range(2):
            dim = 2
            family = random_unitary_family(rng, dim)
            rho0 = random_mixed_state(rng, dim)
            parts.append(channel_output(family, 0.4, rho0))
        (r1, d1), (r2, d2) = parts
        rho = np.kron(r1, r2)
        rho_prime = np.kron(d1, r2) + np.kron(r1, d2)
        total = associated_qfi(rho, rho_prime)
        split = associated_qfi(r1, d1) + associated_qfi(r2, d2)
        worst = max(worst, abs(total - split) / max(split, 1.0))
        f_total = lower_bound_from_state(rho, rho_prime).f_lower
        f_split = (
            lower_bound_from_state(r1, d1).f_lower
            + lower_bound_from_state(r2, d2).f_lower
        )
        worst = max(worst, (f_total - f_split) / max(f_split, 1.0))
    return _result(
        "qfi-additive-bound-subadditive",
        max(worst, 0.0),
        1e-9,
        f"{n_pairs} random two-qubit product instances",
    )


def _check_cfi_under_qfi(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del corrupt
    worst = 0.0
    n_triples = 20
    for _ in range(n_triples):
        dim = int(rng.integers(2, 5))
        family = random_unitary_family(rng, dim)
        rho0 = random_mixed_state(rng, dim)
        rho, rho_prime = channel_output(family, 0.6, rho0)
        basis = random_unitary(rng, dim)
        povm = Povm(
            elements=tuple(
                np.outer(basis[:, i], basis[:, i].conj()) for i in range(dim)
            )
        )
        cfi = classical_fisher(povm, rho, rho_prime)
        qfi = exact_qfi(rho, rho_prime).qfi
        worst = max(worst, (cfi - qfi) / max(qfi, 1.0))
    return _result(
        "classical-fisher-below-qfi",
        max(worst, 0.0),
        1e-8,
        f"{n_triples} random (channel, state, projective POVM) triples",
    )


def _check_ecs(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del rng, corrupt
    spec = EcsSpec.for_alpha(np.sqrt(2.0))
    closed = ecs_lower_bound_closed(spec, 0.9).f_lower
    numeric = ecs_lower_bound_numeric(spec, 0.9)
    violation = abs(closed - numeric) / abs(numeric)
    return _result(
        "ecs-closed-vs-numeric",
        violation,
        1e-6,
        "|alpha|^2 = 2, eta = 0.9 truncated-Fock oracle",
    )


def _check_correlated_dfs(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del rng, corrupt
    worst = 0.0
    t = 0.7
    for n in (1, 2):
        target = n * n * t * t
        for gamma in (0.0, 1.0):
            worst = max(worst, abs(correlated_gram_max(n, gamma, t) - target))
    return _result(
        "correlated-dephasing-dfs",
        worst,
        1e-10,
        "largest Gram diagonal vs N^2 t^2, N in {1, 2}, gamma in {0, 1}",
    )


def _check_interferometer(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del rng, corrupt
    violation = abs(interferometer_gram_diag(2, 0.5, 2, 1) - 0.375)
    return _result(
        "interferometer-hand-value",
        violation,
        1e-12,
        "Gram diagonal at N = 2, eta = 0.5, (k, m) = (2, 1) vs 3/8",
    )


def _check_tau_closed_form(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del rng, corrupt
    worst = 0.0
    for alpha in (0.5, 1.0):
        for n in (2, 10):
            model = ShortTimeModel(alpha_perp=alpha, beta_perp=1.0)
            target = 1.0 / (alpha * n)
            worst = max(worst, abs(tau_solve(model, n) - target) / target)
    return _result(
        "tau-unital-closed-form",
        worst,
        1e-8,
        "truncated k = 0 model vs (alpha_perp N)^(-1/beta_perp)",
    )


def _check_dephasing_formula(rng: np.random.Generator, corrupt: bool) -> CheckResult:
    del rng, corrupt
    worst = 0.0
    gamma, t = 0.3, 1.0
    for n in (1, 2, 3):
        params = named_noise(DEPHASING, gamma, t)
        family = phase_covariant_family(t, params)
        norm = max_bound_over_states(family, 0.0, n).norm_bound
        target = analytic_max_phase_covariant(n, t, params.eta_perp)
        worst = max(worst, abs(norm - target) / target)
    return _result(
        "dephasing-gram-norm-formula",
        worst,
        1e-9,
        "numeric ||Gram|| vs N^2 t^2 eta_perp^(2N), N in 1..3",
    )


_CHECKS = (
    _check_half_qfi,
    _check_orthogonality,
    _check_bound_validity,
    _check_unitary_gram_norm,
    _check_ghz_saturation,
    _check_additivity,
    _check_cfi_under_qfi,
    _check_ecs,
    _check_correlated_dfs,
    _check_interferometer,
    _check_tau_closed_form,
    _check_dephasing_formula,
)


def run_verification(seed: int = DEFAULT_SEED, *, corrupt_channels: bool = False) -> dict:
    """Run every check with one seeded generator; return the JSON-ready report."""
    rng = np.random.default_rng(seed)
    checks = [check(rng, corrupt_channels) for check in _CHECKS]
    return {
        "schema_version": 1,
        "seed": int(seed),
        "all_passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }
