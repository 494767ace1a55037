"""Seeded self-verification suite with a machine-readable report.

Runs fast versions of the package's key invariants (the full-size versions
live in the test suite) and reports each one as pass/fail with the measured
violation.  ``corrupt_channels=True`` is a negative-control hook: the channel
families of five checks (``half-qfi-pure-unitary``,
``pure-unitary-orthogonality``, ``bound-below-qfi``, ``unitary-gram-norm`` and
``ghz-saturation-below-tau``) get their derivative scaled by
``CORRUPTION_FACTOR``, which must flip the overall verdict.  Only
``unitary-gram-norm`` can see a uniform 1.5x scale of Phi': it compares the
Gram norm with a fixed N^2 t^2.  The other four are unchanged by it, because
F_down and the QFI both scale by 2.25 and (rho|rho') stays 0.
"""
from __future__ import annotations

from collections.abc import Iterator

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
from .liouville import ChannelFamily, liouville_inner, product_family
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

#: Instance counts the check details name.
_DRAWS = 20
_MIXED_DRAWS = 40
_SETS = 5

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


def corrupt_family(family: ChannelFamily) -> ChannelFamily:
    """Negative-control wrapper: same channel, derivative scaled by CORRUPTION_FACTOR."""
    return ChannelFamily(
        evaluate=family.evaluate,
        derivative=lambda x: family.derivative(x) * CORRUPTION_FACTOR,
    )


def _unitary_draws(rng: np.random.Generator, corrupt, count: int, draw_state):
    """Yield ``count`` (family, rho0, x) on dims 2-4, drawn in one fixed order."""
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        family = corrupt(random_unitary_family(rng, dim))
        yield family, draw_state(rng, dim), float(rng.uniform(-1.0, 1.0))


def _check_half_qfi(rng: np.random.Generator, corrupt) -> Iterator[float]:
    for family, rho0, x in _unitary_draws(rng, corrupt, _DRAWS, random_pure_state):
        f_lower = lower_bound_from_channel(family, x, rho0).f_lower
        rho, rho_prime = channel_output(family, x, rho0)
        f_exact = exact_qfi(rho, rho_prime).qfi
        yield abs(f_lower - 0.5 * f_exact) / max(0.5 * f_exact, 1e-300)


def _check_orthogonality(rng: np.random.Generator, corrupt) -> Iterator[float]:
    for family, rho0, x in _unitary_draws(rng, corrupt, _DRAWS, random_pure_state):
        rho, rho_prime = channel_output(family, x, rho0)
        yield abs(liouville_inner(rho, rho_prime))


def _check_bound_validity(rng: np.random.Generator, corrupt) -> Iterator[float]:
    for family, rho0, x in _unitary_draws(rng, corrupt, _MIXED_DRAWS, random_mixed_state):
        f_lower = lower_bound_from_channel(family, x, rho0).f_lower
        rho, rho_prime = channel_output(family, x, rho0)
        f_exact = exact_qfi(rho, rho_prime).qfi
        yield (f_lower - f_exact) / max(f_exact, 1.0)


def _check_unitary_gram_norm(corrupt, **_) -> Iterator[float]:
    for n in (1, 2, 3, 4):
        for t in (0.5, 1.0):
            family = corrupt(rotation_family(t))
            norm = max_bound_over_states(family, 0.7, n).norm_bound
            target = n * n * t * t
            yield abs(norm - target) / target


def _check_ghz_saturation(rng: np.random.Generator, corrupt) -> Iterator[float]:
    drawn = 0
    while drawn < _SETS:
        model = random_short_time_model(rng)
        n = int(rng.integers(2, 4))
        try:
            tau = tau_solve(model, n)
            t = 0.8 * tau
            params = params_at(model, t)
        except (CptpViolation, RangeViolation):
            continue
        drawn += 1
        family = corrupt(phase_covariant_family(t, params))
        result = max_bound_over_states(family, 0.3, n)
        ghz = ghz_state(n)
        f_ghz = lower_bound_from_channel(product_family(family, n), 0.3, ghz).f_lower
        half_norm = 0.5 * result.norm_bound
        yield abs(f_ghz - half_norm) / max(half_norm, 1e-300)


def _check_additivity(rng: np.random.Generator, **_) -> Iterator[float]:
    for _ in range(_SETS):
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
        yield abs(total - split) / max(split, 1.0)
        f_total = lower_bound_from_state(rho, rho_prime).f_lower
        f_split = (
            lower_bound_from_state(r1, d1).f_lower
            + lower_bound_from_state(r2, d2).f_lower
        )
        yield (f_total - f_split) / max(f_split, 1.0)


def _check_cfi_under_qfi(rng: np.random.Generator, **_) -> Iterator[float]:
    for _ in range(_DRAWS):
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
        yield (cfi - qfi) / max(qfi, 1.0)


def _check_ecs(**_) -> Iterator[float]:
    spec = EcsSpec.for_alpha(np.sqrt(2.0))
    closed = ecs_lower_bound_closed(spec, 0.9).f_lower
    numeric = ecs_lower_bound_numeric(spec, 0.9)
    yield abs(closed - numeric) / abs(numeric)


def _check_correlated_dfs(**_) -> Iterator[float]:
    t = 0.7
    for n in (1, 2):
        target = n * n * t * t
        for gamma in (0.0, 1.0):
            yield abs(correlated_gram_max(n, gamma, t) - target)


def _check_interferometer(**_) -> Iterator[float]:
    yield abs(interferometer_gram_diag(2, 0.5, 2, 1) - 0.375)


def _check_tau_closed_form(**_) -> Iterator[float]:
    for alpha in (0.5, 1.0):
        for n in (2, 10):
            model = ShortTimeModel(alpha_perp=alpha, beta_perp=1.0)
            target = 1.0 / (alpha * n)
            yield abs(tau_solve(model, n) - target) / target


def _check_dephasing_formula(**_) -> Iterator[float]:
    gamma, t = 0.3, 1.0
    for n in (1, 2, 3):
        params = named_noise(DEPHASING, gamma, t)
        family = phase_covariant_family(t, params)
        norm = max_bound_over_states(family, 0.0, n).norm_bound
        target = analytic_max_phase_covariant(n, t, params.eta_perp)
        yield abs(norm - target) / target


#: The report, in order: name -> (check, tolerance, detail).  A check takes the keywords
#: ``rng`` and ``corrupt`` (a family transform), reads only those it needs and yields the
#: violation of each instance; its row reports the worst one, and a NaN counts as worst.
_CHECKS = {
    "half-qfi-pure-unitary": (
        _check_half_qfi, 1e-9,
        f"{_DRAWS} random pure states under unitary families, dims 2-4",
    ),
    "pure-unitary-orthogonality": (
        _check_orthogonality, 1e-10,
        f"(rho|rho') over {_DRAWS} pure-unitary instances",
    ),
    "bound-below-qfi": (
        _check_bound_validity, 1e-9,
        f"{_MIXED_DRAWS} random mixed states under unitary families",
    ),
    "unitary-gram-norm": (
        _check_unitary_gram_norm, 1e-10,
        "||Gram|| vs N^2 t^2 for N in 1..4, t in {0.5, 1}",
    ),
    "ghz-saturation-below-tau": (
        _check_ghz_saturation, 1e-9,
        f"{_SETS} random CPTP phase-covariant sets at t = 0.8 tau, N in 2..3",
    ),
    "qfi-additive-bound-subadditive": (
        _check_additivity, 1e-9,
        f"{_SETS} random two-qubit product instances",
    ),
    "classical-fisher-below-qfi": (
        _check_cfi_under_qfi, 1e-8,
        f"{_DRAWS} random (channel, state, projective POVM) triples",
    ),
    "ecs-closed-vs-numeric": (
        _check_ecs, 1e-6,
        "|alpha|^2 = 2, eta = 0.9 truncated-Fock oracle",
    ),
    "correlated-dephasing-dfs": (
        _check_correlated_dfs, 1e-10,
        "largest Gram diagonal vs N^2 t^2, N in {1, 2}, gamma in {0, 1}",
    ),
    "interferometer-hand-value": (
        _check_interferometer, 1e-12,
        "Gram diagonal at N = 2, eta = 0.5, (k, m) = (2, 1) vs 3/8",
    ),
    "tau-unital-closed-form": (
        _check_tau_closed_form, 1e-8,
        "truncated k = 0 model vs (alpha_perp N)^(-1/beta_perp)",
    ),
    "dephasing-gram-norm-formula": (
        _check_dephasing_formula, 1e-9,
        "numeric ||Gram|| vs N^2 t^2 eta_perp^(2N), N in 1..3",
    ),
}


def run_verification(seed: int = DEFAULT_SEED, *, corrupt_channels: bool = False) -> dict:
    """Run every check with one seeded generator; return the JSON-ready report."""
    if seed < 0:
        raise RangeViolation(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    corrupt = corrupt_family if corrupt_channels else (lambda family: family)
    checks = []
    for name, (check, tolerance, detail) in _CHECKS.items():
        violations = [0.0, *check(rng=rng, corrupt=corrupt)]
        violation = float("nan") if np.isnan(violations).any() else float(max(violations))
        checks.append({
            "name": name,
            "passed": violation <= tolerance,
            "max_violation": violation,
            "tolerance": tolerance,
            "detail": detail,
        })
    return {
        "schema_version": 1,
        "seed": int(seed),
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
