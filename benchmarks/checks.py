"""Output checks for the benchmark, written from closed forms and method
properties rather than from saved program output.

Every check takes what the program produced and raises :class:`CheckFailed`
when it is wrong.  :func:`self_test` feeds each check a right answer and a
wrong one and reports any check that accepts the wrong one.  This module
imports nothing from ``qfibound``, so the expected values cannot inherit a
fault of the code under test.
"""
from __future__ import annotations

import json
import math
from types import SimpleNamespace
from typing import Callable


class CheckFailed(Exception):
    """An operation's output disagrees with its closed form or property."""


def close(label: str, got: float, want: float, rtol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        raise CheckFailed(f"{label}: got {got!r}, want {want!r} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# product-probes: Gram norm and GHZ bound of phase-covariant product channels


def norm_closed(n: int, t: float, eta_perp: float) -> float:
    """||G|| of an N-probe phase-covariant channel below tau: N^2 t^2 eta^(2N)."""
    return n * n * t * t * eta_perp ** (2 * n)


def check_max_bound(result, n: int, t: float, eta_perp: float) -> None:
    """max_bound_over_states: closed-form norm, and a GHZ state that reaches
    norm/2 (every channel in the workload sits below its crossover time)."""
    close(f"norm_bound N={n}", result.norm_bound, norm_closed(n, t, eta_perp), 1e-9)
    if result.initial_state is None:
        raise CheckFailed(f"N={n}: no initial state reaches norm_bound/2")


def check_ghz_bound(f_lower: float, n: int, t: float, eta_perp: float) -> None:
    """lower_bound_from_channel on the GHZ probe: half the closed-form norm."""
    close(f"GHZ bound N={n}", f_lower, norm_closed(n, t, eta_perp) / 2.0, 1e-9)


def check_correlated(value: float, n: int, t: float) -> None:
    """correlated_gram_max: N^2 t^2, independent of the dephasing rate."""
    close(f"correlated_gram_max n={n}", value, float(n * n) * t * t, 1e-12)


# ---------------------------------------------------------------------------
# ecs-oracle and the ecs subcommand: entangled coherent states under loss


def ecs_closed(alpha_sq: float, eta: float) -> dict[str, float]:
    """Closed-form ECS bound with symmetric loss, and its practical tier."""
    norm_sq = 1.0 / (2.0 * (1.0 + math.exp(-alpha_sq)))
    n_bar = 2.0 * norm_sq * alpha_sq
    e1 = math.exp(-(1.0 - eta) * alpha_sq)
    e2 = math.exp(-eta * alpha_sq)
    xi = (1.0 + e1) ** 2 * (1.0 + e2) + (1.0 - e1) ** 2 * (1.0 - e2)
    f_c = norm_sq * xi / 4.0
    f_h = (xi / 2.0 - 1.0) / 2.0
    classical = 2.0 * n_bar * eta * f_c
    heisenberg = (n_bar * eta) ** 2 * f_h
    return {
        "f_lower_closed": classical + heisenberg,
        "classical_term": classical,
        "heisenberg_term": heisenberg,
        "f_c_practical": (1.0 + e1 * e1) / 4.0,
        "f_h_practical": e1 / 2.0,
    }


def check_ecs_numeric(value: float, alpha_sq: float, eta: float) -> None:
    close(
        f"ECS oracle |alpha|^2={alpha_sq} eta={eta}",
        value,
        ecs_closed(alpha_sq, eta)["f_lower_closed"],
        1e-6,
    )


# ---------------------------------------------------------------------------
# cli-mix: parse each subcommand's output and compare with closed forms

#: Relative tolerance for values the CLI prints with 12 significant digits.
PRINTED_RTOL = 1e-9


def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """The CLI's CSV: '# key=value' metadata lines, a header, then rows."""
    meta: dict[str, str] = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    if not lines:
        raise CheckFailed("CSV output has no header")
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    if not cells or any(len(row) != len(header) for row in cells):
        raise CheckFailed("CSV output has no rows or ragged rows")
    return meta, [dict(zip(header, row)) for row in cells]


def check_bound_csv(text: str, n: int, t: float, eta_perp: float) -> None:
    """`bound` on the GHZ probe: f_lower = N^2 t^2 eta^(2N) / 2, ratio 1/2."""
    _, rows = parse_csv(text)
    if len(rows) != 1:
        raise CheckFailed(f"bound printed {len(rows)} rows, want 1")
    row = rows[0]
    if int(row["N"]) != n:
        raise CheckFailed(f"bound printed N={row['N']}, want {n}")
    close("bound f_lower", float(row["f_lower"]), norm_closed(n, t, eta_perp) / 2.0, PRINTED_RTOL)
    close("bound ratio", float(row["ratio"]), 0.5, PRINTED_RTOL)


def check_sweep_csv(text: str, alpha: float, beta: float, n_list: list[int]) -> None:
    """`sweep` with the exponential law eta = exp(-alpha t^beta):
    tau = (ln(N/(N-1))/alpha)^(1/beta), the optimal time
    (2 N alpha beta)^(-1/beta), and a log-log cost slope of -(2 beta - 1)/beta."""
    meta, rows = parse_csv(text)
    if [int(row["N"]) for row in rows] != n_list:
        raise CheckFailed(f"sweep rows cover N={[row['N'] for row in rows]}, want {n_list}")
    for row in rows:
        n = int(row["N"])
        close(f"sweep tau N={n}", float(row["tau"]), (math.log(n / (n - 1)) / alpha) ** (1 / beta), 1e-6)
        close(
            f"sweep t_opt_numeric N={n}",
            float(row["t_opt_numeric"]),
            (2 * n * alpha * beta) ** (-1 / beta),
            1e-6,
        )
    close("sweep slope", float(meta["slope"]), -(2 * beta - 1) / beta, 1e-6)


def gram_entry(eta: float, k: int, m: int) -> float:
    """(k-m)^2 sum_l C(k,l) C(m,l) eta^(k+m-2l) (1-eta)^(2l), summed exactly
    in integers over the decimal digits of eta."""
    num, den = _decimal_fraction(eta)
    rest = den - num
    total = sum(
        math.comb(k, level) * math.comb(m, level)
        * num ** (k + m - 2 * level) * rest ** (2 * level)
        for level in range(min(k, m) + 1)
    )
    return (k - m) ** 2 * total / den ** (k + m)


def _decimal_fraction(eta: float) -> tuple[int, int]:
    digits = repr(eta).split(".")[1] if "." in repr(eta) else ""
    den = 10 ** len(digits)
    return round(eta * den), den


def interferometer_expected(n: int, etas: list[float]) -> list[tuple[int, float]]:
    """Best partner level m < N for k = N and its Gram entry, per eta.

    A floating-point pass over every m keeps the candidates within 1e-6 of
    the maximum; the exact sum then ranks them (ties go to the smaller m).
    """
    out = []
    for eta in etas:
        ratio = ((1.0 - eta) / eta) ** 2
        approx = []
        for m in range(n):
            term = eta ** (n + m)
            total = term
            for level in range(m):
                term *= (n - level) * (m - level) / (level + 1) ** 2 * ratio
                total += term
            approx.append((n - m) ** 2 * total)
        top = max(approx)
        exact = {m: gram_entry(eta, n, m) for m in range(n) if approx[m] >= top * (1 - 1e-6)}
        best = max(exact, key=exact.__getitem__)
        out.append((best, exact[best]))
    return out


def check_interferometer_csv(text: str, n: int, expected: list[tuple[int, float]]) -> None:
    _, rows = parse_csv(text)
    if len(rows) != len(expected):
        raise CheckFailed(f"interferometer printed {len(rows)} rows, want {len(expected)}")
    for row, (m_best, value) in zip(rows, expected):
        if int(row["m_max"]) != m_best:
            raise CheckFailed(
                f"interferometer N={n} eta={row['eta']}: m_max {row['m_max']}, want {m_best}"
            )
        close(f"interferometer N={n} eta={row['eta']} gram_value", float(row["gram_value"]), value, 1e-10)


def check_ecs_csv(text: str, alpha_sqs: list[float], etas: list[float]) -> None:
    _, rows = parse_csv(text)
    grid = [(a, e) for a in alpha_sqs for e in etas]
    if len(rows) != len(grid):
        raise CheckFailed(f"ecs printed {len(rows)} rows, want {len(grid)}")
    for row, (alpha_sq, eta) in zip(rows, grid):
        if (float(row["alpha_sq"]), float(row["eta"])) != (alpha_sq, eta):
            raise CheckFailed(f"ecs row ({row['alpha_sq']}, {row['eta']}), want ({alpha_sq}, {eta})")
        for column, want in ecs_closed(alpha_sq, eta).items():
            close(f"ecs {column} |alpha|^2={alpha_sq} eta={eta}", float(row[column]), want, PRINTED_RTOL)


#: Number of invariants the `verify` report covers.
VERIFY_CHECKS = 12


def check_verify_json(text: str) -> None:
    """`verify`: all_passed, and 12 distinct checks each within tolerance."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"verify output is not JSON: {exc}")
    checks = report.get("checks", [])
    if len(checks) != VERIFY_CHECKS or len({c["name"] for c in checks}) != VERIFY_CHECKS:
        raise CheckFailed(f"verify reported {len(checks)} checks, want {VERIFY_CHECKS} distinct")
    for c in checks:
        if not (c["passed"] and c["max_violation"] <= c["tolerance"]):
            raise CheckFailed(
                f"verify check {c['name']}: violation {c['max_violation']} > {c['tolerance']}"
            )
    if report.get("all_passed") is not True:
        raise CheckFailed("verify report does not set all_passed")


# ---------------------------------------------------------------------------
# self-test: every check must reject a wrong answer


def _format_csv(meta: dict[str, object], columns: list[str], rows: list[list[object]]) -> str:
    """CSV in the CLI's layout, floats to 12 significant digits."""

    def fmt(v: object) -> str:
        return "%.12g" % v if isinstance(v, float) else str(v)

    lines = [f"# {k}={fmt(v)}" for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    lines += [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _cases(corrupt_verify: str | None) -> list[tuple[str, Callable[[], None], Callable[[], None]]]:
    """(name, call with a right answer, call with a wrong answer)."""
    n, t, eta = 5, 1.3, 0.9
    norm = norm_closed(n, t, eta)
    bump = 1.0 + 1e-6
    cases = [
        ("max_bound norm", lambda: check_max_bound(SimpleNamespace(norm_bound=norm, initial_state=1), n, t, eta),
         lambda: check_max_bound(SimpleNamespace(norm_bound=norm * (1 + 1e-8), initial_state=1), n, t, eta)),
        ("max_bound GHZ state", lambda: check_max_bound(SimpleNamespace(norm_bound=norm, initial_state=1), n, t, eta),
         lambda: check_max_bound(SimpleNamespace(norm_bound=norm, initial_state=None), n, t, eta)),
        ("GHZ bound", lambda: check_ghz_bound(norm / 2, n, t, eta),
         lambda: check_ghz_bound(norm / 2 * (1 + 1e-8), n, t, eta)),
        ("correlated_gram_max", lambda: check_correlated(9 * t * t, 3, t),
         lambda: check_correlated(9 * t * t * (1 + 1e-10), 3, t)),
        ("ECS oracle", lambda: check_ecs_numeric(ecs_closed(4.0, 0.85)["f_lower_closed"], 4.0, 0.85),
         lambda: check_ecs_numeric(ecs_closed(4.0, 0.85)["f_lower_closed"] * (1 + 1e-5), 4.0, 0.85)),
    ]

    def bound_csv(scale: float) -> str:
        f = norm_closed(6, 1.0, math.exp(-0.3)) / 2.0
        return _format_csv({}, ["N", "t", "f_lower", "f_exact", "ratio"],
                           [[6, 1.0, f * scale, 2 * f, 0.5 * scale]])

    cases.append(("bound f_lower x (1 + 1e-6)",
                  lambda: check_bound_csv(bound_csv(1.0), 6, 1.0, math.exp(-0.3)),
                  lambda: check_bound_csv(bound_csv(bump), 6, 1.0, math.exp(-0.3))))

    alpha, beta, ns = 0.5, 1.0, [8, 16, 32]

    def sweep_csv(column: str) -> str:
        rows = []
        for k in ns:
            values = {
                "tau": math.log(k / (k - 1)) / alpha,
                "t_opt_numeric": 1 / (2 * k * alpha * beta),
            }
            if column in values:
                values[column] *= 1 + 1e-5
            rows.append([k, values["tau"], values["t_opt_numeric"]])
        slope = -1.0 * (1 + 1e-5 if column == "slope" else 1.0)
        return _format_csv({"slope": slope}, ["N", "tau", "t_opt_numeric"], rows)

    for column in ("tau", "t_opt_numeric", "slope"):
        cases.append((f"sweep {column} x (1 + 1e-5)",
                      lambda: check_sweep_csv(sweep_csv(""), alpha, beta, ns),
                      lambda c=column: check_sweep_csv(sweep_csv(c), alpha, beta, ns)))

    etas = [0.5, 0.8, 1.0]
    expected = interferometer_expected(20, etas)

    def interferometer_csv(m_shift: int, scale: float) -> str:
        rows = [[eta, m + m_shift, value * scale] for eta, (m, value) in zip(etas, expected)]
        return _format_csv({}, ["eta", "m_max", "gram_value"], rows)

    cases.append(("interferometer m_max off by one",
                  lambda: check_interferometer_csv(interferometer_csv(0, 1.0), 20, expected),
                  lambda: check_interferometer_csv(interferometer_csv(1, 1.0), 20, expected)))
    cases.append(("interferometer gram_value x (1 + 1e-9)",
                  lambda: check_interferometer_csv(interferometer_csv(0, 1.0), 20, expected),
                  lambda: check_interferometer_csv(interferometer_csv(0, 1 + 1e-9), 20, expected)))

    columns = list(ecs_closed(1.0, 0.9))

    def ecs_csv(wrong: str) -> str:
        rows = []
        for a in (1.0, 4.0):
            values = ecs_closed(a, 0.9)
            rows.append([a, 0.9] + [values[c] * (bump if c == wrong else 1.0) for c in columns])
        return _format_csv({}, ["alpha_sq", "eta"] + columns, rows)

    for column in columns:
        cases.append((f"ecs {column} x (1 + 1e-6)",
                      lambda: check_ecs_csv(ecs_csv(""), [1.0, 4.0], [0.9]),
                      lambda c=column: check_ecs_csv(ecs_csv(c), [1.0, 4.0], [0.9])))

    if corrupt_verify is not None:
        good = json.dumps({"all_passed": True, "checks": [
            {"name": f"c{i}", "passed": True, "max_violation": 0.0, "tolerance": 1e-9}
            for i in range(VERIFY_CHECKS)]})
        cases.append(("verify --corrupt-channels report",
                      lambda: check_verify_json(good),
                      lambda: check_verify_json(corrupt_verify)))
    return cases


def self_test(corrupt_verify: str | None = None) -> list[str]:
    """Names of the checks that accept a wrong answer or reject a right one.

    ``corrupt_verify`` is the output of ``qfibound verify --corrupt-channels``;
    the verify check is tested only when it is given.
    """
    problems = []
    for name, right, wrong in _cases(corrupt_verify):
        try:
            right()
        except CheckFailed as exc:
            problems.append(f"{name}: rejects the right answer ({exc})")
            continue
        try:
            wrong()
        except CheckFailed:
            continue
        problems.append(f"{name}: accepts a wrong answer")
    return problems
