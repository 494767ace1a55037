"""Command-line front end: bound tables, scaling sweeps, interferometer
scans, ECS evaluation, and the self-verification report.

Output is plot-ready CSV (default) or JSON.  Every run echoes its effective
parameters into the output metadata, floats print with 12 significant
digits, and identical flags + seed produce byte-identical bytes, with one
exception: each ``max_violation`` in the ``verify`` report is measured
floating-point round-off, whose digits can differ with the BLAS build and
its thread count.  It is gated by its tolerance, not reproduced.

Exit codes: 0 success, 1 verification failure, 2 validation error or any
other uncaught exception, 3 numeric-resource error (dimension budget or Fock
truncation).  An exception never exits with 1.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .bound import channel_output, ghz_state, lower_bound_from_state
from .channels import (
    EXPONENTIAL_FORM,
    TRUNCATED_FORM,
    EcsSpec,
    NoiseParams,
    ShortTimeModel,
    named_noise,
    phase_covariant_family,
    rotation_family,
)
from .errors import DimensionBudgetExceeded, TruncationInsufficient
from .liouville import product_family
from .metrology import (
    PrecisionConfig,
    ecs_lower_bound_closed,
    ecs_lower_bound_numeric,
    ecs_practical_forms,
    interferometer_gram_diag,
    interferometer_optimal_m,
    precision_scaling,
    t_opt_paper,
    tau_solve,
)
from .qfi_oracle import exact_qfi
from .verify import DEFAULT_SEED, run_verification


class _UsageError(Exception):
    """Bad flags or config file contents; maps to exit code 2."""


# ---------------------------------------------------------------------------
# option tables: kebab-case key -> (default, converter-for-config-values)


def _as_float(v: object) -> float:
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    return float(v)  # type: ignore[arg-type]


def _as_int(v: object) -> int:
    if isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    i = int(v)  # type: ignore[arg-type]
    if isinstance(v, float) and v != i:
        raise ValueError(f"expected an integer, got {v!r}")
    return i


def _as_str(v: object) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _as_bool(v: object) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"expected true or false, got {v!r}")
    return v


def _as_list(v: object) -> object:
    if isinstance(v, (str, list, tuple)):
        return v
    raise ValueError(f"expected a comma-separated string or an array, got {v!r}")


def _choice(*allowed: str) -> Callable[[object], str]:
    def convert(v: object) -> str:
        s = _as_str(v)
        if s not in allowed:
            raise ValueError(f"expected one of {allowed}, got {s!r}")
        return s

    return convert


_GLOBAL_TABLE: dict[str, tuple[object, Callable[[object], object]]] = {
    "output": (None, _as_str),
    "format": ("csv", _choice("csv", "json")),
    "seed": (DEFAULT_SEED, _as_int),
}

_COMMAND_TABLE: dict[str, dict[str, tuple[object, Callable[[object], object]]]] = {
    "bound": {
        "channel": (
            "unitary",
            _choice("unitary", "dephasing", "depolarizing", "amplitude-damping", "custom"),
        ),
        "gamma": (0.0, _as_float),
        "k": (0.0, _as_float),
        "eta-par": (1.0, _as_float),
        "eta-perp": (1.0, _as_float),
        "theta": (0.0, _as_float),
        "N": (1, _as_int),
        "t": (1.0, _as_float),
        "omega": (0.0, _as_float),
        "state": ("ghz", _as_str),
    },
    "sweep": {
        "alpha-perp": (0.5, _as_float),
        "beta-perp": (1.0, _as_float),
        "alpha-par": (0.0, _as_float),
        "beta-par": (1.0, _as_float),
        "alpha-k": (0.0, _as_float),
        "beta-k": (1.0, _as_float),
        "form": ("exponential", _choice("truncated", "exponential")),
        "N-list": ("8,16,32,64,128,256,512,1024", _as_list),
        "T": (1.0, _as_float),
    },
    "interferometer": {
        "N": (20, _as_int),
        "eta-list": (
            "0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0",
            _as_list,
        ),
        "k": (None, _as_int),
        "m": (None, _as_int),
    },
    "ecs": {
        "alpha-sq-list": ("1,2,4", _as_list),
        "eta-list": ("0.8,0.9,1.0", _as_list),
        "oracle": (False, _as_bool),
        "phi": (0.0, _as_float),
        "n-max": (None, _as_int),
    },
    "verify": {
        "corrupt-channels": (False, _as_bool),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfibound",
        description="Channel-level lower bound on the quantum Fisher information: "
        "tables for bounds, time-optimized scaling sweeps, lossy-interferometer "
        "scans, entangled-coherent-state breakdowns, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_global(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--seed", default=None, type=int, help="seed for randomized suites")
        p.add_argument("--config", default=None, help="JSON config file (flags override it)")

    p = sub.add_parser("bound", help="lower bound and exact QFI for one channel/state")
    p.add_argument(
        "--channel",
        default=None,
        choices=("unitary", "dephasing", "depolarizing", "amplitude-damping", "custom"),
    )
    p.add_argument("--gamma", default=None, type=float, help="named-noise rate")
    p.add_argument("--k", default=None, type=float, help="custom channel: displacement")
    p.add_argument("--eta-par", default=None, type=float, help="custom channel: z contraction")
    p.add_argument("--eta-perp", default=None, type=float, help="custom channel: xy contraction")
    p.add_argument("--theta", default=None, type=float, help="custom channel: coherence phase offset")
    p.add_argument("--N", default=None, type=int, help="probe count")
    p.add_argument("--t", default=None, type=float, help="interrogation time")
    p.add_argument("--omega", default=None, type=float, help="working point of the estimated frequency")
    p.add_argument("--state", default=None, help="'ghz' or a .npy density-matrix file")
    add_global(p)

    p = sub.add_parser("sweep", help="optimal-time cost scaling over probe counts")
    p.add_argument("--alpha-perp", default=None, type=float)
    p.add_argument("--beta-perp", default=None, type=float)
    p.add_argument("--alpha-par", default=None, type=float)
    p.add_argument("--beta-par", default=None, type=float)
    p.add_argument("--alpha-k", default=None, type=float)
    p.add_argument("--beta-k", default=None, type=float)
    p.add_argument("--form", default=None, choices=("truncated", "exponential"))
    p.add_argument("--N-list", default=None, help="comma-separated probe counts")
    p.add_argument("--T", default=None, type=float, help="total time budget")
    add_global(p)

    p = sub.add_parser("interferometer", help="optimal |N>+|m> superposition under loss")
    p.add_argument("--N", default=None, type=int, help="photon number")
    p.add_argument("--eta-list", default=None, help="comma-separated transmissivities")
    p.add_argument("--k", default=None, type=int, help="probe a single Gram entry: row level")
    p.add_argument("--m", default=None, type=int, help="probe a single Gram entry: column level")
    add_global(p)

    p = sub.add_parser("ecs", help="entangled-coherent-state bound breakdown")
    p.add_argument("--alpha-sq-list", default=None, help="comma-separated |alpha|^2 values")
    p.add_argument("--eta-list", default=None, help="comma-separated transmissivities")
    p.add_argument("--oracle", action="store_true", default=None, help="add truncated-Fock oracle columns")
    p.add_argument("--phi", default=None, type=float, help="phase working point for the oracle")
    p.add_argument("--n-max", default=None, type=int, help="Fock truncation override")
    add_global(p)

    p = sub.add_parser(
        "verify",
        help="run the seeded invariant suite (always emits JSON)",
    )
    p.add_argument(
        "--corrupt-channels",
        action="store_true",
        default=None,
        help="negative control: scale channel derivatives by 1.5 (must fail)",
    )
    add_global(p)

    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    table: dict[str, tuple[object, Callable[[object], object]]] = dict(_GLOBAL_TABLE)
    table.update(_COMMAND_TABLE[args.command])
    config_values: dict[str, object] = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise _UsageError(f"cannot read config file {args.config!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file {args.config!r} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise _UsageError("config file must contain a JSON object")
        for key, value in raw.items():
            if key not in table:
                raise _UsageError(
                    f"unknown config key {key!r} for command {args.command!r}"
                )
            config_values[key] = value
    opts: dict[str, object] = {}
    for key, (default, convert) in table.items():
        dest = key.replace("-", "_")
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            opts[dest] = flag_value
        elif key in config_values:
            try:
                opts[dest] = convert(config_values[key])
            except (TypeError, ValueError) as exc:
                raise _UsageError(f"bad config value for {key!r}: {exc}")
        else:
            opts[dest] = default
    return opts


# ---------------------------------------------------------------------------
# deterministic rendering


def _format_scalar(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % float(v)
    return str(v)


def render_csv(meta: dict, columns: list[str], rows: list[list]) -> str:
    lines = [f"# {key}={_format_scalar(value)}" for key, value in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_fragment(v: object) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            return "null"
        return "%.12g" % f
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        items = ",".join(
            f"{json.dumps(str(k))}: {_json_fragment(x)}" for k, x in sorted(v.items())
        )
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_fragment(x) for x in v) + "]"
    raise TypeError(f"cannot render {type(v).__name__} as JSON")


def render_json(obj: dict) -> str:
    """Single-object JSON with sorted keys and 12-significant-digit floats."""
    return _json_fragment(obj) + "\n"


def _emit(content: str, output: object) -> None:
    if output is None:
        sys.stdout.write(content)
    else:
        Path(str(output)).write_text(content)


# ---------------------------------------------------------------------------
# helpers


def _float_list(v: object, label: str) -> list[float]:
    if isinstance(v, str):
        parts = [piece.strip() for piece in v.split(",")]
        items = [p for p in parts if p]
        if not items:
            raise _UsageError(f"{label} must not be empty")
        try:
            return [float(p) for p in items]
        except ValueError as exc:
            raise _UsageError(f"bad value in {label}: {exc}")
    if isinstance(v, (list, tuple)):
        try:
            return [float(x) for x in v]
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad value in {label}: {exc}")
    raise _UsageError(f"{label} must be a comma-separated string or an array")


def _int_list(v: object, label: str) -> list[int]:
    floats = _float_list(v, label)
    out = []
    for x in floats:
        if x != int(x):
            raise _UsageError(f"{label} must contain integers, got {x}")
        out.append(int(x))
    return out


def _model_from_opts(opts: dict) -> ShortTimeModel:
    form = TRUNCATED_FORM if opts["form"] == "truncated" else EXPONENTIAL_FORM
    return ShortTimeModel(
        alpha_perp=opts["alpha_perp"],
        beta_perp=opts["beta_perp"],
        alpha_par=opts["alpha_par"],
        beta_par=opts["beta_par"],
        alpha_k=opts["alpha_k"],
        beta_k=opts["beta_k"],
        form=form,
    )


# ---------------------------------------------------------------------------
# subcommands


def _run_bound(opts: dict) -> tuple[dict, list[str], list[list]]:
    n = int(opts["N"])
    t = float(opts["t"])
    omega = float(opts["omega"])
    channel = str(opts["channel"])
    if n < 1:
        raise _UsageError(f"probe count must be >= 1, got {n}")
    if channel == "unitary":
        family = rotation_family(t)
        eta_perp = 1.0
    else:
        if channel == "custom":
            params = NoiseParams(
                k=float(opts["k"]),
                eta_par=float(opts["eta_par"]),
                eta_perp=float(opts["eta_perp"]),
                theta=float(opts["theta"]),
            )
        else:
            params = named_noise(channel.replace("-", "_"), float(opts["gamma"]), t)
        family = phase_covariant_family(t, params)
        eta_perp = params.eta_perp
    state_arg = str(opts["state"])
    if state_arg == "ghz":
        rho0 = ghz_state(n)
    else:
        try:
            rho0 = np.load(state_arg)
        except OSError as exc:
            raise _UsageError(f"cannot load state file {state_arg!r}: {exc}")
    rho, rho_prime = channel_output(product_family(family, n), omega, rho0)
    result = lower_bound_from_state(rho, rho_prime)
    f_exact = exact_qfi(rho, rho_prime).qfi
    ratio = result.f_lower / f_exact if f_exact > 1e-300 else None
    meta = {
        "command": "bound",
        "channel": channel,
        "gamma": float(opts["gamma"]),
        "k": float(opts["k"]),
        "eta-par": float(opts["eta_par"]),
        "theta": float(opts["theta"]),
        "omega": omega,
        "state": state_arg,
        "seed": int(opts["seed"]),
        "purity": result.purity,
    }
    columns = ["N", "t", "eta_perp", "f_lower", "f_exact", "ratio"]
    rows = [[n, t, eta_perp, result.f_lower, f_exact, ratio]]
    return meta, columns, rows


def _run_sweep(opts: dict) -> tuple[dict, list[str], list[list]]:
    model = _model_from_opts(opts)
    ns = _int_list(opts["N_list"], "N-list")
    config = PrecisionConfig(
        total_time_T=float(opts["T"]), N_range=tuple(ns), model=model
    )
    scaling = precision_scaling(config, driver="numeric")
    rows = []
    for n, t_numeric, min_cost in scaling.per_N:
        rows.append(
            [
                n,
                t_opt_paper(model.alpha_perp, model.beta_perp, n),
                t_numeric,
                tau_solve(model, n),
                min_cost,
            ]
        )
    meta = {
        "command": "sweep",
        "alpha-perp": model.alpha_perp,
        "beta-perp": model.beta_perp,
        "alpha-par": model.alpha_par,
        "beta-par": model.beta_par,
        "alpha-k": model.alpha_k,
        "beta-k": model.beta_k,
        "form": str(opts["form"]),
        "T": float(opts["T"]),
        "seed": int(opts["seed"]),
        "predicted-exponent": scaling.predicted_exponent,
        "c-lower": scaling.c_lower,
    }
    if scaling.slope is None:
        meta["degenerate"] = True
    else:
        meta["slope"] = scaling.slope
    columns = ["N", "t_opt_paper", "t_opt_numeric", "tau", "min_cost"]
    return meta, columns, rows


def _run_interferometer(opts: dict) -> tuple[dict, list[str], list[list]]:
    n = int(opts["N"])
    etas = _float_list(opts["eta_list"], "eta-list")
    probe_k, probe_m = opts["k"], opts["m"]
    if (probe_k is None) != (probe_m is None):
        raise _UsageError("--k and --m must be supplied together")
    meta = {"command": "interferometer", "N": n, "seed": int(opts["seed"])}
    if probe_k is not None:
        meta["k"] = int(probe_k)
        meta["m"] = int(probe_m)
        columns = ["eta", "k", "m", "gram_value"]
        rows = [
            [eta, int(probe_k), int(probe_m), interferometer_gram_diag(n, eta, int(probe_k), int(probe_m))]
            for eta in etas
        ]
        return meta, columns, rows
    columns = ["eta", "m_max", "gram_value"]
    rows = []
    for eta in etas:
        m_best = interferometer_optimal_m(n, eta)
        rows.append([eta, m_best, interferometer_gram_diag(n, eta, n, m_best)])
    return meta, columns, rows


def _run_ecs(opts: dict) -> tuple[dict, list[str], list[list]]:
    alpha_sqs = _float_list(opts["alpha_sq_list"], "alpha-sq-list")
    etas = _float_list(opts["eta_list"], "eta-list")
    oracle = bool(opts["oracle"])
    phi = float(opts["phi"])
    n_max = opts["n_max"]
    meta = {
        "command": "ecs",
        "oracle": oracle,
        "phi": phi,
        "seed": int(opts["seed"]),
    }
    if n_max is not None:
        meta["n-max"] = int(n_max)
    columns = [
        "alpha_sq",
        "eta",
        "f_lower_closed",
        "classical_term",
        "heisenberg_term",
        "f_c_practical",
        "f_h_practical",
    ]
    if oracle:
        columns += ["f_lower_numeric", "rel_err"]
    rows = []
    for alpha_sq in alpha_sqs:
        if alpha_sq < 0.0:
            raise _UsageError(f"|alpha|^2 must be >= 0, got {alpha_sq}")
        alpha = math.sqrt(alpha_sq)
        spec = (
            EcsSpec(alpha=alpha, n_max=int(n_max))
            if n_max is not None
            else EcsSpec.for_alpha(alpha)
        )
        for eta in etas:
            breakdown = ecs_lower_bound_closed(spec, eta)
            f_c_practical, f_h_practical = ecs_practical_forms(spec, eta)
            row = [
                alpha_sq,
                eta,
                breakdown.f_lower,
                breakdown.classical_term,
                breakdown.heisenberg_term,
                f_c_practical,
                f_h_practical,
            ]
            if oracle:
                numeric = ecs_lower_bound_numeric(spec, eta, phi)
                rel_err = abs(breakdown.f_lower - numeric) / max(abs(numeric), 1e-300)
                row += [numeric, rel_err]
            rows.append(row)
    return meta, columns, rows


_RUNNERS = {
    "bound": _run_bound,
    "sweep": _run_sweep,
    "interferometer": _run_interferometer,
    "ecs": _run_ecs,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve_options(args)
        if args.command == "verify":
            report = run_verification(
                int(opts["seed"]), corrupt_channels=bool(opts["corrupt_channels"])
            )
            _emit(render_json(report), opts["output"])
            return 0 if report["all_passed"] else 1
        meta, columns, rows = _RUNNERS[args.command](opts)
        if opts["format"] == "json":
            content = render_json(
                {
                    "schema_version": 1,
                    "meta": meta,
                    "columns": columns,
                    "rows": rows,
                }
            )
        else:
            content = render_csv(meta, columns, rows)
        _emit(content, opts["output"])
        return 0
    except (TruncationInsufficient, DimensionBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
