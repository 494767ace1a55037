"""Command-line front end: bound tables, scaling sweeps, interferometer
scans, ECS evaluation, and the self-verification report.

Output is plot-ready CSV (default) or JSON.  Every run echoes its effective
parameters into the output metadata, floats print with 12 significant
digits, and identical flags + seed produce byte-identical bytes, with one
exception: each ``max_violation`` in the ``verify`` report is measured
floating-point round-off, whose digits can differ with the BLAS build and
its thread count.  It is gated by its tolerance, not reproduced.

Each subcommand's options are declared once, in a table of kebab-case key
-> (default, converter, help).  The same table builds the argparse flags
(``--help`` describes every option with its default), names the keys a JSON
config file may set, and checks a config value with the converter its flag
uses.  List options (``N-list``, ``eta-list``, ``alpha-sq-list``) accept a
comma-separated string or a JSON array and must not be empty.  A number
must be finite: nan and +-inf are refused, on a flag, in a list or in the
config file, before any channel is built.  An explicit
flag overrides the config file, which overrides the default.

Exit codes: 0 success, 1 verification failure, 2 validation error or any
other uncaught exception, 3 numeric-resource error (dimension budget or Fock
truncation).  An exception never exits with 1.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from argparse import ArgumentTypeError
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
# option tables: kebab-case key -> (default, converter, help).  The converter
# is argparse's ``type`` for the flag and checks the config-file value too.


def number(v: object) -> float:
    if isinstance(v, bool):
        raise ArgumentTypeError(f"expected a number, got {v!r}")
    x = float(v)  # type: ignore[arg-type]
    if not math.isfinite(x):
        raise ArgumentTypeError(f"expected a finite number, got {v!r}")
    return x


def integer(v: object) -> int:
    """A whole number, spelled 3, 3.0 or "3.0" on a flag or in a config file."""
    x = number(v)
    if not x.is_integer():
        raise ArgumentTypeError(f"expected an integer, got {v!r}")
    try:
        return int(v)  # type: ignore[arg-type]
    except ValueError:  # text such as "3.0"; int() keeps other integer text exact
        return int(x)


def text(v: object) -> str:
    if not isinstance(v, str):
        raise ArgumentTypeError(f"expected a string, got {v!r}")
    return v


def boolean(v: object) -> bool:
    if not isinstance(v, bool):
        raise ArgumentTypeError(f"expected true or false, got {v!r}")
    return v


def _items(v: object) -> list:
    """A comma-separated string or an array; empty items in a string are
    skipped, and the list must not come out empty."""
    if isinstance(v, str):
        v = [piece for piece in (p.strip() for p in v.split(",")) if piece]
    elif not isinstance(v, (list, tuple)):
        raise ArgumentTypeError(f"expected a comma-separated string or an array, got {v!r}")
    if not v:
        raise ArgumentTypeError("the list must not be empty")
    return list(v)


def number_list(v: object) -> list[float]:
    return [number(x) for x in _items(v)]


def integer_list(v: object) -> list[int]:
    return [integer(x) for x in _items(v)]


def _choice(*allowed: str) -> Callable[[object], str]:
    def choice(v: object) -> str:
        s = text(v)
        if s not in allowed:
            raise ArgumentTypeError(f"expected one of {allowed}, got {s!r}")
        return s

    choice.choices = allowed  # type: ignore[attr-defined]
    return choice


_Table = dict[str, tuple[object, Callable[[object], object], str]]

_GLOBAL_OPTIONS: _Table = {
    "output": (None, text, "write to this path instead of stdout"),
    "format": ("csv", _choice("csv", "json"), "output format"),
    "seed": (DEFAULT_SEED, integer, "seed for randomized suites"),
}

#: subcommand -> (help, options)
_COMMANDS: dict[str, tuple[str, _Table]] = {
    "bound": ("lower bound and exact QFI for one channel/state", {
        "channel": (
            "unitary",
            _choice("unitary", "dephasing", "depolarizing", "amplitude-damping", "custom"),
            "single-probe channel",
        ),
        "gamma": (0.0, number, "named-noise rate"),
        "k": (0.0, number, "custom channel: displacement"),
        "eta-par": (1.0, number, "custom channel: z contraction"),
        "eta-perp": (1.0, number, "custom channel: xy contraction"),
        "theta": (0.0, number, "custom channel: coherence phase offset"),
        "N": (1, integer, "probe count"),
        "t": (1.0, number, "interrogation time"),
        "omega": (0.0, number, "working point of the estimated frequency"),
        "state": ("ghz", text, "'ghz' or a .npy density-matrix file"),
    }),
    "sweep": ("optimal-time cost scaling over probe counts", {
        "alpha-perp": (0.5, number, "xy contraction rate"),
        "beta-perp": (1.0, number, "xy contraction time exponent"),
        "alpha-par": (0.0, number, "z contraction rate"),
        "beta-par": (1.0, number, "z contraction time exponent"),
        "alpha-k": (0.0, number, "z displacement rate"),
        "beta-k": (1.0, number, "z displacement time exponent"),
        "form": ("exponential", _choice("truncated", "exponential"), "short-time law"),
        "N-list": ([8, 16, 32, 64, 128, 256, 512, 1024], integer_list, "probe counts"),
        "T": (1.0, number, "total time budget"),
    }),
    "interferometer": ("optimal |N>+|m> superposition under loss", {
        "N": (20, integer, "photon number"),
        "eta-list": (
            [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0],
            number_list,
            "transmissivities",
        ),
        "k": (None, integer, "probe a single Gram entry: row level"),
        "m": (None, integer, "probe a single Gram entry: column level"),
    }),
    "ecs": ("entangled-coherent-state bound breakdown", {
        "alpha-sq-list": ([1.0, 2.0, 4.0], number_list, "|alpha|^2 values"),
        "eta-list": ([0.8, 0.9, 1.0], number_list, "transmissivities"),
        "oracle": (False, boolean, "add truncated-Fock oracle columns"),
        "phi": (0.0, number, "oracle phase working point (the bound does not depend on it)"),
        "n-max": (None, integer, "Fock truncation override"),
    }),
    "verify": ("run the seeded invariant suite (always emits JSON)", {
        "corrupt-channels": (
            False,
            boolean,
            "negative control: scale channel derivatives by 1.5 (must fail)",
        ),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfibound",
        description="Channel-level lower bound on the quantum Fisher information: "
        "tables for bounds, time-optimized scaling sweeps, lossy-interferometer "
        "scans, entangled-coherent-state breakdowns, and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, table) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for key, (default, convert, help_text) in {**table, **_GLOBAL_OPTIONS}.items():
            if convert is boolean:
                kwargs: dict = {"action": "store_true"}
            else:
                kwargs = {"type": convert, "choices": getattr(convert, "choices", None)}
                if default is not None:
                    help_text += f" (default: {default})"
            p.add_argument(f"--{key}", default=None, help=help_text, **kwargs)
        p.add_argument("--config", default=None, help="JSON config file (flags override it)")
    return parser


def _resolve_options(args: argparse.Namespace) -> dict:
    table = {**_GLOBAL_OPTIONS, **_COMMANDS[args.command][1]}
    config_values: dict[str, object] = {}
    if args.config is not None:
        try:
            config_values = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise _UsageError(f"cannot read config file {args.config!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise _UsageError(f"config file {args.config!r} is not valid JSON: {exc}")
        if not isinstance(config_values, dict):
            raise _UsageError("config file must contain a JSON object")
        for key in config_values:
            if key not in table:
                raise _UsageError(
                    f"unknown config key {key!r} for command {args.command!r}"
                )
    opts: dict[str, object] = {}
    for key, (default, convert, _) in table.items():
        dest = key.replace("-", "_")
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            opts[dest] = flag_value
        elif key in config_values:
            try:
                opts[dest] = convert(config_values[key])
            except (TypeError, ValueError, ArgumentTypeError) as exc:
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
    if v is None or (isinstance(v, (float, np.floating)) and not math.isfinite(v)):
        return "null"
    if isinstance(v, (int, float, np.integer, np.floating)):  # bool is an int
        return _format_scalar(v)
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
    n = opts["N"]
    t = opts["t"]
    omega = opts["omega"]
    channel = opts["channel"]
    if n < 1:
        raise _UsageError(f"probe count must be >= 1, got {n}")
    if channel == "unitary":
        family = rotation_family(t)
        eta_perp = 1.0
    else:
        if channel == "custom":
            params = NoiseParams(
                k=opts["k"],
                eta_par=opts["eta_par"],
                eta_perp=opts["eta_perp"],
                theta=opts["theta"],
            )
        else:
            params = named_noise(channel.replace("-", "_"), opts["gamma"], t)
        family = phase_covariant_family(t, params)
        eta_perp = params.eta_perp
    state_arg = opts["state"]
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
        "gamma": opts["gamma"],
        "k": opts["k"],
        "eta-par": opts["eta_par"],
        "theta": opts["theta"],
        "omega": omega,
        "state": state_arg,
        "seed": opts["seed"],
        "purity": result.purity,
    }
    columns = ["N", "t", "eta_perp", "f_lower", "f_exact", "ratio"]
    rows = [[n, t, eta_perp, result.f_lower, f_exact, ratio]]
    return meta, columns, rows


def _run_sweep(opts: dict) -> tuple[dict, list[str], list[list]]:
    model = _model_from_opts(opts)
    config = PrecisionConfig(
        total_time_T=opts["T"], N_range=tuple(opts["N_list"]), model=model
    )
    scaling = precision_scaling(config)
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
        "form": opts["form"],
        "T": opts["T"],
        "seed": opts["seed"],
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
    n = opts["N"]
    probe_k, probe_m = opts["k"], opts["m"]
    if (probe_k is None) != (probe_m is None):
        raise _UsageError("--k and --m must be supplied together")
    meta = {"command": "interferometer", "N": n, "seed": opts["seed"]}
    if probe_k is not None:
        meta["k"] = probe_k
        meta["m"] = probe_m
        columns = ["eta", "k", "m", "gram_value"]
        rows = [
            [eta, probe_k, probe_m, interferometer_gram_diag(n, eta, probe_k, probe_m)]
            for eta in opts["eta_list"]
        ]
        return meta, columns, rows
    columns = ["eta", "m_max", "gram_value"]
    rows = []
    for eta in opts["eta_list"]:
        m_best = interferometer_optimal_m(n, eta)
        rows.append([eta, m_best, interferometer_gram_diag(n, eta, n, m_best)])
    return meta, columns, rows


def _run_ecs(opts: dict) -> tuple[dict, list[str], list[list]]:
    oracle = opts["oracle"]
    phi = opts["phi"]
    n_max = opts["n_max"]
    meta = {
        "command": "ecs",
        "oracle": oracle,
        "phi": phi,
        "seed": opts["seed"],
    }
    if n_max is not None:
        meta["n-max"] = n_max
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
    for alpha_sq in opts["alpha_sq_list"]:
        if alpha_sq < 0.0:
            raise _UsageError(f"|alpha|^2 must be >= 0, got {alpha_sq}")
        alpha = math.sqrt(alpha_sq)
        spec = (
            EcsSpec(alpha=alpha, n_max=n_max)
            if n_max is not None
            else EcsSpec.for_alpha(alpha)
        )
        for eta in opts["eta_list"]:
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
                opts["seed"], corrupt_channels=opts["corrupt_channels"]
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
