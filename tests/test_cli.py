from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qfibound import cli, metrology
from qfibound.cli import main, render_csv, render_json
from qfibound.verify import VERIFY_REPORT_SCHEMA

GOLDEN = Path(__file__).parent / "golden"


def run_to_file(tmp_path, argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes()


class TestGoldenOutputs:
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
            (
                "ecs.csv",
                ["ecs", "--alpha-sq-list", "1,2", "--eta-list", "0.9,1.0"],
            ),
            ("verify.json", ["verify"]),
        ],
    )
    def test_byte_identical(self, tmp_path, golden_check, name, argv):
        code, got = run_to_file(tmp_path, argv)
        assert code == 0
        golden_check(name, got)

    def test_verify_mask_keeps_deterministic_bytes(self, tmp_path, golden_check):
        code, got = run_to_file(tmp_path, ["verify", "--corrupt-channels"])
        assert code == 1
        with pytest.raises(AssertionError, match="outside the measured max_violation"):
            golden_check("verify.json", got)

    def test_repeated_runs_are_identical(self, tmp_path):
        argv = ["sweep", "--N-list", "8,16", "--T", "2.0"]
        _, first = run_to_file(tmp_path, argv)
        _, second = run_to_file(tmp_path, argv)
        assert first == second


class TestBoundCommand:
    def test_unitary_default(self, capsys):
        assert main(["bound"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "N,t,eta_perp,f_lower,f_exact,ratio"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert float(fields[3]) == pytest.approx(0.5)
        assert float(fields[5]) == pytest.approx(0.5)

    def test_custom_params(self, capsys):
        code = main(
            ["bound", "--channel", "custom", "--k", "0.1", "--eta-par", "0.9",
             "--eta-perp", "0.6", "--N", "2", "--t", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[2]) == pytest.approx(0.6)

    def test_state_file(self, tmp_path, capsys):
        state = tmp_path / "plus.npy"
        np.save(state, np.full((2, 2), 0.5))
        code = main(["bound", "--state", str(state), "--t", "1.0"])
        assert code == 0
        row = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1]
        assert float(row.split(",")[3]) == pytest.approx(0.5)

    def test_missing_state_file_is_usage_error(self, tmp_path, capsys):
        assert main(["bound", "--state", str(tmp_path / "nope.npy")]) == 2

    def test_budget_overflow_maps_to_exit_3(self, capsys):
        assert main(["bound", "--channel", "dephasing", "--N", "7"]) == 3

    def test_budget_at_large_n_maps_to_exit_3(self, capsys):
        assert main(["bound", "--N", "7200"]) == 3
        assert "7200 qubits" in capsys.readouterr().err

    def test_metadata_lines_sorted(self, capsys):
        main(["bound", "--channel", "dephasing", "--gamma", "0.1"])
        out = capsys.readouterr().out
        keys = [l[2:].split("=")[0] for l in out.splitlines() if l.startswith("#")]
        assert keys == sorted(keys)


class TestSweepCommand:
    def test_summary_metadata(self, capsys):
        assert main(["sweep", "--N-list", "8,16,32"]) == 0
        out = capsys.readouterr().out
        meta = dict(
            l[2:].split("=", 1) for l in out.splitlines() if l.startswith("#")
        )
        assert float(meta["slope"]) == pytest.approx(-1.0, rel=1e-9)
        assert float(meta["predicted-exponent"]) == -1.0
        assert float(meta["c-lower"]) == pytest.approx(4.0)

    def test_single_point_flagged_degenerate(self, capsys):
        assert main(["sweep", "--N-list", "16"]) == 0
        out = capsys.readouterr().out
        assert "# degenerate=true" in out.splitlines()
        assert not any(l.startswith("# slope=") for l in out.splitlines())

    def test_truncated_form(self, capsys):
        code = main(
            ["sweep", "--form", "truncated", "--alpha-perp", "0.5",
             "--beta-perp", "1.0", "--N-list", "8,16"]
        )
        assert code == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        n, t_paper, t_numeric, tau, _ = rows[1].split(",")
        assert float(tau) == pytest.approx(1.0 / (0.5 * 8.0))
        assert float(t_paper) == pytest.approx(1.0 / (2.0 * 0.5 * 8.0 * 2.0))
        assert float(t_numeric) == pytest.approx(2.0 / 17.0, rel=1e-6)

    def test_large_probe_count_answers(self, capsys):
        assert main(["sweep", "--N-list", "8,30000"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert float(rows[2].split(",")[2]) == pytest.approx(1.0 / 30000.0, rel=1e-9)


class TestInterferometerCommand:
    def test_probe_mode(self, capsys):
        assert main(["interferometer", "--N", "2", "--eta-list", "0.5", "--k", "2", "--m", "1"]) == 0
        row = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1]
        assert row == "0.5,2,1,0.375"

    def test_probe_needs_both_indices(self, capsys):
        assert main(["interferometer", "--N", "2", "--k", "2"]) == 2

    def test_large_photon_number_rows_are_finite(self, capsys):
        # C(1100, l) does not fit a float; the loss weights must not need it
        assert main(["interferometer", "--N", "1100", "--eta-list", "0.5,0.9,1.0"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row.split(","))

    def test_weight_budget_maps_to_exit_3(self, capsys):
        assert main(["interferometer", "--N", "4096", "--eta-list", "0.9"]) == 3
        assert "budget" in capsys.readouterr().err
        assert main(["interferometer", "--N", "4096"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_long_eta_list_refused_at_once(self, capsys):
        # 456 etas at N = 4095 pass the per-eta charge but not the batch's
        start = time.perf_counter()
        code = main(["interferometer", "--N", "4095", "--eta-list", ",".join(["0.9"] * 456)])
        assert (code, time.perf_counter() - start < 1.0) == (3, True)
        assert "456 transmissivities" in capsys.readouterr().err

    @pytest.mark.parametrize("etas", [["--eta-list", "0.9"], ["--eta-list", "0.5,0.8,1.0"], []])
    def test_scan_sweeps_once(self, monkeypatch, capsys, etas):
        # one sweep of [0, N]^2 answers every eta; no probe recomputes a value
        calls = []
        sweep = metrology._gram_sweep

        def spy(*args):
            calls.append(args[:2])
            return sweep(*args)

        monkeypatch.setattr(metrology, "_gram_sweep", spy)
        monkeypatch.setattr(cli, "interferometer_gram_diag", lambda *a: pytest.fail("probed"))
        assert main(["interferometer", "--N", "20", *etas]) == 0
        assert calls == [(20, 20)]

    def test_probe_budget_refused_at_once(self, capsys):
        # (500000 + 1)(1000000 + 1) Gram entries lie past the sweep's budget
        start = time.perf_counter()
        code = main(["interferometer", "--N", "1000000", "--k", "1000000", "--m", "500000"])
        assert (code, time.perf_counter() - start < 1.0) == (3, True)
        assert "budget" in capsys.readouterr().err

    def test_scan_mode_columns(self, capsys):
        assert main(["interferometer", "--N", "20", "--eta-list", "1.0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0] == "eta,m_max,gram_value"
        assert lines[1].split(",")[1] == "0"


class TestEcsCommand:
    def test_oracle_column_close_to_closed(self, capsys):
        assert main(["ecs", "--alpha-sq-list", "1", "--eta-list", "0.9", "--oracle"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[-2:] == ["f_lower_numeric", "rel_err"]
        assert float(row[-1]) < 1e-10

    def test_truncation_failure_exit_code(self, capsys):
        code = main(["ecs", "--alpha-sq-list", "4", "--n-max", "4", "--oracle"])
        assert code == 3

    def test_oracle_budget_exit_code(self, capsys):
        # the amplitudes at n_max = 4096 would hold 4097^2 = 16 785 409
        # entries, over 4096^2
        assert main(["ecs", "--n-max", "4096", "--oracle"]) == 3
        assert "budget" in capsys.readouterr().err


class TestVerifyCommand:
    def test_report_passes_and_validates(self, capsys):
        assert main(["verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, VERIFY_REPORT_SCHEMA)
        assert report["all_passed"] is True

    def test_corruption_fails(self, capsys):
        assert main(["verify", "--corrupt-channels"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is False


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": "dephasing", "gamma": 0.3, "N": 3}))
        assert main(["bound", "--config", str(cfg)]) == 0
        golden_row = (GOLDEN / "bound.csv").read_text().splitlines()[-1]
        row = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1]
        assert row == golden_row

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 2.0}))
        assert main(["bound", "--config", str(cfg), "--t", "1.0"]) == 0
        row = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1]
        assert row.split(",")[1] == "1"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channnel": "dephasing"}))
        assert main(["bound", "--config", str(cfg)]) == 2

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["bound", "--config", str(cfg)]) == 2

    def test_wrong_type_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "three"}))
        assert main(["bound", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "command,key",
        [
            ("interferometer", "eta-list"),
            ("ecs", "alpha-sq-list"),
            ("ecs", "eta-list"),
            ("sweep", "N-list"),
        ],
    )
    def test_empty_list_rejected_like_its_flag(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: []}))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().out == ""
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{key}", ","])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["8.0,16", [8.0, 16], ["8", "16"], " 8 , ,16 "])
    def test_list_spellings_keep_their_meaning(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N-list": value}))
        assert resolve(["sweep", "--config", str(cfg)])["N_list"] == [8, 16]
        if isinstance(value, str):
            assert resolve(["sweep", "--N-list", value])["N_list"] == [8, 16]

    @pytest.mark.parametrize("value", [3, 3.0, "3", "3.0"], ids=["int", "float", "text", "float-text"])
    def test_whole_number_spellings_agree(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": value}))
        assert resolve(["bound", "--config", str(cfg)])["N"] == 3
        assert resolve(["bound", "--N", str(value)])["N"] == 3
        cfg.write_text(json.dumps({"N-list": [value, 8]}))
        assert resolve(["sweep", "--config", str(cfg)])["N_list"] == [3, 8]
        assert resolve(["sweep", "--N-list", f"{value},8"])["N_list"] == [3, 8]

    @pytest.mark.parametrize("value", [3.5, "3.5"], ids=["float", "text"])
    def test_fractional_integer_refused_on_both_paths(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        for command, key, config_value, flag_text in [
            ("bound", "N", value, str(value)),
            ("sweep", "N-list", [8, value], f"8,{value}"),
        ]:
            cfg.write_text(json.dumps({key: config_value}))
            assert main([command, "--config", str(cfg)]) == 2
            assert "bad config value" in capsys.readouterr().err
            with pytest.raises(SystemExit) as exc:
                main([command, f"--{key}", flag_text])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("sweep", "N-list", [True, 8]),
            ("interferometer", "eta-list", [True, 0.9]),
            ("ecs", "alpha-sq-list", [2.0, False]),
            ("ecs", "eta-list", [True, 0.9]),
        ],
    )
    def test_boolean_in_a_list_rejected_like_a_scalar(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "bad config value" in err


#: The long flags of each subcommand, as the parser declared them before the
#: option tables drove it.  No flag may be added or lost.
PINNED_FLAGS = {
    "bound": [
        "--channel", "--gamma", "--k", "--eta-par", "--eta-perp", "--theta", "--N",
        "--t", "--omega", "--state", "--output", "--format", "--seed", "--config",
    ],
    "sweep": [
        "--alpha-perp", "--beta-perp", "--alpha-par", "--beta-par", "--alpha-k",
        "--beta-k", "--form", "--N-list", "--T", "--output", "--format", "--seed", "--config",
    ],
    "interferometer": [
        "--N", "--eta-list", "--k", "--m", "--output", "--format", "--seed", "--config",
    ],
    "ecs": [
        "--alpha-sq-list", "--eta-list", "--oracle", "--phi", "--n-max",
        "--output", "--format", "--seed", "--config",
    ],
    "verify": ["--corrupt-channels", "--output", "--format", "--seed", "--config"],
}

#: converter -> (flag text, the same value in a config file, parsed value,
#: a wrongly typed flag text or None, a wrongly typed config value)
SAMPLES = {
    cli.number: ("0.25", 0.25, 0.25, "abc", True),
    cli.integer: ("3", 3, 3, "3.5", 3.5),
    cli.text: ("x.npy", "x.npy", "x.npy", None, 5),
    cli.number_list: ("0.5,1", [0.5, 1], [0.5, 1.0], "a,b", ["a"]),
    cli.integer_list: ("4,8", [4.0, 8], [4, 8], "4.5", [4.5]),
}


def resolve(argv):
    return cli._resolve_options(cli._build_parser().parse_args(argv))


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def table_entries():
    for command, (_, table) in cli._COMMANDS.items():
        for key, entry in {**table, **cli._GLOBAL_OPTIONS}.items():
            yield pytest.param(command, key, entry, id=f"{command}-{key}")


def sample(convert, default):
    """Valid and wrongly typed inputs for one converter."""
    if convert is cli.boolean:
        return None, True, True, "=yes", "yes"
    choices = getattr(convert, "choices", None)
    if choices is not None:
        choice = next(c for c in choices if c != default)
        return choice, choice, choice, "bogus", "bogus"
    return SAMPLES[convert]


class TestOptionTables:
    @pytest.mark.parametrize("command", sorted(PINNED_FLAGS))
    def test_flag_set_is_pinned(self, command):
        sub = subparsers()[command]
        flags = [s for a in sub._actions for s in a.option_strings if s != "--help"]
        flags = [s for s in flags if s.startswith("--")]
        assert flags == PINNED_FLAGS[command]
        assert all(a.help for a in sub._actions)
        assert all(a.default is None for a in sub._actions if a.dest != "help")

    @pytest.mark.parametrize("command,key,entry", table_entries())
    def test_flag_and_config_agree(self, tmp_path, capsys, command, key, entry):
        default, convert, _ = entry
        dest = key.replace("-", "_")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert re.search(rf"--{re.escape(key)}(?=[\s\]])", capsys.readouterr().out)

        flag_text, config_value, parsed, bad_flag, bad_config = sample(convert, default)
        assert resolve([command])[dest] == default
        flag_argv = [f"--{key}"] if flag_text is None else [f"--{key}", flag_text]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: config_value}))
        from_flag = resolve([command, *flag_argv])[dest]
        from_config = resolve([command, "--config", str(cfg)])[dest]
        assert from_flag == from_config == parsed
        assert type(from_flag) is type(from_config)

        cfg.write_text(json.dumps({key: bad_config}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "bad config value" in capsys.readouterr().err
        if bad_flag is not None:  # a flag value is always a string, so text has no wrong type
            bad_argv = [f"--{key}{bad_flag}"] if bad_flag.startswith("=") else [f"--{key}", bad_flag]
            with pytest.raises(SystemExit) as exc:
                main([command, *bad_argv])
            assert exc.value.code == 2


class TestArgumentValidation:
    def test_unknown_format_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--format", "yaml"])
        assert exc.value.code == 2

    def test_unknown_channel_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--channel", "thermal"])
        assert exc.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_negative_time_is_usage_error(self, capsys):
        assert main(["bound", "--channel", "dephasing", "--t", "-1.0"]) == 2

    def test_uncaught_exception_exits_2_not_1(self, monkeypatch, capsys):
        # exit code 1 means "verification failed"; a crash must never claim it
        def crash(opts):
            raise RuntimeError("unexpected failure")

        monkeypatch.setitem(cli._RUNNERS, "sweep", crash)
        assert main(["sweep"]) == 2
        assert capsys.readouterr().err == "error: unexpected failure\n"


class TestNonFiniteNumbers:
    """nan and +-inf are refused where the options are resolved, before any
    channel is built: on a flag, in a list and in the config file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--omega", "inf"],
            ["bound", "--t", "nan"],
            ["bound", "--channel", "dephasing", "--gamma", "inf"],
            ["ecs", "--eta-list", "0.9,nan"],
        ],
        ids=["omega-inf", "t-nan", "gamma-inf", "eta-list-nan"],
    )
    def test_flag_exits_2_naming_the_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: expected a finite number" in capsys.readouterr().err

    def test_config_value_exits_2_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"omega": Infinity}')  # Python's json reads this as inf
        assert main(["bound", "--config", str(cfg)]) == 2
        assert "bad config value for 'omega': expected a finite number" in capsys.readouterr().err

    def test_subprocess_refuses_before_numpy_warns(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qfibound.cli", "bound", "--omega", "inf"],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        assert proc.returncode == 2
        assert "--omega" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr


class TestOverflowingInputs:
    """Finite inputs whose arithmetic overflows, or underflows to a zero that
    is divided by, are refused with exit 2 by a message naming the input."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "--T", "1e-320"], "T = 9.99989e-321"),
            (["sweep", "--alpha-perp", "1e300"], "alpha_perp = 1e+300"),
            (["sweep", "--beta-perp", "1e308"], "beta_perp = 1e+308"),
            (["sweep", "--N-list", "1e308"], "at N = 1000000000000000010979"),
            (["ecs", "--alpha-sq-list", "1e308"], "|alpha|^2 = 1e+308"),
            (["verify", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ],
        ids=["sweep-tiny-T", "sweep-alpha-perp", "sweep-beta-perp", "sweep-N", "ecs-alpha-sq", "verify-seed"],
    )
    def test_exits_2_naming_the_input(self, capsys, argv, named):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


def _run_recording(argv):
    """main(argv) in-process as (exit code, stdout, stderr, warnings): every
    warning is recorded, so the suite's error filter cannot turn one into a
    handled exit 2 and hide it.  An argparse refusal exits through
    SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


class TestShortTimeOverflow:
    """The sweep laws define alpha t^beta where it overflows: 0 for alpha =
    0 and inf otherwise, with no numpy warning on the way."""

    @pytest.mark.parametrize(
        "argv, reference",
        [
            (["--alpha-par", "1e308"], ["--alpha-par", "1e300"]),
            (["--beta-par", "1e308"], []),
            (["--beta-par", "9223372036854775808"], []),
            (["--beta-k", "1e308"], []),
            (["--beta-k", "9223372036854775808"], []),
        ],
        ids=["alpha-par", "beta-par", "beta-par-2^63", "beta-k", "beta-k-2^63"],
    )
    def test_rows_are_the_limit(self, argv, reference):
        code, out, err, caught = _run_recording(["sweep", *argv])
        assert (code, err, caught) == (0, "", [])
        _, want, _, _ = _run_recording(["sweep", *reference])
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows == [line for line in want.splitlines() if not line.startswith("#")]

    def test_displacement_overflow_refused_without_warnings(self):
        code, _, err, caught = _run_recording(["sweep", "--alpha-k", "1e308"])
        assert (code, caught) == (2, [])
        assert err.startswith("error: crossover equation at N = 8 has no sign change")


def test_bound_refuses_an_overflowing_time_before_the_channel(monkeypatch, capsys):
    # N^2 t^2, the scale of (rho'|rho'), overflows at t = 1e308
    monkeypatch.setattr(cli, "channel_output", lambda *a: pytest.fail("channel built"))
    assert main(["bound", "--t", "1e308"]) == 2
    assert capsys.readouterr().err == "error: t = 1e+308 overflows the Gram scale N^2 t^2 at N = 1\n"


@pytest.mark.parametrize("t", ["1e10", "1e15", "9223372036854775808", "1e150"])
def test_bound_answers_at_a_large_time(capsys, t):
    # the exact QFI of the unitary family is t^2 and the bound half of it;
    # the oracle's allowance for round-off on the kernel grows with rho'
    assert main(["bound", "--t", t]) == 0
    row = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")][1]
    assert row.split(",")[-1] == "0.5"


_EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "9223372036854775808"]
_NUMERIC = (cli.number, cli.integer, cli.number_list, cli.integer_list)
#: the config-file spelling of the non-finite edge values: Python's json
#: reads these literals as floats
_JSON_LITERALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _companions(command, key):
    """The flags an option needs to take effect: --k and --m probe only
    together, and --phi and --n-max reach only the ECS oracle."""
    if command == "interferometer" and key in ("k", "m"):
        return ["--m=0" if key == "k" else "--k=0"]
    return ["--oracle"] if command == "ecs" else []


def _spellings(tmp_path, key, convert, value):
    """The edge value as a flag and as a config file, a list option's value
    as a one-item list."""
    literal = _JSON_LITERALS.get(value, value)
    if convert in (cli.number_list, cli.integer_list):
        literal = f"[{literal}]"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"{key}": {literal}}}')
    return [f"--{key}={value}"], ["--config", str(cfg)]


@pytest.mark.parametrize(
    "command,key",
    [
        (c, k)
        for c, (_, table) in cli._COMMANDS.items()
        for k, entry in {**table, **cli._GLOBAL_OPTIONS}.items()
        if entry[1] in _NUMERIC
    ],
)
def test_exit_contract_under_edge_values(tmp_path, command, key):
    # each numeric option at each edge value, on a flag and in a config
    # file, in-process: exit 0, 2 or 3 and never 1; stderr empty or an error
    # line (argparse's own refusal ends in one) with no traceback and no
    # warning; a success prints no non-finite value; and a huge count stops
    # at a guard, not by running
    convert = {**cli._COMMANDS[command][1], **cli._GLOBAL_OPTIONS}[key][1]
    for value in _EDGE_VALUES:
        for spelling in _spellings(tmp_path, key, convert, value):
            start = time.perf_counter()
            code, out, err, caught = _run_recording([command, *spelling, *_companions(command, key)])
            case = f"{command} {' '.join(spelling)} ({key}={value}): exit {code}, stderr {err!r}"
            assert time.perf_counter() - start < 2.0, case
            assert code in (0, 2, 3) and caught == [], (case, caught)
            assert "Traceback" not in err, case
            if err.startswith("usage:"):  # argparse refused the flag
                assert code == 2 and f"error: argument --{key}: " in err.splitlines()[-1], case
            else:
                assert (err == "") if code == 0 else err.startswith("error: "), case
            if code == 0:
                assert not {"nan", "inf", "-inf"} & set(re.split(r"[\s,=]+", out.lower())), case


class TestRenderers:
    def test_csv_trailing_newline_and_float_format(self):
        text = render_csv({"b": 1.0, "a": "x"}, ["v"], [[1.0 / 3.0]])
        assert text == "# a=x\n# b=1\nv\n0.333333333333\n"

    def test_json_sorted_keys_and_specials(self):
        text = render_json({"b": [1.5, math.nan], "a": math.inf})
        assert text == '{"a": null,"b": [1.5,null]}\n'

    def test_json_precision(self):
        text = render_json({"x": 0.1234567890123456789})
        assert "0.123456789012" in text
