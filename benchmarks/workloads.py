"""The three workloads: their inputs, their operations and the check on each.

Building a workload imports the package and makes its inputs from the seed;
that is the set-up the benchmark times.  Each operation is a callable that
runs one request and checks its output, raising
:class:`checks.CheckFailed` when the output is wrong.
"""
from __future__ import annotations

import math
import os
import selectors
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks

Op = tuple[str, Callable[[], None]]

#: eta_perp of the named channels: below the crossover (N-1)/N for N <= 9.
ETA_PERP = 0.9


class Workload:
    """Defaults for a workload whose operations run in the worker itself."""

    spawns_children = False

    def prepare(self, tracer) -> None:
        """Work after the timed set-up and before the warm-up cycle."""

    def self_test(self) -> list[str]:
        return checks.self_test()


class ProductProbes(Workload):
    """Library calls on N-probe product channels, dense and diagonal."""

    name = "product-probes"

    def __init__(self, seed: int, root: Path) -> None:
        import numpy as np
        import qfibound as qb

        self.qb = qb
        rng = np.random.default_rng(seed)
        t = float(rng.uniform(0.5, 2.0))
        self.x = float(rng.uniform(-1.0, 1.0))
        gamma = math.log(1.0 / ETA_PERP) / t
        ops: list[Op] = []
        for kind, rate in (("dephasing", gamma), ("depolarizing", gamma), ("amplitude_damping", 2 * gamma)):
            family = qb.phase_covariant_family(t, qb.named_noise(kind, rate, t))
            for n in range(1, 6):
                ops += self._probe_ops(kind, family, n, t, ETA_PERP)
            if kind == "dephasing":
                ops.append(self._ghz_op(kind, family, 6, t, ETA_PERP))
        for j in range(2):
            for n, family, t_n, eta_n in self._random_model(rng):
                ops += self._probe_ops(f"random{j}", family, n, t_n, eta_n)
        rotation = qb.rotation_family(t)
        for n in range(1, 7):
            ops.append(self._max_op("rotation", rotation, n, t, 1.0))
        ops.append(self._ghz_op("rotation", rotation, 6, t, 1.0))
        for n in range(1, 4):
            for g in rng.uniform(0.1, 2.0, size=3):
                ops.append((f"correlated n={n}", self._correlated(n, float(g), t)))
        self.ops = ops

    def _random_model(self, rng) -> list[tuple]:
        """A seeded short-time model at 0.8 tau(N) for N = 1..4, redrawn
        until every N gives a CPTP parameter set.  (N stops at 4 to keep a
        cycle near 5 s; amplitude damping covers non-unital noise at N = 5.)"""
        qb = self.qb
        while True:
            model = qb.random_short_time_model(rng)
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            out = []
            try:
                for n in range(1, 5):
                    t_n = 0.8 * qb.tau_solve(model, n)
                    family = qb.phase_covariant_family(t_n, qb.params_at(model, t_n, theta=theta))
                    out.append((n, family, t_n, math.exp(-model.alpha_perp * t_n**model.beta_perp)))
            except (qb.errors.CptpViolation, qb.errors.RangeViolation):
                continue
            return out

    def _probe_ops(self, label, family, n, t, eta) -> list[Op]:
        return [self._max_op(label, family, n, t, eta), self._ghz_op(label, family, n, t, eta)]

    def _max_op(self, label, family, n, t, eta) -> Op:
        def op() -> None:
            checks.check_max_bound(self.qb.max_bound_over_states(family, self.x, n), n, t, eta)

        return f"{label} max N={n}", op

    def _ghz_op(self, label, family, n, t, eta) -> Op:
        qb = self.qb

        def op() -> None:
            result = qb.lower_bound_from_channel(qb.product_family(family, n), self.x, qb.ghz_state(n))
            checks.check_ghz_bound(result.f_lower, n, t, eta)

        return f"{label} ghz N={n}", op

    def _correlated(self, n, gamma, t) -> Callable[[], None]:
        return lambda: checks.check_correlated(self.qb.correlated_gram_max(n, gamma, t), n, t)


#: |alpha|^2 of the ECS oracle operations: Fock truncations n_max 21, 27,
#: 31, 34 and 49.  An odd number of operations with well-separated costs
#: puts op_ms_p50 inside one operation's samples (the |alpha|^2 = 3 one).
ECS_ALPHA_SQ = (1.0, 2.0, 3.0, 4.0, 9.0)


class EcsOracle(Workload):
    """The truncated-Fock ECS bound against its closed form."""

    name = "ecs-oracle"

    def __init__(self, seed: int, root: Path) -> None:
        import numpy as np
        import qfibound as qb

        rng = np.random.default_rng(seed)
        self.ops = []
        for alpha_sq in ECS_ALPHA_SQ:
            eta = float(rng.uniform(0.8, 1.0))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            spec = qb.EcsSpec.for_alpha(math.sqrt(alpha_sq))

            def op(spec=spec, alpha_sq=alpha_sq, eta=eta, phi=phi) -> None:
                checks.check_ecs_numeric(qb.ecs_lower_bound_numeric(spec, eta, phi), alpha_sq, eta)

            self.ops.append((f"ecs |alpha|^2={alpha_sq:g} n_max={spec.n_max}", op))


class ChildFailed(Exception):
    """A CLI subprocess exited with a nonzero code or timed out."""


#: Seconds a single CLI subprocess may run before it is killed.
CHILD_TIMEOUT = 60.0

SWEEP_N = [8, 16, 32, 64, 128, 256, 512, 1024]
INTERFEROMETER_ETAS = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]


class CliMix(Workload):
    """One `python -m qfibound.cli` subprocess per operation."""

    name = "cli-mix"
    spawns_children = True

    def __init__(self, seed: int, root: Path) -> None:
        import qfibound.cli  # noqa: F401  (the import every CLI call pays)

        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_mb = 0.0
        self.tracer = None
        self.expected: dict[int, list] = {}
        commands: list[tuple[str, list[str], Callable[[str], None]]] = [
            ("bound", ["bound", "--N", "3"], lambda out: checks.check_bound_csv(out, 3, 1.0, 1.0)),
            ("bound", ["bound", "--channel", "dephasing", "--gamma", "0.3", "--N", "6"],
             lambda out: checks.check_bound_csv(out, 6, 1.0, math.exp(-0.3))),
            ("sweep", ["sweep"], lambda out: checks.check_sweep_csv(out, 0.5, 1.0, SWEEP_N)),
            ("interferometer", ["interferometer", "--N", "20"],
             lambda out: checks.check_interferometer_csv(out, 20, self.expected[20])),
            ("interferometer", ["interferometer", "--N", "300"],
             lambda out: checks.check_interferometer_csv(out, 300, self.expected[300])),
            ("ecs", ["ecs"], lambda out: checks.check_ecs_csv(out, [1.0, 2.0, 4.0], [0.8, 0.9, 1.0])),
            ("verify", ["verify"], checks.check_verify_json),
        ]
        self.ops = [(" ".join(args), self._op(cmd, args, check)) for cmd, args, check in commands]

    def prepare(self, tracer) -> None:
        """Expected interferometer rows (exact sums), and the tracer if any."""
        self.tracer = tracer
        for n in (20, 300):
            self.expected[n] = checks.interferometer_expected(n, INTERFEROMETER_ETAS)

    def _op(self, command: str, args: list[str], check: Callable[[str], None]) -> Callable[[], None]:
        def op() -> None:
            code, out, err = self.run_cli(command, args)
            if code != 0:
                raise ChildFailed(f"exit code {code}: {err.strip()[-500:]}")
            check(out)

        return op

    def run_cli(self, command: str, args: list[str]) -> tuple[int, str, str]:
        if self.tracer is None:
            argv = [sys.executable, "-m", "qfibound.cli", *args]
        else:
            out_dir = self.root / "benchmarks" / "out"
            out_dir.mkdir(parents=True, exist_ok=True)
            span_file = out_dir / f"child-{os.getpid()}.jsonl"
            argv = [sys.executable, str(Path(__file__).with_name("bootstrap.py")), str(span_file), *args]
        start = perf_counter()
        code, out, err, rss_mb = run_child(argv, self.env, self.root, CHILD_TIMEOUT)
        end = perf_counter()
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        if self.tracer is not None:
            import tracing

            spans = tracing.read_spans(span_file) if span_file.exists() else []
            dense_builds = sum(1 for span in spans if span[0] == "liouville.tensor_power")
            parent = self.tracer.record(
                f"cli.{command}", start, end, {"rss_mb": rss_mb, "tensor_power_calls": dense_builds}
            )
            self.tracer.adopt(spans, parent)
            span_file.unlink(missing_ok=True)
        return code, out, err

    def self_test(self) -> list[str]:
        code, out, err = self.run_cli("verify", ["verify", "--corrupt-channels"])
        if code != 1:
            return [f"verify --corrupt-channels exited {code}, want 1: {err.strip()[-500:]}"]
        return checks.self_test(corrupt_verify=out)


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float) -> tuple[int, str, str, float]:
    """Run a subprocess to its end: (exit code, stdout, stderr, peak RSS in MB).

    The peak RSS is this child's own, from ``os.wait4``; the running maximum
    of ``RUSAGE_CHILDREN`` would carry over from earlier children.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    deadline = perf_counter() + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(max(deadline - perf_counter(), 0.0))
                if not ready:
                    proc.kill()
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (ProductProbes, EcsOracle, CliMix)}
