"""Benchmark entry point: one run of one workload, result as a JSON line.

    python3 benchmarks/run.py --workload product-probes --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --self-test

Run from the root of a checkout; the package is imported from its ``src``.
A run starts several fresh worker interpreters that only set up (import the
package and build the workload's inputs) and takes the median of their
set-up times, then one more that also warms up and times whole cycles.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics from a traced worker.  Metric names and units come
from ``BENCHMARK.json``.  ``--self-test`` shows that every output check
rejects a wrong answer.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only interpreters started before and again after the timed
#: worker; set-up time is the median over these and the timed worker.
#: Probes on both sides of the run sample the machine at both ends of it.
SETUP_PROBES = 2

#: A run is abandoned after this many seconds.
RUN_TIMEOUT = 170

#: BLAS threads in every worker and CLI subprocess, fixed so that a run
#: does not depend on the caller's environment: the machine's cores, at
#: most two (a workload is a single closed-loop client).
BLAS_THREADS = {
    name: str(min(2, os.cpu_count() or 1))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


class _Abandoned(Exception):
    pass


def _alarm(signum, frame):
    raise _Abandoned(f"run exceeded {RUN_TIMEOUT} s")


def start_worker(args: argparse.Namespace, procs: list) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it has set up: (process, set-up seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        env={**os.environ, **BLAS_THREADS},
    )
    procs.append(proc)
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if line.strip() != "ready":
        proc.wait()
        raise SystemExit(f"worker did not set up (exit code {proc.returncode})")
    return proc, setup_s


def probe_setups(args: argparse.Namespace, procs: list) -> list[float]:
    setups = []
    for _ in range(SETUP_PROBES if not args.trace else 0):
        proc, setup_s = start_worker(args, procs)
        proc.communicate("exit\n")
        setups.append(setup_s)
    return setups


def measure(args: argparse.Namespace, procs: list) -> dict:
    setups = probe_setups(args, procs)
    proc, setup_s = start_worker(args, procs)
    setups.append(setup_s)
    out, _ = proc.communicate("run\n")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed (exit code {proc.returncode})")
    raw = json.loads(out.strip().splitlines()[-1])
    setups += probe_setups(args, procs)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        specs, values = bench["per_layer"], raw["layers"]
    else:
        specs = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "cycle_s": statistics.median(raw["cycle_s"]),
            "op_ms_p50": statistics.median(raw["op_ms"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    for problem in raw["self_test_problems"]:
        print(f"self-test: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(raw['cycle_s'])} timed cycles, "
        f"median cycle {statistics.median(raw['cycle_s']):.4f} s, "
        f"{raw['attempted']} operations, {raw['failed']} failed, "
        f"set-up {' '.join(f'{x:.3f}' for x in setups)} s",
        file=sys.stderr,
    )
    return {
        "correct": raw["wrong"] == 0 and not raw["self_test_problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def self_test() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CliMix

    workload = CliMix(0, ROOT)
    problems = workload.self_test()
    for problem in problems:
        print(f"self-test: {problem}")
    print("self-test: every check rejects its wrong answer" if not problems else "self-test FAILED")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("product-probes", "ecs-oracle", "cli-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(RUN_TIMEOUT)
    procs: list[subprocess.Popen] = []
    try:
        result = measure(args, procs)
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
