"""One benchmark process: set up a workload, then time whole cycles of it.

Started by ``run.py`` in a fresh interpreter.  It builds the workload (the
set-up being timed), prints ``ready`` and reads one line: ``exit`` ends a
set-up probe, ``run`` makes one untimed warm-up cycle and then timed cycles
until ``--seconds`` have passed, runs the checks' self-test and prints one
JSON line with the raw measurements.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def run_cycle(ops, tally: dict, op_ms: list) -> None:
    for label, op in ops:
        start = perf_counter()
        try:
            op()
        except checks.CheckFailed as exc:
            tally["failed"] += 1
            tally["wrong"] += 1
            print(f"check failed: {label}: {exc}", file=sys.stderr)
        except Exception:  # an operation's error is counted, and the run goes on
            tally["failed"] += 1
            print(f"operation failed: {label}\n{traceback.format_exc()}", file=sys.stderr)
        op_ms.append(1e3 * (perf_counter() - start))
        tally["attempted"] += 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    import qfibound

    if ROOT / "src" not in Path(qfibound.__file__).resolve().parents:
        raise SystemExit(f"qfibound was imported from {qfibound.__file__}, not from {ROOT / 'src'}")
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    tracer = None
    if args.trace:
        import tracemalloc

        import tracing

        tracer = tracing.Tracer()
        if not workload.spawns_children:
            tracing.install(tracer)
            tracemalloc.start()
    workload.prepare(tracer)

    warm = {"attempted": 0, "failed": 0, "wrong": 0}
    run_cycle(workload.ops, warm, [])
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    op_ms: list[float] = []
    cycle_s: list[float] = []
    start = perf_counter()
    while not cycle_s or perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.cycle = len(cycle_s) + 1
        t0 = perf_counter()
        run_cycle(workload.ops, tally, op_ms)
        cycle_s.append(perf_counter() - t0)

    layers = None
    if tracer is not None:
        import tracing

        tracer.cycle = -1
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        layers = tracing.layer_metrics(tracer.spans, list(range(1, len(cycle_s) + 1)), names)
        tracer.write(ROOT / "benchmarks" / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    if workload.spawns_children:
        peak_rss_mb = workload.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.self_test()
    print(json.dumps({
        **tally,
        "cycle_s": cycle_s,
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb,
        "self_test_problems": problems,
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
