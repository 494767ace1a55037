"""Start ``qfibound.cli`` with the benchmark's spans installed.

    python3 benchmarks/bootstrap.py SPAN_FILE [qfibound arguments...]

The traced cli-mix run starts each CLI subprocess through this file.  It
times the package import as ``cli.import``, wraps the package's functions
as the traced library workloads do, runs ``qfibound.cli.main`` and writes
its spans to SPAN_FILE when the command ends.  It leaves ``tracemalloc``
off: no cli-mix metric needs it, and it slows the interferometer's Python
loops tenfold.
"""
from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import tracing

tracer = tracing.Tracer()
start = perf_counter()
import qfibound  # noqa: E402
import qfibound.cli  # noqa: E402

tracer.record("cli.import", start, perf_counter())
tracing.install(tracer)
try:
    code = qfibound.cli.main(sys.argv[2:])
finally:
    tracer.write(Path(sys.argv[1]))
raise SystemExit(code)
