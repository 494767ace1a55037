"""Spans around the package's public functions, kept in memory.

:func:`install` replaces each traced function in every ``qfibound`` module
namespace that holds it (and ``numpy.kron``, ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh``) with a wrapper that records a span.  Nothing in
the package changes; the wrappers live only in the traced process.

A span is ``[name, start, end, parent, cycle, attrs]``: ``parent`` is the
index of the enclosing span or -1, ``cycle`` the benchmark cycle that was
running, and ``attrs`` holds counts measured at the boundary (rows of a
matrix, function evaluations, bytes).  :func:`layer_metrics` folds the
spans of each timed cycle into the per-layer metrics and takes the median
over cycles.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cycle = 0
        self._stack: list[int] = []
        self._peak_stack: list[int] = []
        self._peak: dict[int, int] = {}

    def _open(self, name: str, peak: bool) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.cycle, {}])
        self._stack.append(index)
        if peak:
            # Fold the running peak into the open peak spans before the
            # reset, so nested peak spans do not hide each other's peaks.
            current, high = tracemalloc.get_traced_memory()
            for j in self._peak_stack:
                self._peak[j] = max(self._peak[j], high)
            tracemalloc.reset_peak()
            self._peak_stack.append(index)
            self._peak[index] = current
            self.spans[index][5]["peak_base"] = current
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        if self._peak_stack and self._peak_stack[-1] == index:
            _, high = tracemalloc.get_traced_memory()
            for j in self._peak_stack:
                self._peak[j] = max(self._peak[j], high)
            self._peak_stack.pop()
            span[5]["peak_bytes"] = self._peak.pop(index) - span[5].pop("peak_base")

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable | None = None,
        *,
        count_evals: bool = False,
        peak: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            evals = 0
            if count_evals:
                f = args[0]

                def counted(x):
                    nonlocal evals
                    evals += 1
                    return f(x)

                args = (counted,) + args[1:]
            index = tracer._open(name, peak)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            extra = tracer.spans[index][5]
            if count_evals:
                extra["evals"] = evals
            if attrs is not None:
                extra.update(attrs(args, out))
            return out

        return traced

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> int:
        """A span measured by the caller, such as a whole subprocess."""
        self.spans.append([name, start, end, -1, self.cycle, dict(attrs or {})])
        return len(self.spans) - 1

    def adopt(self, spans: list[list], parent: int) -> None:
        """Merge spans written by a child process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, _, attrs in spans:
            self.spans.append([name, start, end, offset + up if up >= 0 else parent, self.cycle, attrs])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, cycle, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "cycle": cycle, **attrs}) + "\n")


def read_spans(path: Path) -> list[list]:
    spans = []
    with path.open() as f:
        for line in f:
            d = json.loads(line)
            spans.append([d.pop("name"), d.pop("start"), d.pop("end"), d.pop("parent"), d.pop("cycle"), d])
    return spans


def _superop_rows(args, out) -> dict:
    return {"rows": out.hilbert_dim**2}


def _matrix_rows(args, out) -> dict:
    return {"rows": len(args[0])}


#: Traced package functions: span name -> (rows/dim/bytes attrs, count f evals, track peak).
_PACKAGE = {
    "liouville.tensor_power": (_superop_rows, False, False),
    "liouville.tensor_power_derivative": (_superop_rows, False, False),
    "liouville.gram_tensor_power": (_superop_rows, False, False),
    "liouville.site_permutation": (None, False, False),
    "liouville.gram_triple": (None, False, False),
    "channels.phase_covariant_superop": (None, False, False),
    "channels.phase_covariant_derivative": (None, False, False),
    "channels.loss_kraus": (None, False, False),
    "numerics.largest_eigval_psd": (None, False, False),
    "numerics.herm_eig": (None, False, False),
    "numerics.solve_root_bisect": (None, True, False),
    "numerics.minimize_unimodal": (None, True, False),
    "bound.max_bound_over_states": (
        lambda args, out: {"ghz_hits": int(out.initial_state is not None)}, False, True),
    "bound.lower_bound_from_channel": (None, False, False),
    "bound.ghz_state": (None, False, False),
    "bound.lower_bound_from_state": (lambda args, out: {"dim": len(args[0])}, False, False),
    "metrology.correlated_gram_max": (None, False, False),
    "metrology.ecs_lower_bound_numeric": (None, False, True),
    "metrology.tau_solve": (None, False, False),
    "metrology.t_opt_numeric": (None, False, False),
    "metrology.precision_scaling": (None, False, False),
    "metrology.interferometer_optimal_m": (None, False, False),
    "metrology.interferometer_gram_diag": (None, False, False),
    "qfi_oracle.exact_qfi": (None, False, False),
    "verify.run_verification": (None, False, False),
}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every loaded ``qfibound`` module."""
    import numpy

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qfibound" or name.startswith("qfibound."))]
    targets: list[tuple[Callable, Callable]] = []
    for span, (attrs, count_evals, peak) in _PACKAGE.items():
        module, attr = span.split(".")
        original = getattr(sys.modules[f"qfibound.{module}"], attr)
        targets.append((original, tracer.wrap(span, original, attrs, count_evals=count_evals, peak=peak)))
    cli = sys.modules.get("qfibound.cli")
    if cli is not None:
        for attr in ("render_csv", "render_json"):
            original = getattr(cli, attr)
            targets.append((original, tracer.wrap("cli.render", original)))
    for original, wrapper in targets:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    numpy.kron = tracer.wrap("numpy.kron", numpy.kron, lambda args, out: {"out_bytes": out.nbytes})
    numpy.linalg.eigh = tracer.wrap("numpy.linalg.eigh", numpy.linalg.eigh, _matrix_rows)
    numpy.linalg.eigvalsh = tracer.wrap("numpy.linalg.eigvalsh", numpy.linalg.eigvalsh, _matrix_rows)


#: Metric suffix -> (span attribute, per-cycle reduction).  "ms" and
#: "self_ms" are inclusive and self time; "calls" counts spans.  On a
#: ``cli.<command>`` span, "tensor_power_calls" is the number of
#: ``liouville.tensor_power`` calls inside one subprocess.
_FIELDS = {
    "rows_max": ("rows", max),
    "dim_max": ("dim", max),
    "out_bytes": ("out_bytes", sum),
    "peak_bytes": ("peak_bytes", max),
    "evals": ("evals", sum),
    "ghz_hits": ("ghz_hits", sum),
    "rss_mb": ("rss_mb", max),
    "tensor_power_calls": ("tensor_power_calls", max),
}


def layer_metrics(spans: list[list], cycles: list[int], names: list[str]) -> dict[str, float]:
    """Median over ``cycles`` of each per-layer metric in ``names``.

    A metric name is ``<span name>.<field>``; a layer that does not run in a
    cycle reads 0 there.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, cycle, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_cycle: dict[int, dict[str, list]] = {c: {} for c in cycles}
    for index, (name, start, end, parent, cycle, attrs) in enumerate(spans):
        if cycle in per_cycle:
            per_cycle[cycle].setdefault(name, []).append((end - start, child_time[index], attrs))
    out = {}
    for metric in names:
        span, field = metric.rsplit(".", 1)
        values = []
        for cycle in cycles:
            entries = per_cycle[cycle].get(span, [])
            if field == "ms":
                values.append(1e3 * sum(d for d, _, _ in entries))
            elif field == "self_ms":
                values.append(1e3 * sum(d - c for d, c, _ in entries))
            elif field == "calls":
                values.append(len(entries))
            else:
                key, reduce = _FIELDS[field]
                values.append(reduce([a[key] for _, _, a in entries]) if entries else 0)
        out[metric] = statistics.median(values)
    return out
