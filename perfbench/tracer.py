"""Span tracing of hombeat's public calls, installed from outside the package.

``install`` replaces the public names that ``hombeat.cli`` calls (and the two
``svgplot`` renderers) with wrappers that record one span per call: name,
start, end, parent span and command id, plus the counts measured at that
boundary.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus that of its child spans.

Run as a script, this module is the traced entry point of one hombeat
command in a fresh interpreter (the cli_session workload):

    python perfbench/tracer.py SPANS.json COMMAND_ID HOMBEAT_ARGS...

It also records the ``import hombeat.cli`` time as an ``import`` span.
Nothing here imports numpy or hombeat at module level, so that import cost
lands inside that span.
"""

from __future__ import annotations

import json
import os
import sys
import time

# span names whose self time is reported under another metric name
_TIME_METRIC = {"cli": "cli.self_s", "import": "import.command_s"}
# counts aggregated by maximum rather than by sum
_MAXIMA = {"hom_interference.numeric_max_err"}


class Tracer:
    """Spans of one process, in call order; ``parent`` is an index into ``spans``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.command: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent,
                           "command": self.command, "counts": {}})

    def wrap(self, owner, attr: str, name, measure=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's (args, kwargs);
        ``measure(args, kwargs, result)`` returns the counts, outside the span.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            self.record(label, time.perf_counter(), 0.0)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[index]["end"] = time.perf_counter()
                self._open.pop()
            if measure is not None:
                self.spans[index]["counts"] = measure(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[dict]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _trace_name(args, kwargs) -> str:
    return "hom_interference.trace_" + kwargs.get("method", "closed")


def _trace_counts(args, kwargs, result) -> dict:
    counts = {f"hom_interference.delays_{result.method}": int(result.tau.size)}
    if result.method == "numeric":
        import numpy as np
        from workloads import dip

        cfg = args[0]
        ref = dip(result.tau, cfg.tau_c, 2.0 * cfg.l * cfg.omega_rot)
        counts["hom_interference.numeric_max_err"] = float(np.max(np.abs(result.p - ref)))
    return counts


def _curve_counts(args, kwargs, result) -> dict:
    o_curve, e_curve = result
    return {"phase_match.points_attempted": 2 * args[2],
            "phase_match.points_solved": len(o_curve.samples) + len(e_curve.samples)}


def _estimate_counts(args, kwargs, result) -> dict:
    return {"rotation_estimator.calls": 1, "rotation_estimator.samples": int(args[0].tau.size),
            "rotation_estimator.iterations": result.iterations,
            "rotation_estimator.converged": int(result.converged)}


def _write_counts(args, kwargs, result) -> dict:
    rows = len(next(iter(args[1].values()), ()))
    return {"dataio.rows_written": rows, "dataio.write_bytes": os.path.getsize(args[0])}


def _read_counts(args, kwargs, result) -> dict:
    return {"dataio.rows_read": int(result[1].size), "dataio.read_bytes": os.path.getsize(args[0])}


def _svg_counts(args, kwargs, result) -> dict:
    return {"svgplot.bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap every public name hombeat.cli calls, plus cli.main itself."""
    import hombeat.cli as cli
    import hombeat.svgplot as svgplot

    tracer.wrap(cli, "main", "cli", lambda a, k, r: {"cli.calls": 1})
    tracer.wrap(cli, "run_pipeline", "hybrid_state.run_pipeline")
    tracer.wrap(cli, "jsa_grid", "joint_spectrum.jsa_grid",
                lambda a, k, r: {"joint_spectrum.cells": int(r.values.size)})
    tracer.wrap(cli, "trace", _trace_name, _trace_counts)
    tracer.wrap(cli, "emission_curves", "phase_match.emission_curves", _curve_counts)
    tracer.wrap(cli, "find_intersection", "phase_match.find_intersection")
    tracer.wrap(cli, "estimate", "rotation_estimator.estimate", _estimate_counts)
    tracer.wrap(cli, "write_csv", "dataio.write_csv", _write_counts)
    tracer.wrap(cli, "read_hom_trace", "dataio.read", _read_counts)
    tracer.wrap(svgplot, "heatmap", "svgplot.heatmap", _svg_counts)
    tracer.wrap(svgplot, "line_plot", "svgplot.line_plot", _svg_counts)


def summarize(span_lists: list[list[dict]], passes: int) -> tuple[dict, float]:
    """Per-layer self times and counts per pass, and the top-level span time per pass.

    ``span_lists`` holds one list per recording process; ``parent`` indexes
    into the same list.  Counts are summed, except maxima.
    """
    totals: dict[str, float] = {}
    top_level = 0.0

    def add(key: str, value: float) -> None:
        if key in _MAXIMA:
            totals[key] = max(totals.get(key, 0.0), value)
        else:
            totals[key] = totals.get(key, 0.0) + value / passes

    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for span in spans:
            duration = span["end"] - span["start"]
            if span["parent"] is None:
                top_level += duration
            else:
                child_time[span["parent"]] += duration
        for span, inner in zip(spans, child_time):
            add(_TIME_METRIC.get(span["name"], span["name"] + "_s"),
                span["end"] - span["start"] - inner)
            for key, value in span["counts"].items():
                add(key, value)
    return totals, top_level / passes


def main(argv: list[str]) -> int:
    spans_path, command, hombeat_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.command = command
    start = time.perf_counter()
    import hombeat.cli

    tracer.record("import", start, time.perf_counter())
    install(tracer)
    try:
        return hombeat.cli.main(hombeat_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
