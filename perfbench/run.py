"""hombeat benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hombeat is imported from ``src/``.
The workload's seeded command list (one *pass*) runs again and again until
``--seconds`` have gone by, and every command's outputs are checked (see
checks.py).  The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (commands, all passes) and
``metrics``, which holds the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  The line before it is the run stamp.
A traced run alternates untraced and traced passes; the difference between
them is ``trace.overhead_s``.  Workloads and metrics are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
PROBE_REPEATS = 5  # import probes are medians of this many fresh interpreters

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.python_s": "s",
    "import.numpy_s": "s",
    "import.hombeat_s": "s",
    "import.scipy_modules": "count",
    "import.command_s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "hybrid_state.run_pipeline_s": "s",
    "phase_match.emission_curves_s": "s",
    "phase_match.find_intersection_s": "s",
    "phase_match.points_attempted": "count",
    "phase_match.solved_frac": "ratio",
    "joint_spectrum.jsa_grid_s": "s",
    "joint_spectrum.cells": "count",
    "hom_interference.trace_numeric_s": "s",
    "hom_interference.delays_numeric": "count",
    "hom_interference.numeric_max_err": "prob",
    "hom_interference.trace_closed_s": "s",
    "hom_interference.delays_closed": "count",
    "rotation_estimator.estimate_s": "s",
    "rotation_estimator.samples": "count",
    "rotation_estimator.iterations": "count",
    "rotation_estimator.converged_frac": "ratio",
    "rotation_estimator.beat_rel_err_max": "ratio",
    "dataio.write_csv_s": "s",
    "dataio.rows_written": "count",
    "dataio.write_bytes": "B",
    "dataio.read_s": "s",
    "dataio.rows_read": "count",
    "dataio.read_bytes": "B",
    "svgplot.heatmap_s": "s",
    "svgplot.line_plot_s": "s",
    "svgplot.bytes": "B",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
# per-layer ratios and the summed counts they divide
_FRACTIONS = {
    "phase_match.solved_frac": ("phase_match.points_solved", "phase_match.points_attempted"),
    "rotation_estimator.converged_frac": ("rotation_estimator.converged",
                                          "rotation_estimator.calls"),
}


class ColdSession:
    """cli_session: each command is a fresh ``python -m hombeat`` process."""

    def __init__(self, spec, workdir: str, env: dict):
        self.spec, self.workdir, self.env = spec, workdir, env

    def _run(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.workdir, env=self.env,
                              stdout=subprocess.PIPE, text=True)

    def setup(self) -> float:
        """One untimed hombeat start: byte-compiles on the first run, warms file caches."""
        start = time.perf_counter()
        self._run(["-m", "hombeat", "--version"]).check_returncode()
        return time.perf_counter() - start

    def run_pass(self, traced: bool) -> list[tuple[float, int, str, list[list[dict]]]]:
        results = []
        for index, command in enumerate(self.spec.commands):
            spans_path = os.path.join(self.workdir, f"spans_{index}.json")
            if traced:
                args = [os.path.join(HERE, "tracer.py"), spans_path, str(index), *command.argv]
            else:
                args = ["-m", "hombeat", *command.argv]
            start = time.perf_counter()
            proc = self._run(args)
            elapsed = time.perf_counter() - start
            spans = []
            if traced and os.path.exists(spans_path):
                with open(spans_path) as fh:
                    spans = [json.load(fh)]
                os.remove(spans_path)
            results.append((elapsed, proc.returncode, proc.stdout, spans))
        return results

    def close(self) -> float:
        """Peak resident memory of the largest child, in MB."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def kill(self) -> None:
        pass


class WarmSession:
    """analysis, bulk_io: one long-lived interpreter runs every command (worker.py)."""

    def __init__(self, spec, workdir: str, env: dict, tiny: bool):
        self.args = [sys.executable, os.path.join(HERE, "worker.py"), workdir, spec.workload,
                     str(spec.seed), "1" if tiny else "0"]
        self.workdir, self.env = workdir, env
        self.proc: subprocess.Popen | None = None

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"benchmark worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def setup(self) -> float:
        """Start a fresh worker: import hombeat, write inputs, run the warm-up commands."""
        if self.proc is not None:
            self.close()
        start = time.perf_counter()
        self.proc = subprocess.Popen(self.args, cwd=self.workdir, env=self.env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._reply()
        return time.perf_counter() - start

    def run_pass(self, traced: bool) -> list[tuple[float, int, str, list[list[dict]]]]:
        self.proc.stdin.write(json.dumps({"traced": traced}) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        spans = [[]] * len(reply["code"])
        if traced:  # one process recorded the whole pass: attach it to the first command
            spans[0] = [reply["spans"]]
        return list(zip(reply["latency"], reply["code"], reply["stdout"], spans))

    def close(self) -> float:
        """Stop the worker; its peak resident memory in MB."""
        self.proc.stdin.close()
        peak = self._reply()["peak_rss_mb"]
        self.proc.wait()
        self.proc = None
        return peak

    def kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


def import_probes(workdir: str, env: dict) -> dict:
    """Fresh-interpreter start-up times (medians) and scipy modules loaded by hombeat."""
    codes = {"import.python_s": "pass", "import.numpy_s": "import numpy",
             "import.hombeat_s": "import hombeat"}
    times = {name: [] for name in codes}
    for _ in range(PROBE_REPEATS):
        for name, code in codes.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, check=True)
            times[name].append(time.perf_counter() - start)
    count = subprocess.run(
        [sys.executable, "-c", "import sys, hombeat; "
         "print(sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"],
        cwd=workdir, env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    probes = {name: statistics.median(values) for name, values in times.items()}
    probes["import.scipy_modules"] = int(count.stdout)
    return probes


def layer_metrics(traced: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer metrics per traced pass, from the spans and the output checks."""
    spans = [process for done in traced for process in done["spans"]]
    totals, top_level = tracer.summarize(spans, len(traced))
    walls = [done["wall"] for done in traced]
    layers = {name: totals.get(name, 0) for name in PER_LAYER}
    for name, (part, whole) in _FRACTIONS.items():
        layers[name] = totals.get(part, 0) / totals[whole] if totals.get(whole) else 0.0
    layers["rotation_estimator.beat_rel_err_max"] = max(
        (err for done in traced for err in done["beat_rel_err"]), default=0.0
    )
    layers["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_walls)
    layers["trace.unattributed_s"] = statistics.fmean(walls) - top_level
    return layers


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "hombeat")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return None
    return out.stdout.strip() or None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 after_command=None) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the run stamp.

    ``after_command(command, workdir)`` is called after each command, before
    its outputs are checked (the self-test uses it to corrupt an output).
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hombeat", "__init__.py")):
        raise FileNotFoundError(f"no hombeat sources under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    spec = workloads.build(workload, seed, tiny)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if workload == workloads.COLD:
        session = ColdSession(spec, workdir, env)
    else:
        session = WarmSession(spec, workdir, env, tiny)
    passes, failures = [], []
    try:
        setups = [session.setup() for _ in range(SETUP_REPEATS)]
        probes = import_probes(workdir, env) if trace else {}
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds or (trace and len(passes) < 2):
            traced = trace and len(passes) % 2 == 1
            done = {"traced": traced, "latency": [], "spans": [], "beat_rel_err": [], "failed": 0}
            for command, (elapsed, code, out, spans) in zip(spec.commands,
                                                            session.run_pass(traced)):
                if after_command is not None:
                    after_command(command, workdir)
                problems, seen = checks.check(command, workdir, out)
                if code != 0:
                    problems.insert(0, f"{command.kind} exited with code {code}")
                done["latency"].append(elapsed)
                done["spans"] += spans
                done["failed"] += bool(problems)
                if "beat_rel_err" in seen:
                    done["beat_rel_err"].append(seen["beat_rel_err"])
                failures += [f"pass {len(passes)} {' '.join(command.argv)}: {p}" for p in problems]
            done["wall"] = sum(done["latency"])
            passes.append(done)
        peak_rss_mb = session.close()
    finally:
        session.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [done for done in passes if not done["traced"]]
    walls = [done["wall"] for done in untraced]
    latencies = [x for done in untraced for x in done["latency"]]
    if trace:
        values = {**layer_metrics([d for d in passes if d["traced"]], walls), **probes}
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(walls), "op_p50_s": statistics.median(latencies),
                  "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    attempted = sum(len(done["latency"]) for done in passes)
    failed = sum(done["failed"] for done in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": _version("scipy"),
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "n": {"passes": len(untraced), "traced_passes": len(passes) - len(untraced),
              "wall_s": len(walls), "op_p50_s": len(latencies), "setup_s": len(setups),
              "import_probes": PROBE_REPEATS if trace else 0},
        "fail_frac": failed / attempted,
        "failures": failures[:10],
    }
    return result, stamp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, stamp = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in stamp["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
