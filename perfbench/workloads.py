"""Seeded command lists and input traces for the benchmark workloads.

Every workload is a closed loop with one client: a single process issues one
``hombeat`` command, waits for it to finish, and only then issues the next.
A *pass* is the workload's fixed command list, drawn once from the seed and
repeated unchanged until the run's time is up.

Seeded parameters are drawn by stratified sampling (one draw in each of k
equal slices of a range), so two seeds give different inputs but nearly the
same amount of work; that keeps run-to-run spread down to machine noise.
Decimal-exact delay grids (``tau_c`` and the span in whole femtoseconds,
with a round step) make the exported traces read back as uniform grids, so
the estimator takes its FFT path on them; the analysis workload writes its
own non-uniform inputs to exercise the direct-DFT path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("cli_session", "analysis", "bulk_io")

# the workload whose commands each run in a fresh interpreter
COLD = "cli_session"

# estimator tolerances on the recovered beat, relative to 2*l*omega
BEAT_TOL_EXACT = 1e-6  # noiseless traces exported by `hom`
BEAT_TOL_NOISY = 0.01  # seeded noise of at most 0.01

# tiny commands run once in a warm interpreter before the first timed one
WARMUP = (
    ("hom", "--l", "2", "--omega", "4e12", "--points", "64", "--out", "warm_hom.csv",
     "--svg", "warm_hom.svg"),
    ("estimate", "--input", "warm_hom.csv", "--out", "warm_est.json"),
    ("hom", "--method", "numeric", "--points", "8", "--out", "warm_num.csv"),
    ("phasematch", "--cut-angle", "45", "--points", "16", "--out", "warm_pm.csv"),
    ("jsa", "--rde-l", "1", "--rde-omega", "1e12", "--grid", "16", "--out", "warm_jsa.csv",
     "--svg", "warm_jsa.svg"),
)


@dataclass(frozen=True)
class Command:
    """One hombeat invocation and what its output checks compare against."""

    kind: str  # the hombeat subcommand
    argv: tuple[str, ...]  # arguments after ``hombeat``
    expect: dict


@dataclass(frozen=True)
class InputTrace:
    """A noisy coincidence trace the benchmark writes before timing starts."""

    name: str
    tau: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class Spec:
    workload: str
    seed: int
    commands: tuple[Command, ...]
    inputs: tuple[InputTrace, ...] = ()


def dip(tau, tau_c: float, beat: float):
    """Reference coincidence ``1/2 - 1/2 cos(beat tau) exp(-tau^2 / 2 tau_c^2)``."""
    tau = np.asarray(tau, dtype=float)
    return 0.5 - 0.5 * np.cos(beat * tau) * np.exp(-(tau * tau) / (2.0 * tau_c * tau_c))


def _strata(rng, lo: float, hi: float, k: int, spread: float = 1.0) -> np.ndarray:
    """k draws, one in each of k equal slices of [lo, hi], in seeded order.

    Each draw is uniform over the middle ``spread`` fraction of its slice.
    """
    offsets = 0.5 + spread * (rng.uniform(size=k) - 0.5)
    return rng.permutation(lo + (hi - lo) * (np.arange(k) + offsets) / k)


def _omega(l: int, tau_c: float, beat_tau_c: float) -> float:
    """Rotation rate giving ``2 l omega tau_c = beat_tau_c`` for charge l."""
    return float(beat_tau_c / (2.0 * l * tau_c))


def _hom(out: str, l: int, omega: float, tau_c_fs: int, points: int, svg: str | None = None,
         method: str = "closed", span_fs: int | None = None) -> Command:
    """A `hom` command; tau_c and the half span (default 3 tau_c) in whole femtoseconds."""
    tau_c, span = f"{tau_c_fs}e-15", f"{span_fs or 3 * tau_c_fs}e-15"
    argv = ["hom", "--l", str(l), "--omega", repr(omega), "--tau-c", tau_c,
            "--tau-span", span, "--points", str(points), "--method", method, "--out", out]
    if svg:
        argv += ["--svg", svg]
    expect = {"out": out, "svg": svg, "l": l, "omega": omega, "tau_c": float(tau_c),
              "tau_span": float(span), "points": points, "method": method}
    return Command("hom", tuple(argv), expect)


def _jsa(out: str, l: int, omega: float, grid: int, svg: str | None = None) -> Command:
    argv = ["jsa", "--rde-l", str(l), "--rde-omega", repr(omega), "--grid", str(grid),
            "--out", out]
    if svg:
        argv += ["--svg", svg]
    return Command("jsa", tuple(argv), {"out": out, "svg": svg, "l": l, "omega": omega,
                                        "grid": grid})


def _phasematch(out: str, cut_angle: float, points: int) -> Command:
    angle = f"{cut_angle:.2f}"
    argv = ("phasematch", "--cut-angle", angle, "--points", str(points), "--out", out)
    return Command("phasematch", argv, {"out": out, "points": points, "f_min": 330.0,
                                        "f_max": 410.0})


def _estimate(inp: str, out: str, beat: float, tol: float) -> Command:
    argv = ("estimate", "--input", inp, "--out", out)
    return Command("estimate", argv, {"out": out, "beat": beat, "tol": tol})


def cli_session(seed: int, tiny: bool = False) -> Spec:
    """The README reference session with seeded parameters."""
    rng = np.random.default_rng([seed, 0])
    grid, points, pm_points = (32, 101, 21) if tiny else (256, 601, 801)
    l_pipe, l_jsa, l_hom = (int(v) for v in rng.integers(1, 4, size=3))
    omega_pipe = float(rng.uniform(0.5e12, 3e12))
    omega_jsa = float(rng.uniform(0.5e12, 2e12))
    tau_c_fs = int(rng.integers(16, 31)) * 50
    omega_hom = _omega(l_hom, tau_c_fs * 1e-15, float(rng.uniform(6.0, 14.0)))
    hom = _hom("hom.csv", l_hom, omega_hom, tau_c_fs, points, svg="hom.svg")
    commands = (
        Command("pipeline", ("pipeline", "--l", str(l_pipe), "--omega", repr(omega_pipe)),
                {"l": l_pipe, "omega": omega_pipe}),
        _jsa("jsa.csv", l_jsa, omega_jsa, grid, svg="jsa.svg"),
        hom,
        _phasematch("phasematch.csv", float(rng.uniform(41.0, 48.0)), pm_points),
        _estimate("hom.csv", "estimate.json", 2.0 * l_hom * omega_hom, BEAT_TOL_EXACT),
    )
    return Spec("cli_session", seed, commands)


def _noisy_trace(rng, name: str, n: int, uniform: bool = True, widths: float = 3.0):
    """A seeded noisy beating dip on +-widths*tau_c; interior delays jittered unless uniform."""
    l = int(rng.integers(1, 4))
    tau_c = float(rng.uniform(0.8e-12, 1.5e-12))
    omega = _omega(l, tau_c, float(rng.uniform(6.0, 14.0)))
    span = widths * tau_c
    tau = np.linspace(-span, span, n)
    if not uniform:
        step = tau[1] - tau[0]
        tau[1:-1] += rng.uniform(-0.3, 0.3, size=n - 2) * step
    beat = 2.0 * l * omega
    p = dip(tau, tau_c, beat) + rng.normal(0.0, float(rng.uniform(0.002, 0.01)), size=n)
    return InputTrace(name, tau, p), beat


def analysis(seed: int, tiny: bool = False) -> Spec:
    """Numeric dips, phase-matching solves and noisy-trace fits in one interpreter.

    By latency the pass sorts into 4 fits, 5 phasematch runs and 3 numeric
    dips, so the median command is the middle phasematch run.  Its cost
    follows the cut angle, which is why the angles vary over only half of
    each slice of 41-48 deg.
    """
    rng = np.random.default_rng([seed, 1])
    n_numeric, n_pm, n_fit = (1, 1, 1) if tiny else (3, 5, 2)
    numeric_points, pm_points = (41, 21) if tiny else (601, 801)
    commands = []
    for i, (l, x) in enumerate(zip(rng.permutation([1, 2, 3])[:n_numeric],
                                   _strata(rng, 6.0, 14.0, n_numeric))):
        tau_c_fs = int(rng.integers(800, 1501))
        omega = _omega(int(l), tau_c_fs * 1e-15, float(x))
        commands.append(_hom(f"numeric_{i}.csv", int(l), omega, tau_c_fs, numeric_points,
                             method="numeric"))
    for i, angle in enumerate(_strata(rng, 41.0, 48.0, n_pm, spread=0.5)):
        commands.append(_phasematch(f"phasematch_{i}.csv", float(angle), pm_points))
    inputs = []
    sizes = [128] * n_fit if tiny else [int(v) for v in _strata(rng, 601, 1202, n_fit)]
    for uniform in (True, False):
        for n in rng.permutation(sizes):
            name = f"trace_{len(inputs)}"
            trace, beat = _noisy_trace(rng, f"{name}.csv", int(n), uniform)
            inputs.append(trace)
            commands.append(_estimate(trace.name, f"{name}.json", beat, BEAT_TOL_NOISY))
    order = rng.permutation(len(commands))
    return Spec("analysis", seed, tuple(commands[i] for i in order), tuple(inputs))


def bulk_io(seed: int, tiny: bool = False) -> Spec:
    """Large exports and large reads: CSV and SVG text dominate.

    Two equal-size trace exports sit in the middle of the pass by latency,
    so the median command is one of them rather than a boundary between two
    kinds.  Both large traces that are fitted stay inside the estimator's
    +-2.5 tau_c analysis window, so its FFT length is the trace length and
    cannot change with the seed; the exported ones span +-2.2 tau_c in steps
    of tau_c/40000.
    """
    rng = np.random.default_rng([seed, 2])
    big, mapped, points, noisy = (64, 32, 2001, 2000) if tiny else (1024, 384, 176001, 156250)
    l_big, l_map = (int(v) for v in rng.integers(1, 4, size=2))
    exports = []
    for name in ("hom_big", "hom_alt"):
        l = int(rng.integers(1, 4))
        tau_c_fs = int(rng.integers(8, 16)) * 100
        omega = _omega(l, tau_c_fs * 1e-15, float(rng.uniform(6.0, 14.0)))
        exports.append(_hom(f"{name}.csv", l, omega, tau_c_fs, points, svg=f"{name}.svg",
                            span_fs=tau_c_fs * 22 // 10))
    trace, beat = _noisy_trace(rng, "noisy_big.csv", noisy, widths=2.0)
    fitted = exports[0].expect
    commands = (
        _jsa("jsa_big.csv", l_big, float(rng.uniform(0.5e12, 2e12)), big),
        _jsa("jsa_map.csv", l_map, float(rng.uniform(0.5e12, 2e12)), mapped, svg="jsa_map.svg"),
        *exports,
        _estimate(fitted["out"], "estimate_big.json", 2.0 * fitted["l"] * fitted["omega"],
                  BEAT_TOL_EXACT),
        _estimate(trace.name, "estimate_noisy.json", beat, BEAT_TOL_NOISY),
    )
    return Spec("bulk_io", seed, commands, (trace,))


def build(workload: str, seed: int, tiny: bool = False) -> Spec:
    return {"cli_session": cli_session, "analysis": analysis, "bulk_io": bulk_io}[workload](
        seed, tiny
    )


def write_inputs(spec: Spec, workdir: str) -> None:
    """Write the spec's input traces as plain CSV with full-precision floats."""
    for trace in spec.inputs:
        np.savetxt(os.path.join(workdir, trace.name), np.column_stack([trace.tau, trace.p]),
                   fmt="%.17g", delimiter=",", header="tau_s,p", comments="")
