"""Command-line frontend: pipeline printing, data export and estimation.

Every command echoes its full effective parameter set into the output
metadata, so a file can be regenerated from its own header.  Angular
frequencies are rad/s everywhere except the ``phasematch`` command, which
speaks THz to match the emission-curve convention.

Exit codes: 0 success, 2 argument or validation error, 3 numerical
failure, 4 non-convergence (estimate only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .dataio import read_hom_trace, write_csv
from .hom_interference import HomConfig, QuadratureError, trace
from .hybrid_state import run_pipeline
from .joint_spectrum import PhaseMatchGaussian, PumpSpectrum, RdeShift, jsa_grid
from .phase_match import (
    BBO_EIMERL_1987,
    CrystalConfig,
    NoSolutionError,
    SellmeierSet,
    emission_curves,
    find_intersection,
    frequency_grid,
)
from .rotation_estimator import NoisyTrace, estimate
from . import svgplot

DEGENERATE_CENTER_RAD_S = 2.0 * math.pi * 370.44e12

# Built-in defaults shared across commands; a JSON config file may override
# any of them, and explicit flags override the file.
DEFAULTS = {
    "pipeline": {"l": 2, "omega": 1e12, "center": DEGENERATE_CENTER_RAD_S},
    "jsa": {
        "sigma": 1e12,
        "gamma": 0.1,
        "a_coef": None,  # None means 0.7 / (sigma * sqrt(2 * gamma))
        "rde_l": 0,
        "rde_omega": 0.0,
        "half_width": 6e12,
        "grid": 256,
        "out": "jsa.csv",
        "svg": None,
    },
    "hom": {
        "l": 2,
        "omega": 0.0,
        "tau_c": 1e-12,
        "points": 601,
        "tau_span": 3e-12,
        "method": "closed",
        "out": "hom.csv",
        "svg": None,
    },
    "phasematch": {
        "cut_angle": None,
        "pump_thz": 740.88,
        "f_min": 330.0,
        "f_max": 410.0,
        "points": 801,
        "out": "phasematch.csv",
        "svg": None,
    },
    "estimate": {"input": None, "out": None},
}
# phasematch also reads a custom dispersion set from the config file
_SELLMEIER_KEYS = {"sellmeier_ordinary", "sellmeier_extraordinary", "sellmeier_provenance"}
_INTEGER_KEYS = {"l", "rde_l", "grid", "points"}
_STRING_KEYS = {"out", "svg", "input", "method"}


def _preamble(command: str) -> dict:
    """The metadata keys every exported file opens with."""
    return {
        "tool": "hombeat",
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """Layer values: explicit flag > config file > built-in default."""
    config = _load_config(getattr(args, "config", None))
    allowed = set(DEFAULTS[command]) | (_SELLMEIER_KEYS if command == "phasematch" else set())
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(sorted(unknown))}")
    for key in set(config) - _SELLMEIER_KEYS:
        value = config[key]
        if value is None and DEFAULTS[command][key] is None:
            continue  # the built-in "not set"
        if key in _INTEGER_KEYS:
            kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
        elif key in _STRING_KEYS:
            kind, ok = "a string", isinstance(value, str)
        else:
            kind, ok = "a number", _is_number(value)
        if not ok:
            raise ValueError(f"config key {key} must be {kind}, got {value!r}")
    resolved = {}
    for key, default in DEFAULTS[command].items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    resolved["_config"] = config
    return resolved


def _sellmeier_from_config(config: dict) -> SellmeierSet:
    if not _SELLMEIER_KEYS & set(config):
        return BBO_EIMERL_1987
    coefficients = []
    for key in ("sellmeier_ordinary", "sellmeier_extraordinary"):
        value = config.get(key)
        if not (isinstance(value, list) and len(value) == 4 and all(map(_is_number, value))):
            raise ValueError(
                f"config key {key} must be a 4-element [a, b, c, d] array of Sellmeier "
                f"coefficients as JSON numbers, got {value!r}"
            )
        coefficients.append(tuple(float(v) for v in value))
    provenance = config.get("sellmeier_provenance", "user-supplied")
    if not isinstance(provenance, str):
        raise ValueError(f"config key sellmeier_provenance must be a string, got {provenance!r}")
    return SellmeierSet(*coefficients, provenance=provenance)


_STAGE_TITLES = (
    "stage 1: down-conversion source (polarization pair)",
    "stage 2: after quarter-wave plates (spin basis)",
    "stage 3: after rotating q-plate (spin, OAM, detuning)",
    "stage 4: after inverse plates and polarizers (OAM-frequency pair)",
)


def cmd_pipeline(args: argparse.Namespace) -> int:
    p = _resolve(args, "pipeline")
    l = int(p["l"])
    omega = float(p["omega"])
    center = float(p["center"])
    stages = run_pipeline(l, omega, center)
    print(f"# tool=hombeat version={__version__} command=pipeline")
    print(f"# l={l} omega_rot={p['omega']} center_frequency={p['center']}")
    for title, state in zip(_STAGE_TITLES, stages):
        print(f"\n== {title} ==")
        print(state.describe())
    return 0


def cmd_jsa(args: argparse.Namespace) -> int:
    p = _resolve(args, "jsa")
    n = int(p["grid"])
    if not 16 <= n <= 4096:
        raise ValueError(f"grid size must lie in [16, 4096], got {n}")
    sigma = float(p["sigma"])
    gamma = float(p["gamma"])
    a_coef = p["a_coef"]
    if a_coef is None:
        a_coef = 0.7 / (sigma * math.sqrt(2.0 * gamma))
    a_coef = float(a_coef)
    rde_l = int(p["rde_l"])
    if rde_l < 0:
        raise ValueError(f"rde-l must be >= 0, got {rde_l}")
    rde_omega = float(p["rde_omega"])
    pump = PumpSpectrum(center=DEGENERATE_CENTER_RAD_S, sigma=sigma)
    pm = PhaseMatchGaussian(gamma=gamma, a_coef=a_coef)
    shift = RdeShift(l=rde_l, omega_rot=rde_omega) if rde_l > 0 else None
    grid = jsa_grid(pump, pm, shift, float(p["half_width"]), n)

    nu1 = np.repeat(grid.axis1, n)
    nu2 = np.tile(grid.axis2, n)
    meta = {
        **_preamble("jsa"),
        "sigma_rad_s": sigma,
        "gamma": gamma,
        "a_coef": a_coef,
        "b_coef": -a_coef,
        "rde_l": rde_l,
        "rde_omega_rad_s": rde_omega,
        "half_width_rad_s": float(p["half_width"]),
        "grid": n,
    }
    write_csv(p["out"], {"nu1": nu1, "nu2": nu2, "amplitude": grid.values.ravel()}, meta)
    if p["svg"]:
        svgplot.heatmap(
            p["svg"],
            grid.axis1,
            grid.axis2,
            grid.values,
            title="joint spectral amplitude",
            xlabel="nu1 (rad/s)",
            ylabel="nu2 (rad/s)",
        )
    return 0


def cmd_hom(args: argparse.Namespace) -> int:
    p = _resolve(args, "hom")
    points = int(p["points"])
    if points < 2:
        raise ValueError("points must be at least 2")
    tau_span = float(p["tau_span"])
    if not tau_span > 0.0:
        raise ValueError("tau span must be positive")
    method = str(p["method"])
    cfg = HomConfig(
        tau_c=float(p["tau_c"]),
        l=int(p["l"]),
        omega_rot=float(p["omega"]),
        tau_grid=tuple(np.linspace(-tau_span, tau_span, points)),
    )
    result = trace(cfg, method=method)
    meta = {
        **_preamble("hom"),
        "tau_c": cfg.tau_c,
        "l": cfg.l,
        "omega_rot": cfg.omega_rot,
        "method": method,
        "points": points,
        "tau_span": tau_span,
        "window_exceeded": result.window_exceeded,
    }
    write_csv(p["out"], {"tau_s": result.tau, "p": result.p}, meta)
    if p["svg"]:
        svgplot.line_plot(
            p["svg"],
            [("coincidence", result.tau, result.p)],
            title="coincidence versus delay",
            xlabel="delay (s)",
            ylabel="P",
        )
    return 0


def cmd_phasematch(args: argparse.Namespace) -> int:
    p = _resolve(args, "phasematch")
    if p["cut_angle"] is None:
        raise ValueError("--cut-angle is required (degrees, strictly between 0 and 90)")
    sellmeier = _sellmeier_from_config(p["_config"])
    cfg = CrystalConfig(
        cut_angle_deg=float(p["cut_angle"]),
        pump_frequency_thz=float(p["pump_thz"]),
        sellmeier=sellmeier,
    )
    f_min, f_max = float(p["f_min"]), float(p["f_max"])
    points = int(p["points"])
    o_curve, e_curve = emission_curves(cfg, (f_min, f_max), points)
    crossing = find_intersection(o_curve, e_curve)

    freqs = np.array(frequency_grid(f_min, f_max, points))
    # one column per ray, NaN (an empty cell, a gap in the plot) where unsolved
    angle_o, angle_e = np.full((2, points), np.nan)
    for angles, curve in ((angle_o, o_curve), (angle_e, e_curve)):
        f, a = np.array(curve.samples, dtype=float).reshape(-1, 2).T
        angles[np.searchsorted(freqs, f)] = a
    meta = {
        **_preamble("phasematch"),
        "cut_angle_deg": cfg.cut_angle_deg,
        "pump_thz": cfg.pump_frequency_thz,
        "f_min_thz": f_min,
        "f_max_thz": f_max,
        "points": points,
        "sellmeier": sellmeier.provenance,
        "unsolved_o": o_curve.n_unsolved,
        "unsolved_e": e_curve.n_unsolved,
    }
    if crossing.exists:
        meta["intersection_thz"] = crossing.frequency_thz
        meta["intersection_angle_deg"] = crossing.outside_angle_deg
        meta["intersection_residual_deg"] = crossing.residual_deg
    else:
        meta["intersection"] = "none"
    write_csv(
        p["out"],
        {"freq_thz": freqs, "angle_o_deg": angle_o, "angle_e_deg": angle_e},
        meta,
    )
    if p["svg"]:
        svgplot.line_plot(
            p["svg"],
            [("ordinary", freqs, angle_o), ("extraordinary", freqs, angle_e)],
            title=f"emission angles, cut {cfg.cut_angle_deg} deg",
            xlabel="signal frequency (THz)",
            ylabel="outside angle (deg)",
        )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    p = _resolve(args, "estimate")
    if p["input"] is None:
        raise ValueError("--input trace CSV is required")
    try:
        _, tau, prob = read_hom_trace(p["input"])
    except FileNotFoundError as exc:
        # a missing input is a usage error (exit 2), not an i/o failure (exit 3)
        raise ValueError(f"input file not found: {p['input']}") from exc
    result = estimate(NoisyTrace(tau=tau, p=prob))
    document = {
        "tool": "hombeat",
        "version": __version__,
        "input": str(p["input"]),
        "beat_rad_per_s": result.beat,
        "tau_c_s": result.tau_c_hat,
        "visibility": result.visibility_hat,
        "rms_residual": result.rms_residual,
        "converged": result.converged,
        "iterations": result.iterations,
        "below_resolution": result.below_resolution,
    }
    text = json.dumps(document, indent=2)
    if p["out"]:
        with open(p["out"], "w", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if result.converged else 4


def _add_config_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--config",
        metavar="JSON",
        help="JSON file presetting any flag of this command; explicit flags win",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hombeat",
        description=(
            "Two-photon frequency-entanglement toolkit: state pipeline, joint "
            "spectra, coincidence dips, crystal phase matching and beat estimation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hombeat {__version__}")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("pipeline", help="print the four pipeline states")
    sp.add_argument("--l", type=int, help="q-plate topological charge (integer >= 0)")
    sp.add_argument("--omega", type=float, help="plate rotation rate, rad/s")
    sp.add_argument("--center", type=float, help="degenerate center frequency, rad/s")
    _add_config_flag(sp)
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("jsa", help="export the joint spectral amplitude grid")
    sp.add_argument("--sigma", type=float, help="pump spectral width, rad/s")
    sp.add_argument("--gamma", type=float, help="phase-matching Gaussian coefficient")
    sp.add_argument("--a-coef", dest="a_coef", type=float,
                    help="phase-matching linear coefficient A, s/rad (B = -A); "
                         "default 0.7/(sigma*sqrt(2*gamma))")
    sp.add_argument("--rde-l", dest="rde_l", type=int, help="OAM charge of the rotating plate")
    sp.add_argument("--rde-omega", dest="rde_omega", type=float, help="plate rotation rate, rad/s")
    sp.add_argument("--half-width", dest="half_width", type=float, help="grid half width, rad/s")
    sp.add_argument("--grid", type=int, help="grid points per axis, in [16, 4096]")
    sp.add_argument("--out", help="output CSV path")
    sp.add_argument("--svg", help="optional SVG heatmap path")
    _add_config_flag(sp)
    sp.set_defaults(func=cmd_jsa)

    sp = sub.add_parser("hom", help="export a coincidence trace")
    sp.add_argument("--l", type=int, help="q-plate topological charge (integer >= 0)")
    sp.add_argument("--omega", type=float, help="plate rotation rate, rad/s")
    sp.add_argument("--tau-c", dest="tau_c", type=float, help="envelope time, s")
    sp.add_argument("--points", type=int, help="number of delay samples")
    sp.add_argument("--tau-span", dest="tau_span", type=float,
                    help="half span of the delay scan, s (grid covers [-span, +span])")
    sp.add_argument("--method", choices=["closed", "numeric"],
                    help="closed form or quadrature of the overlap integral")
    sp.add_argument("--out", help="output CSV path")
    sp.add_argument("--svg", help="optional SVG line plot path")
    _add_config_flag(sp)
    sp.set_defaults(func=cmd_hom)

    sp = sub.add_parser("phasematch", help="export crystal emission curves (THz axis)")
    sp.add_argument("--cut-angle", dest="cut_angle", type=float,
                    help="optic-axis cut angle, degrees, strictly between 0 and 90")
    sp.add_argument("--pump-thz", dest="pump_thz", type=float, help="pump frequency, THz")
    sp.add_argument("--f-min", dest="f_min", type=float, help="lowest signal frequency, THz")
    sp.add_argument("--f-max", dest="f_max", type=float, help="highest signal frequency, THz")
    sp.add_argument("--points", type=int, help="number of frequency samples")
    sp.add_argument("--out", help="output CSV path")
    sp.add_argument("--svg", help="optional SVG line plot path")
    _add_config_flag(sp)
    sp.set_defaults(func=cmd_phasematch)

    sp = sub.add_parser("estimate", help="fit beat, envelope time and visibility to a trace CSV")
    sp.add_argument("--input", help="trace CSV with tau_s and p columns")
    sp.add_argument("--out", help="result JSON path (default: standard output)")
    _add_config_flag(sp)
    sp.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, NoSolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
