"""Command-line frontend: pipeline printing, data export and estimation.

Every command echoes its full effective parameter set into the output
metadata, so a file can be regenerated from its own header.  Angular
frequencies are rad/s everywhere except the ``phasematch`` command, which
speaks THz to match the emission-curve convention.

Exit codes: 0 success, 2 argument or validation error, 3 numerical or i/o
failure (2 and 3 leave no output they created), 4 non-convergence (estimate).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import NoSolutionError, QuadratureError

# What the commands take from other modules, as "module:attribute" (a bare
# module is bound whole).  Each command binds the names of the modules it runs
# when it starts, and reading one as an attribute of this module binds it too
# (PEP 562), so a process imports only what its command runs.  A name already
# bound here, such as a wrapper set from outside, wins.
_LAZY = {
    "np": "numpy",
    "svgplot": ".svgplot",
    "read_hom_trace": ".dataio:read_hom_trace",
    "write_csv": ".dataio:write_csv",
    "HomConfig": ".hom_interference:HomConfig",
    "trace": ".hom_interference:trace",
    "run_pipeline": ".hybrid_state:run_pipeline",
    "PhaseMatchGaussian": ".joint_spectrum:PhaseMatchGaussian",
    "PumpSpectrum": ".joint_spectrum:PumpSpectrum",
    "RdeShift": ".joint_spectrum:RdeShift",
    "jsa_grid": ".joint_spectrum:jsa_grid",
    "BBO_EIMERL_1987": ".phase_match:BBO_EIMERL_1987",
    "CrystalConfig": ".phase_match:CrystalConfig",
    "SellmeierSet": ".phase_match:SellmeierSet",
    "emission_curves": ".phase_match:emission_curves",
    "find_intersection": ".phase_match:find_intersection",
    "NoisyTrace": ".rotation_estimator:NoisyTrace",
    "estimate": ".rotation_estimator:estimate",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attribute = _LAZY[name].partition(":")
    value = importlib.import_module(module, __package__)
    globals()[name] = getattr(value, attribute) if attribute else value
    return globals()[name]


def _bind(*modules: str) -> None:
    """Bind every name taken from ``modules`` that is not bound yet."""
    for name, target in _LAZY.items():
        if target.partition(":")[0] in modules and name not in globals():
            __getattr__(name)


DEGENERATE_CENTER_RAD_S = 2.0 * math.pi * 370.44e12

# phasematch also reads a custom dispersion set from the config file
_SELLMEIER_KEYS = {"sellmeier_ordinary", "sellmeier_extraordinary", "sellmeier_provenance"}
# the row count of the largest CSV that jsa writes (a 4096 x 4096 grid)
MAX_POINTS = 4096 * 4096
# the JSON types a config value of each row type may have; a tuple of choices is a string
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


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
        with open(path, encoding="utf-8") as fh:
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


def _typed(key: str, kind, value):
    """``value`` converted to its row's type, which a config value's JSON type must match."""
    json_type, name = _JSON_TYPES.get(kind, _JSON_TYPES[str])
    if isinstance(value, bool) or not isinstance(value, json_type):
        raise ValueError(f"config key {key} must be {name}, got {value!r}")
    if isinstance(value, str):
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number within the float range")
    return number if kind is float else value


def _resolve(args: argparse.Namespace) -> dict:
    """Layer values: explicit flag > config file > built-in default."""
    rows = COMMANDS[args.command][2]
    config = _load_config(args.config)
    extra = _SELLMEIER_KEYS if args.command == "phasematch" else set()
    unknown = set(config) - {row[0] for row in rows} - extra
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {', '.join(sorted(unknown))}")
    resolved = {"_config": config}
    for key, kind, default, _ in rows:
        value = config.get(key, default)
        if value is not None or default is not None:  # null is accepted where the default is unset
            value = _typed(key, kind, value)  # a config value is checked even where a flag wins
        flag = getattr(args, key)
        resolved[key] = value if flag is None else _typed(key, kind, flag)
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
        coefficients.append(tuple(_typed(key, float, v) for v in value))
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


def _count(p: dict, key: str, lo: int, hi: int) -> int:
    """A sample count, checked before anything is allocated per sample."""
    if not lo <= p[key] <= hi:
        raise ValueError(f"{key} must lie in [{lo}, {hi}], got {p[key]}")
    return p[key]


def cmd_pipeline(p: dict) -> int:
    _bind(".hybrid_state")
    stages = run_pipeline(p["l"], p["omega"], p["center"])
    print(f"# tool=hombeat version={__version__} command=pipeline")
    print(f"# l={p['l']} omega_rot={p['omega']} center_frequency={p['center']}")
    for title, state in zip(_STAGE_TITLES, stages):
        print(f"\n== {title} ==")
        print(state.describe())
    return 0


def cmd_jsa(p: dict) -> int:
    _bind("numpy", ".joint_spectrum", ".dataio")
    n = _count(p, "grid", 16, 4096)
    sigma, gamma, a_coef, rde_l = p["sigma"], p["gamma"], p["a_coef"], p["rde_l"]
    if rde_l < 0:
        raise ValueError(f"rde-l must be >= 0, got {rde_l}")
    pump = PumpSpectrum(center=DEGENERATE_CENTER_RAD_S, sigma=sigma)  # checks sigma first
    if a_coef is None:
        width = sigma * math.sqrt(2.0 * gamma) if gamma > 0.0 else 0.0
        # PhaseMatchGaussian rejects the gamma, or the infinite A of a width that underflows
        a_coef = 0.7 / width if width > 0.0 else math.inf
    pm = PhaseMatchGaussian(gamma=gamma, a_coef=a_coef)
    shift = RdeShift(l=rde_l, omega_rot=p["rde_omega"]) if rde_l > 0 else None
    grid = jsa_grid(pump, pm, shift, p["half_width"], n)

    nu1 = np.broadcast_to(grid.axis1[:, None], (n, n))
    nu2 = np.broadcast_to(grid.axis2, (n, n))
    meta = {
        **_preamble("jsa"),
        "sigma_rad_s": sigma,
        "gamma": gamma,
        "a_coef": a_coef,
        "b_coef": -a_coef,
        "rde_l": rde_l,
        "rde_omega_rad_s": p["rde_omega"],
        "half_width_rad_s": p["half_width"],
        "grid": n,
    }
    write_csv(p["out"], {"nu1": nu1, "nu2": nu2, "amplitude": grid.values}, meta)
    if p["svg"]:
        _bind(".svgplot")
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


def cmd_hom(p: dict) -> int:
    _bind("numpy", ".hom_interference", ".dataio")
    points = _count(p, "points", 2, MAX_POINTS)
    tau_span = p["tau_span"]
    if not tau_span > 0.0:
        raise ValueError("tau span must be positive")
    if not 2.0 * tau_span < sys.float_info.max:  # else linspace overflows on the span
        raise ValueError("tau span must be below half the float range")
    cfg = HomConfig(
        tau_c=p["tau_c"],
        l=p["l"],
        omega_rot=p["omega"],
        tau_grid=np.linspace(-tau_span, tau_span, points),
    )
    result = trace(cfg, method=p["method"])
    meta = {
        **_preamble("hom"),
        "tau_c": cfg.tau_c,
        "l": cfg.l,
        "omega_rot": cfg.omega_rot,
        "method": p["method"],
        "points": points,
        "tau_span": tau_span,
        "window_exceeded": result.window_exceeded,
    }
    write_csv(p["out"], {"tau_s": result.tau, "p": result.p}, meta)
    if p["svg"]:
        _bind(".svgplot")
        svgplot.line_plot(
            p["svg"],
            [("coincidence", result.tau, result.p)],
            title="coincidence versus delay",
            xlabel="delay (s)",
            ylabel="P",
        )
    return 0


def cmd_phasematch(p: dict) -> int:
    _bind(".phase_match", ".dataio")
    if p["cut_angle"] is None:
        raise ValueError("--cut-angle is required (degrees, strictly between 0 and 90)")
    sellmeier = _sellmeier_from_config(p["_config"])
    cfg = CrystalConfig(
        cut_angle_deg=p["cut_angle"],
        pump_frequency_thz=p["pump_thz"],
        sellmeier=sellmeier,
    )
    f_min, f_max, points = p["f_min"], p["f_max"], _count(p, "points", 2, MAX_POINTS)
    o_curve, e_curve = emission_curves(cfg, (f_min, f_max), points)
    crossing = find_intersection(o_curve, e_curve)
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
    # one column per ray, NaN (an empty cell, a gap in the plot) where unsolved
    freqs, angle_o, angle_e = o_curve.freqs, o_curve.angles, e_curve.angles
    write_csv(p["out"], {"freq_thz": freqs, "angle_o_deg": angle_o, "angle_e_deg": angle_e}, meta)
    if p["svg"]:
        _bind(".svgplot")
        svgplot.line_plot(
            p["svg"],
            [("ordinary", freqs, angle_o), ("extraordinary", freqs, angle_e)],
            title=f"emission angles, cut {cfg.cut_angle_deg} deg",
            xlabel="signal frequency (THz)",
            ylabel="outside angle (deg)",
        )
    return 0


def cmd_estimate(p: dict) -> int:
    _bind(".rotation_estimator", ".dataio")
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
        "input": p["input"],
        "beat_rad_per_s": result.beat,
        "tau_c_s": result.tau_c_hat,
        "visibility": result.visibility_hat,
        "rms_residual": result.rms_residual,
        "converged": result.converged,
        "iterations": result.iterations,
        "below_resolution": result.below_resolution,
    }
    # strict JSON: a non-finite number (an overflowing residual, say) is written as null
    for key, value in document.items():
        if isinstance(value, float) and not math.isfinite(value):
            document[key] = None
    text = json.dumps(document, indent=2, allow_nan=False)
    if p["out"]:
        with open(p["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if result.converged else 4


# Every command with its function, its help and one row per parameter:
# (key, type, default, help).  The flag is --key with "-" for "_", a config
# file key takes its flag's JSON type, a tuple type lists the accepted
# strings, and a None default means "not set".
COMMANDS = {
    "pipeline": (cmd_pipeline, "print the four pipeline states", (
        ("l", int, 2, "q-plate topological charge (integer >= 0)"),
        ("omega", float, 1e12, "plate rotation rate, rad/s"),
        ("center", float, DEGENERATE_CENTER_RAD_S, "degenerate center frequency, rad/s"),
    )),
    "jsa": (cmd_jsa, "export the joint spectral amplitude grid", (
        ("sigma", float, 1e12, "pump spectral width, rad/s"),
        ("gamma", float, 0.1, "phase-matching Gaussian coefficient"),
        ("a_coef", float, None, "phase-matching linear coefficient A, s/rad (B = -A); "
                                "default 0.7/(sigma*sqrt(2*gamma))"),
        ("rde_l", int, 0, "OAM charge of the rotating plate"),
        ("rde_omega", float, 0.0, "plate rotation rate, rad/s"),
        ("half_width", float, 6e12, "grid half width, rad/s"),
        ("grid", int, 256, "grid points per axis, in [16, 4096]"),
        ("out", str, "jsa.csv", "output CSV path"),
        ("svg", str, None, "optional SVG heatmap path"),
    )),
    "hom": (cmd_hom, "export a coincidence trace", (
        ("l", int, 2, "q-plate topological charge (integer >= 0)"),
        ("omega", float, 0.0, "plate rotation rate, rad/s"),
        ("tau_c", float, 1e-12, "envelope time, s"),
        ("points", int, 601, "number of delay samples"),
        ("tau_span", float, 3e-12,
         "half span of the delay scan, s (grid covers [-span, +span])"),
        ("method", ("closed", "numeric"), "closed",
         "closed form or the joint spectrum's exchange-overlap sum"),
        ("out", str, "hom.csv", "output CSV path"),
        ("svg", str, None, "optional SVG line plot path"),
    )),
    "phasematch": (cmd_phasematch, "export crystal emission curves (THz axis)", (
        ("cut_angle", float, None, "optic-axis cut angle, degrees, strictly between 0 and 90"),
        ("pump_thz", float, 740.88, "pump frequency, THz"),
        ("f_min", float, 330.0, "lowest signal frequency, THz"),
        ("f_max", float, 410.0, "highest signal frequency, THz"),
        ("points", int, 801, "number of frequency samples"),
        ("out", str, "phasematch.csv", "output CSV path"),
        ("svg", str, None, "optional SVG line plot path"),
    )),
    "estimate": (cmd_estimate, "fit beat, envelope time and visibility to a trace CSV", (
        ("input", str, None, "trace CSV with tau_s and p columns"),
        ("out", str, None, "result JSON path (default: standard output)"),
    )),
}


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """argparse, except that a negative number after a flag is that flag's value.

    argparse takes only plain decimals such as -5 or -0.5 for negative numbers,
    so it reads ``--omega -1e12`` (or ``-inf``) as a flag with no value.  Each
    ``--flag -number`` pair is read as ``--flag=-number``, unless the flag is
    (an abbreviation of) --help or --version, which take no value.
    """

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            flag = joined[-1] if joined else ""
            if (flag.startswith("--") and "=" not in flag and token.startswith("-")
                    and not any(bare.startswith(flag) for bare in ("--help", "--version"))
                    and _parses_as_float(token)):
                joined[-1] = f"{flag}={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


@functools.cache  # parse_args keeps no state, so one parser serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hombeat",
        description=(
            "Two-photon frequency-entanglement toolkit: state pipeline, joint "
            "spectra, coincidence dips, crystal phase matching and beat estimation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hombeat {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command, (_, command_help, rows) in COMMANDS.items():
        sp = sub.add_parser(command, help=command_help)
        for key, kind, _, help_text in rows:
            choices = kind if isinstance(kind, tuple) else None
            sp.add_argument("--" + key.replace("_", "-"), type=None if choices else kind,
                            choices=choices, help=help_text)
        sp.add_argument(
            "--config",
            metavar="JSON",
            help="JSON file presetting any flag of this command; explicit flags win",
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    created = []
    try:
        p = _resolve(args)
        created = [p[key] for key in ("out", "svg") if p.get(key) and not os.path.lexists(p[key])]
        return COMMANDS[args.command][0](p)
    except ValueError as exc:
        message, code = f"error: {exc}", 2
    except (QuadratureError, NoSolutionError) as exc:
        message, code = f"numerical failure: {exc}", 3
    except OSError as exc:
        message, code = f"i/o failure: {exc}", 3
    print(message, file=sys.stderr)
    for path in filter(os.path.lexists, created):  # a failed run leaves no output it created
        os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
