"""Output checks for each hombeat command, against independent numpy references.

No check calls hombeat: the references are the closed-form dip, the
Gaussian joint amplitude and the rotational Doppler shift written out again
here.  ``check`` returns a list of failure messages (empty when the output
is correct) and a dict of observations the traced run reports.
"""

from __future__ import annotations

import json
import math
import os
import xml.parsers.expat

import numpy as np

from workloads import dip

# half a unit in the 12th significant digit: the CSV number format
RTOL_12 = 5.0001e-12
# numpy and libm cos/exp may differ by an ulp; near p = 0 that is absolute
ATOL_LIBM = 1e-15
# hom_interference's documented contract for the quadrature route
NUMERIC_TOL = 1e-6

# jsa defaults: pump width, phase-matching coefficient and grid half width
JSA_SIGMA = 1e12
JSA_GAMMA = 0.1
JSA_HALF_WIDTH = 6e12


def _cell(text: str) -> float:
    return float(text) if text.strip() else math.nan


def read_table(path: str, empty_cells: bool = False):
    """Metadata, column names and rows of a ``# key=value`` headed CSV.

    With ``empty_cells`` an empty cell reads as NaN (slower, for small files).
    """
    meta = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        names = line.strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2, converters=_cell if empty_cells else None)
    return meta, names, data


def _close(name: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want) - (rtol * np.abs(want) + atol)
    if np.isnan(got).any() or (err > 0.0).any():
        worst = int(np.nanargmax(np.where(np.isnan(got), np.inf, err)))
        return [f"{name}[{worst}] = {got[worst]!r}, expected {want[worst]!r}"]
    return []


def check_svg(path: str) -> list[str]:
    parser = xml.parsers.expat.ParserCreate()
    roots = []
    parser.StartElementHandler = lambda tag, attrs: roots.append(tag) if not roots else None
    with open(path, "rb") as fh:
        parser.Parse(fh.read(), True)
    return [] if roots == ["svg"] else [f"{path}: root element is {roots}, not svg"]


def _columns(path: str, names: list[str], rows: int, empty_cells: bool = False):
    meta, got, data = read_table(path, empty_cells)
    if got != names:
        raise ValueError(f"{path}: columns {got}, expected {names}")
    if data.shape != (rows, len(names)):
        raise ValueError(f"{path}: {data.shape[0]} rows, expected {rows}")
    return meta, data.T


def check_hom(e: dict, workdir: str, stdout: str) -> tuple[list[str], dict]:
    _, (tau, p) = _columns(os.path.join(workdir, e["out"]), ["tau_s", "p"], e["points"])
    exact = np.linspace(-e["tau_span"], e["tau_span"], e["points"])
    ref = dip(exact, e["tau_c"], 2.0 * e["l"] * e["omega"])
    failures = _close("tau_s", tau, exact, RTOL_12)
    if e["method"] == "closed":
        failures += _close("p", p, ref, RTOL_12, ATOL_LIBM)
    else:
        failures += _close("p", p, ref, 0.0, NUMERIC_TOL)
    if e["svg"]:
        failures += check_svg(os.path.join(workdir, e["svg"]))
    return failures, {}


def jsa_reference(axis: np.ndarray, l: int, omega: float) -> np.ndarray:
    """Peak-normalized |JSA|: pump envelope times the larger of the two shifted branches."""
    a = 0.7 / (JSA_SIGMA * math.sqrt(2.0 * JSA_GAMMA))
    nu1, nu2 = axis[:, None], axis[None, :]
    shift = l * omega
    branches = [np.exp(-JSA_GAMMA * (a * ((nu1 + s) - (nu2 - s))) ** 2) for s in (shift, -shift)]
    values = np.maximum(*branches) * np.exp(-((nu1 + nu2) ** 2) / (2.0 * JSA_SIGMA**2))
    return values / values.max()


def check_jsa(e: dict, workdir: str, stdout: str) -> tuple[list[str], dict]:
    n = e["grid"]
    _, (nu1, nu2, amp) = _columns(os.path.join(workdir, e["out"]), ["nu1", "nu2", "amplitude"],
                                  n * n)
    axis = np.linspace(-JSA_HALF_WIDTH, JSA_HALF_WIDTH, n)
    failures = _close("nu1", nu1, np.repeat(axis, n), RTOL_12)
    failures += _close("nu2", nu2, np.tile(axis, n), RTOL_12)
    if amp.max() != 1.0:
        failures.append(f"amplitude peak is {amp.max()!r}, not 1")
    failures += _close("amplitude", amp, jsa_reference(axis, e["l"], e["omega"]).ravel(),
                       1e-10, 1e-12)
    if e["svg"]:
        failures += check_svg(os.path.join(workdir, e["svg"]))
    return failures, {}


def check_phasematch(e: dict, workdir: str, stdout: str) -> tuple[list[str], dict]:
    n = e["points"]
    meta, (freq, angle_o, angle_e) = _columns(
        os.path.join(workdir, e["out"]), ["freq_thz", "angle_o_deg", "angle_e_deg"], n, True
    )
    step = (e["f_max"] - e["f_min"]) / (n - 1)
    grid = e["f_min"] + step * np.arange(n)
    # emission angles vary smoothly with frequency: fourth differences scale
    # as step**4, above a floor set by the solver's 1e-10 rad tolerance
    smooth_tol = 1e-6 + 1e-4 * step**4
    failures = _close("freq_thz", freq, grid, RTOL_12)
    for ray, angles in (("o", angle_o), ("e", angle_e)):
        missing = int(np.isnan(angles).sum())
        if str(missing) != meta.get(f"unsolved_{ray}"):
            failures.append(f"{missing} empty {ray} cells, header disagrees")
        present = angles[~np.isnan(angles)]
        if ((present < 0.0) | (present >= 90.0)).any():
            failures.append(f"{ray} outside angle outside [0, 90) deg")
        bumps = np.abs(np.diff(angles, 4))
        bumps = bumps[~np.isnan(bumps)]
        if bumps.size and bumps.max() > smooth_tol:
            failures.append(f"{ray} curve not smooth: fourth difference {bumps.max():.3g} deg")
    if "intersection_thz" in meta:
        if not e["f_min"] <= float(meta["intersection_thz"]) <= e["f_max"]:
            failures.append(f"intersection {meta['intersection_thz']} THz outside the scan")
    elif meta.get("intersection") != "none":
        failures.append("header reports no intersection result")
    return failures, {}


def check_estimate(e: dict, workdir: str, stdout: str) -> tuple[list[str], dict]:
    with open(os.path.join(workdir, e["out"])) as fh:
        result = json.load(fh)
    failures = []
    if result["converged"] is not True:
        failures.append("estimate did not converge")
    rel_err = abs(result["beat_rad_per_s"] - e["beat"]) / e["beat"]
    if not rel_err <= e["tol"]:
        failures.append(f"beat {result['beat_rad_per_s']!r} is {rel_err:.3g} off {e['beat']!r}")
    return failures, {"beat_rel_err": rel_err}


def check_pipeline(e: dict, workdir: str, stdout: str) -> tuple[list[str], dict]:
    """Four stages; the output pair carries OAM +-l at detunings +-l*omega."""
    stages = stdout.split("\n== ")[1:]
    if len(stages) != 4:
        return [f"{len(stages)} pipeline stages printed, expected 4"], {}
    tag = e["l"] * e["omega"]
    pair = f"|l=+{e['l']}, nu={tag:+.6g}> |l=-{e['l']}, nu={-tag:+.6g}>"
    terms = [line for line in stages[3].splitlines()[1:] if line.strip()]
    if len(terms) != 2 or not any(line.endswith(pair) for line in terms):
        return [f"output stage lacks the pair {pair}"], {}
    return [], {}


CHECKS = {
    "hom": check_hom,
    "jsa": check_jsa,
    "phasematch": check_phasematch,
    "estimate": check_estimate,
    "pipeline": check_pipeline,
}


def check(command, workdir: str, stdout: str) -> tuple[list[str], dict]:
    """Check one command's outputs; a missing or unreadable output is a failure."""
    try:
        return CHECKS[command.kind](command.expect, workdir, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            xml.parsers.expat.ExpatError) as exc:
        return [f"{command.kind}: {type(exc).__name__}: {exc}"], {}
