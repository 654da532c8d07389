import argparse
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hombeat
from hombeat import cli
from hombeat.cli import _build_parser, main
from hombeat.dataio import read_csv, write_csv
from hombeat.hom_interference import coincidence_rde


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_prints_stages(capsys):
    assert run(["pipeline", "--l", "2", "--omega", "1e12"]) == 0
    out = capsys.readouterr().out
    assert "stage 4" in out
    assert "nu=+2e+12" in out
    assert "nu=-2e+12" in out


_PIPELINE_HEAD = """\
# tool=hombeat version=0.1.0 command=pipeline
# l={l} omega_rot={omega} center_frequency=2327543165191606.0

== stage 1: down-conversion source (polarization pair) ==
+0.70710678 |H, l=+0, nu=+0> |V, l=+0, nu=+0>
+0.70710678 |V, l=+0, nu=+0> |H, l=+0, nu=+0>

== stage 2: after quarter-wave plates (spin basis) ==
+0.70710678 |s+, l=+0, nu=+0> |s-, l=+0, nu=+0>
+0.70710678 |s-, l=+0, nu=+0> |s+, l=+0, nu=+0>
"""


def test_pipeline_stdout_is_pinned(capsys):
    # the complete text, so a rewrite of the state algebra cannot move one byte of it
    assert run(["pipeline", "--l", "2", "--omega", "1e12"]) == 0
    assert capsys.readouterr().out == _PIPELINE_HEAD.format(l=2, omega=1e12) + """\

== stage 3: after rotating q-plate (spin, OAM, detuning) ==
+0.70710678 |s-, l=+2, nu=+2e+12> |s+, l=-2, nu=-2e+12>
+0.70710678 |s+, l=-2, nu=-2e+12> |s-, l=+2, nu=+2e+12>

== stage 4: after inverse plates and polarizers (OAM-frequency pair) ==
+0.70710678 |l=+2, nu=+2e+12> |l=-2, nu=-2e+12>
+0.70710678 |l=-2, nu=-2e+12> |l=+2, nu=+2e+12>
"""
    # with no charge the two branches land on one label pair and merge into one term
    assert run(["pipeline", "--l", "0", "--omega", "0"]) == 0
    assert capsys.readouterr().out == _PIPELINE_HEAD.format(l=0, omega=0.0) + """\

== stage 3: after rotating q-plate (spin, OAM, detuning) ==
+0.70710678 |s-, l=+0, nu=+0> |s+, l=+0, nu=+0>
+0.70710678 |s+, l=+0, nu=+0> |s-, l=+0, nu=+0>

== stage 4: after inverse plates and polarizers (OAM-frequency pair) ==
+1.00000000 |l=+0, nu=+0> |l=+0, nu=+0>
"""


def test_pipeline_degenerate(capsys):
    assert run(["pipeline", "--l", "0", "--omega", "0"]) == 0
    out = capsys.readouterr().out
    assert "nu=+0" in out


def test_pipeline_rejects_negative_charge(capsys):
    assert run(["pipeline", "--l", "-1", "--omega", "1e12"]) == 2


def test_pipeline_takes_a_negative_omega_in_exponent_notation(capsys):
    assert run(["pipeline", "--l", "2", "--omega", "-1e12"]) == 0
    spaced = capsys.readouterr()
    assert run(["pipeline", "--l", "2", "--omega=-1e12"]) == 0
    assert capsys.readouterr() == spaced
    assert spaced.err == "" and "omega_rot=-1000000000000.0" in spaced.out


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_no_command_exits_2(capsys):
    assert run([]) == 2


# ---------------------------------------------------------------------------
# jsa


def test_jsa_default_grid(tmp_path):
    out = tmp_path / "jsa.csv"
    assert run(["jsa", "--grid", "64", "--out", str(out)]) == 0
    meta, columns = read_csv(out)
    assert meta["command"] == "jsa"
    assert len(columns["amplitude"]) == 64 * 64
    assert columns["amplitude"].max() == pytest.approx(1.0, abs=1e-12)


def test_jsa_shifted_grid_and_svg(tmp_path):
    out = tmp_path / "jsa.csv"
    svg = tmp_path / "jsa.svg"
    code = run(
        ["jsa", "--grid", "64", "--rde-l", "2", "--rde-omega", "2e12",
         "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    assert svg.exists()
    assert "<svg" in svg.read_text()
    meta, _ = read_csv(out)
    assert meta["rde_l"] == "2"


def test_jsa_export_memory_stays_near_the_grid_itself(tmp_path):
    # the 1024 x 1024 amplitude is 8.4 MB; the axes go to write_csv as views, so
    # only a block of their rows is ever copied (whole copies would add 16.8 MB)
    argv = ["jsa", "--rde-l", "2", "--rde-omega", "1.3e12", "--out", str(tmp_path / "jsa.csv")]
    assert run([*argv, "--grid", "16"]) == 0  # the lazy imports, outside the trace
    tracemalloc.start()
    try:
        assert run([*argv, "--grid", "1024"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= 14.0


def test_jsa_rejects_tiny_grid(tmp_path):
    assert run(["jsa", "--grid", "8", "--out", str(tmp_path / "x.csv")]) == 2


def test_jsa_rejects_negative_charge(tmp_path):
    assert run(["jsa", "--rde-l", "-2", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "flag,value",
    [("--gamma", "inf"), ("--a-coef", "inf"), ("--a-coef", "nan"), ("--half-width", "inf"),
     ("--sigma", "inf")],
)
def test_jsa_rejects_non_finite_parameters(tmp_path, flag, value):
    out = tmp_path / "x.csv"
    assert run(["jsa", flag, value, "--grid", "16", "--out", str(out)]) == 2
    assert not out.exists()


def test_jsa_rejects_underflowing_pump_width(tmp_path):
    # sigma**2 underflows to 0, so the pump envelope is 0/0 on the antidiagonal
    out = tmp_path / "x.csv"
    with np.errstate(all="ignore"):
        assert run(["jsa", "--sigma", "1e-300", "--grid", "16", "--out", str(out)]) == 2
    assert not out.exists()


def test_jsa_zero_sigma_with_the_default_a_coef_exits_2(tmp_path, capsys):
    # the default A = 0.7/(sigma*sqrt(2*gamma)) once divided by this sigma before it was checked
    out = tmp_path / "x.csv"
    assert run(["jsa", "--sigma", "0", "--gamma", "1e6", "--rde-l", "1", "--half-width", "40",
                "--grid", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: pump sigma must be positive, with a finite square\n"
    assert not out.exists()


def test_jsa_pump_width_with_an_overflowing_square_exits_2(tmp_path, capsys):
    # the pump envelope divides by 2*sigma**2, which overflows a float here
    out = tmp_path / "x.csv"
    assert run(["jsa", "--sigma", "1e300", "--gamma", "1e300", "--a-coef", "1e6", "--rde-l", "1",
                "--half-width", "5e-324", "--grid", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: pump sigma must be positive, with a finite square\n"
    assert not out.exists()


def test_jsa_unwritable_output_exits_3(tmp_path):
    missing_dir = tmp_path / "does" / "not" / "exist" / "jsa.csv"
    assert run(["jsa", "--grid", "16", "--out", str(missing_dir)]) == 3


@pytest.mark.parametrize("command", [["jsa", "--grid", "16"], ["hom", "--points", "64"]])
def test_failed_svg_write_leaves_no_csv(tmp_path, capsys, command):
    out = tmp_path / "data.csv"
    svg = tmp_path / "missing" / "plot.svg"
    assert run([*command, "--out", str(out), "--svg", str(svg)]) == 3
    assert capsys.readouterr().err.startswith("i/o failure:")
    assert not out.exists()


def test_failed_run_keeps_files_that_existed_before(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    svg.write_text("kept")
    assert run(["hom", "--method", "numeric", "--tau-span", "1", "--points", "3",
                "--out", str(tmp_path / "x.csv"), "--svg", str(svg)]) == 3
    assert not (tmp_path / "x.csv").exists() and svg.read_text() == "kept"
    # an input that is also the output path is never removed
    bad = tmp_path / "bad.csv"
    bad.write_text("tau_s,p\n1.0,spam\n")
    assert run(["estimate", "--input", str(bad), "--out", str(bad)]) == 2
    assert bad.read_text() == "tau_s,p\n1.0,spam\n"


# ---------------------------------------------------------------------------
# hom


def test_hom_closed_and_numeric_agree(tmp_path):
    closed = tmp_path / "closed.csv"
    numeric = tmp_path / "numeric.csv"
    base = ["hom", "--l", "2", "--omega", "2e12", "--tau-c", "1e-12",
            "--points", "61", "--tau-span", "3e-12"]
    assert run(base + ["--method", "closed", "--out", str(closed)]) == 0
    assert run(base + ["--method", "numeric", "--out", str(numeric)]) == 0
    _, c = read_csv(closed)
    _, n = read_csv(numeric)
    assert np.max(np.abs(c["p"] - n["p"])) < 1e-6


def test_hom_metadata(tmp_path):
    out = tmp_path / "hom.csv"
    assert run(["hom", "--omega", "0", "--points", "101", "--out", str(out)]) == 0
    meta, columns = read_csv(out)
    assert meta["method"] == "closed"
    assert meta["tau_c"] == "1e-12"
    assert columns["p"].min() == pytest.approx(0.0, abs=1e-12)


def test_hom_rejects_bad_span(tmp_path):
    assert run(["hom", "--tau-span", "-1", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("flag,value", [("--omega", "nan"), ("--tau-c", "inf"), ("--tau-c", "nan")])
def test_hom_rejects_non_finite_parameters(tmp_path, flag, value):
    out = tmp_path / "x.csv"
    assert run(["hom", flag, value, "--points", "11", "--out", str(out)]) == 2
    assert not out.exists()


def test_hom_rejects_tau_c_whose_square_underflows(tmp_path, capsys):
    # 2*tau_c**2 underflows to 0, which made the dip 0/0 at tau = 0: an empty p cell
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hom", "--l", "3", "--tau-c", "5e-324", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tau_c must be positive") and err.count("\n") == 1
    assert not out.exists()


def test_hom_rejects_a_beat_beyond_the_float_range(tmp_path, capsys):
    # l and omega are each finite, but 2*l*omega is not: cos(inf*tau) made every p cell empty
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hom", "--l", "1" + "0" * 300, "--omega", "1e10", "--points", "11",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: beat 2*l*omega_rot must be finite\n"
    assert not out.exists()


def test_hom_rejects_a_beat_phase_beyond_the_float_range(tmp_path, capsys):
    # the beat and the delays are each finite, but beat*tau overflows at all
    # but the middle delay: cos(inf) made 10 of the 11 p cells empty
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hom", "--l", "17", "--omega", "1e12", "--tau-span", "1e300",
                    "--points", "11", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: beat phase 2*l*omega_rot*max|tau| must be finite\n"
    assert not out.exists()


def test_hom_delays_whose_square_overflows_warn_nothing(tmp_path, capsys):
    # tau*tau overflows to inf beyond |tau| ~ 1.3e154 s; the envelope there is exactly 0
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hom", "--l", "17", "--tau-span", "1e300", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, columns = read_csv(out)
    assert np.isfinite(columns["p"]).all() and np.isfinite(columns["tau_s"]).all()
    assert columns["p"][0] == columns["p"][-1] == 0.5


def test_hom_numeric_failure_exits_3(tmp_path, capsys):
    # a one-second delay needs a difference-frequency grid far beyond the node budget
    code = run(
        ["hom", "--method", "numeric", "--tau-span", "1", "--points", "3",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


def test_hom_numeric_reaches_two_thousand_envelope_times(tmp_path):
    # the former quadrature's panel budget reached about 2,274 tau_c at l = 0
    out = tmp_path / "x.csv"
    assert run(["hom", "--method", "numeric", "--tau-c", "1e-12", "--tau-span", "2e-9",
                "--points", "41", "--out", str(out)]) == 0
    _, columns = read_csv(out)
    assert np.isfinite(columns["p"]).all()


def test_hom_numeric_at_a_large_branch_offset_matches_closed(tmp_path, capsys):
    # l*omega*tau_c = 4,000: the former quadrature needed 1.13e4 panels here and exited 3
    base = ["hom", "--tau-c", "1e-9", "--l", "2", "--omega", "2e12", "--tau-span", "3e-9"]
    paths = {method: tmp_path / f"{method}.csv" for method in ("closed", "numeric")}
    for method, path in paths.items():
        assert run(base + ["--method", method, "--out", str(path)]) == 0
    assert capsys.readouterr().err == ""
    closed, numeric = (read_csv(path)[1]["p"] for path in paths.values())
    assert np.max(np.abs(numeric - closed)) < 1e-6


# ---------------------------------------------------------------------------
# phasematch


def test_phasematch_crossing_cut_45(tmp_path):
    out = tmp_path / "pm.csv"
    assert run(["phasematch", "--cut-angle", "45", "--points", "201", "--out", str(out)]) == 0
    meta, columns = read_csv(out)
    assert float(meta["intersection_thz"]) == pytest.approx(370.44, abs=2.0)
    assert len(columns["freq_thz"]) == 201
    # fully solvable window: every angle cell populated
    assert not np.isnan(columns["angle_o_deg"]).any()
    assert not np.isnan(columns["angle_e_deg"]).any()


def test_phasematch_no_crossing_cut_40(tmp_path):
    out = tmp_path / "pm.csv"
    assert run(["phasematch", "--cut-angle", "40", "--points", "201", "--out", str(out)]) == 0
    meta, columns = read_csv(out)
    assert meta["intersection"] == "none"
    # unsolved frequencies appear as empty cells
    assert np.isnan(columns["angle_o_deg"]).any()


def test_phasematch_rejects_cut_out_of_range(tmp_path):
    assert run(["phasematch", "--cut-angle", "95", "--out", str(tmp_path / "x.csv")]) == 2


def test_phasematch_requires_cut(tmp_path):
    assert run(["phasematch", "--out", str(tmp_path / "x.csv")]) == 2


def test_phasematch_unsolvable_window_exits_3(tmp_path):
    code = run(
        ["phasematch", "--cut-angle", "40", "--f-min", "365", "--f-max", "376",
         "--points", "31", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3


def test_phasematch_custom_sellmeier_via_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "sellmeier_ordinary": [2.7359, 0.01878, 0.01822, 0.01354],
                "sellmeier_extraordinary": [2.3753, 0.01224, 0.01667, 0.01516],
                "sellmeier_provenance": "Kato 1986",
            }
        )
    )
    out = tmp_path / "pm.csv"
    code = run(
        ["phasematch", "--cut-angle", "45", "--points", "201",
         "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    meta, _ = read_csv(out)
    assert meta["sellmeier"] == "Kato 1986"
    assert float(meta["intersection_thz"]) == pytest.approx(370.44, abs=2.0)


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    # a file opened with the locale's encoding warns under warn_default_encoding,
    # and misreads a non-ASCII provenance where the locale is not UTF-8
    provenance = "Kato (1986), β-BaB₂O₄ ± 0.1 Å"
    (tmp_path / "cfg.json").write_text(json.dumps({
        "sellmeier_ordinary": [2.7359, 0.01878, 0.01822, 0.01354],
        "sellmeier_extraordinary": KATO_EXTRAORDINARY,
        "sellmeier_provenance": provenance,
    }, ensure_ascii=False), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(hombeat.__file__).parents[1])}
    for argv in (["hom", "--points", "201", "--out", "trace.csv"],
                 ["estimate", "--input", "trace.csv", "--out", "result.json"],
                 ["phasematch", "--cut-angle", "45", "--points", "201", "--config", "cfg.json",
                  "--out", "pm.csv"]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "hombeat", *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))["converged"]
    meta, _ = read_csv(tmp_path / "pm.csv")
    assert meta["sellmeier"] == provenance


def test_phasematch_rejects_a_line_break_in_the_provenance(tmp_path, capsys):
    # the provenance goes into a "# sellmeier=" header line: a line break in it
    # wrote a CSV that read_csv refuses ("row has 3 cells, expected 2")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sellmeier_ordinary": [2.7405, 0.0184, 0.0179, 0.0155],
                                  "sellmeier_extraordinary": [2.3730, 0.0128, 0.0156, 0.0044],
                                  "sellmeier_provenance": "line one\nfreq_thz,bogus"}))
    out = tmp_path / "pm.csv"
    assert run(["phasematch", "--cut-angle", "42", "--points", "11",
                "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "extraordinary",
    [[2.3753, 0.01224, 1.44, 0.01516],  # pole at 1.2 um, outside the scanned band
     [2.3753, 0.01224, 0.81, 0.01516],  # pole at 0.9 um
     ["nan", 0.01224, 0.01667, 0.01516]],
)
def test_phasematch_rejects_sellmeier_set_without_real_index(tmp_path, capsys, extraordinary):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sellmeier_ordinary": [2.7359, 0.01878, 0.01822, 0.01354],
                                  "sellmeier_extraordinary": extraordinary}))
    out = tmp_path / "pm.csv"
    code = run(["phasematch", "--cut-angle", "45", "--points", "51",
                "--config", str(config), "--out", str(out)])
    assert code == 2
    assert "Sellmeier" in capsys.readouterr().err
    assert not out.exists()


KATO_ORDINARY = [2.7359, 0.01878, 0.01822, 0.01354]
KATO_EXTRAORDINARY = [2.3753, 0.01224, 0.01667, 0.01516]


@pytest.mark.parametrize(
    "config,message",
    [({"sellmeier_ordinary": [True, 0.01878, 0.01822, 0.01354],
       "sellmeier_extraordinary": KATO_EXTRAORDINARY}, "sellmeier_ordinary must be"),
     ({"sellmeier_ordinary": KATO_ORDINARY, "sellmeier_extraordinary": KATO_EXTRAORDINARY,
       "sellmeier_provenance": 5}, "sellmeier_provenance must be a string"),
     ({"sellmeier_provenance": "Kato 1986"}, "sellmeier_ordinary must be"),  # no set to name
     # a 401-digit integer: float() raised OverflowError, a traceback and exit 1
     ({"sellmeier_ordinary": [10**400, 0.01878, 0.01822, 0.01354],
       "sellmeier_extraordinary": KATO_EXTRAORDINARY},
      "sellmeier_ordinary must be a finite number within the float range")],
)
def test_phasematch_rejects_sellmeier_config_of_the_wrong_json_type(tmp_path, capsys, config,
                                                                      message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "pm.csv"
    code = run(["phasematch", "--cut-angle", "45", "--points", "11",
                "--config", str(path), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_phasematch_rejects_pump_outside_the_dispersion_window(tmp_path, capsys):
    out = tmp_path / "pm.csv"
    code = run(["phasematch", "--cut-angle", "45", "--pump-thz", "2200", "--f-min", "600",
                "--f-max", "1000", "--points", "11", "--out", str(out)])
    assert code == 2
    assert "pump wavelength 0.1363 um outside the supported window [0.3, 1.5] um" in capsys.readouterr().err
    assert not out.exists()


def test_phasematch_pump_far_outside_the_window_prints_one_short_line(tmp_path, capsys):
    # the wavelength was printed with {:.4f}: all 303 digits of 2.998e+302 um
    out = tmp_path / "pm.csv"
    assert run(["phasematch", "--cut-angle", "44", "--pump-thz", "1e-300", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: pump wavelength 2.998e+302 um outside the supported window [0.3, 1.5] um\n")
    assert not out.exists()


def test_phasematch_window_too_narrow_for_its_points_exits_before_solving(
        tmp_path, capsys, monkeypatch):
    # 3 points in one ulp of 330 THz: two equal frequencies, found only after both solves
    def no_solve(*args):
        raise AssertionError("solved a window that cannot hold the points")

    monkeypatch.setattr("hombeat.phase_match._solve", no_solve)
    out = tmp_path / "pm.csv"
    assert run(["phasematch", "--cut-angle", "44", "--f-min", "330", "--f-max",
                "330.00000000000006", "--points", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: window [330.0, 330.00000000000006] THz is too narrow for 3 distinct "
        "frequencies\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,code,stderr",
    [(["jsa", "--sigma", "1e-300", "--grid", "16"], 2, "error: joint amplitude is not finite"),
     (["phasematch", "--cut-angle", "41", "--points", "201"], 0, ""),
     (["phasematch", "--cut-angle", "85"], 3, "numerical failure: no emission geometry"),
     # np.linspace(-x, x, n) overflowed on 2*x: two RuntimeWarnings came before the exit 2
     (["hom", "--tau-span", "1e308", "--points", "11"], 2,
      "error: tau span must be below half the float range"),
     (["jsa", "--grid", "16", "--half-width", "1e308"], 2,
      "error: half_width must be positive and below half the float range"),
     # twice this is exactly the largest float, yet the last linspace step still overflows
     (["jsa", "--grid", "16", "--half-width", "8.988465674311579e307"], 2,
      "error: half_width must be positive and below half the float range"),
     # l * omega overflows: every amplitude came out 0 and the run exited 0
     (["jsa", "--grid", "16", "--rde-l", "2", "--rde-omega", "1e308"], 2,
      "error: the Doppler shift l * omega_rot must be finite")],
)
def test_no_numpy_warnings_on_stderr(tmp_path, argv, code, stderr):
    env = {**os.environ, "PYTHONPATH": str(Path(hombeat.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hombeat", *argv, "--out", "out.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    # the whole of stderr: one line naming the failure, or nothing on success
    assert done.stderr.startswith(stderr)
    assert done.stderr.count("\n") == (1 if stderr else 0), done.stderr


# ---------------------------------------------------------------------------
# estimate


def test_estimate_round_trip(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    result_json = tmp_path / "result.json"
    assert run(
        ["hom", "--l", "2", "--omega", "2e12", "--tau-c", "1e-12",
         "--points", "1201", "--tau-span", "3e-12", "--out", str(trace_csv)]
    ) == 0
    assert run(["estimate", "--input", str(trace_csv), "--out", str(result_json)]) == 0
    payload = json.loads(result_json.read_text())
    assert payload["converged"]
    assert payload["beat_rad_per_s"] == pytest.approx(8e12, rel=0.005)


def test_estimate_large_jittered_trace(tmp_path):
    # the size bulk fits use, on a non-uniform grid: the spectrum must not be quadratic
    rng = np.random.default_rng(2025)
    base = np.linspace(-3e-12, 3e-12, 156_250)
    taus = base + rng.uniform(-0.2, 0.2, base.size) * (base[1] - base[0])
    p = coincidence_rde(taus, 1e-12, 2, 2e12) + rng.normal(0.0, 0.01, base.size)
    trace_csv = tmp_path / "jittered.csv"
    result_json = tmp_path / "result.json"
    write_csv(trace_csv, {"tau_s": taus, "p": p}, {})
    assert run(["estimate", "--input", str(trace_csv), "--out", str(result_json)]) == 0
    payload = json.loads(result_json.read_text())
    assert payload["converged"]
    assert payload["beat_rad_per_s"] == pytest.approx(8e12, rel=0.01)


def test_estimate_writes_to_stdout(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    run(["hom", "--omega", "0", "--points", "601", "--out", str(trace_csv)])
    capsys.readouterr()
    code = run(["estimate", "--input", str(trace_csv)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["below_resolution"] is True


def test_estimate_flat_trace_exits_4(tmp_path, capsys):
    trace_csv = tmp_path / "flat.csv"
    taus = np.linspace(-3e-12, 3e-12, 101)
    write_csv(trace_csv, {"tau_s": taus, "p": np.full(101, 0.5)}, {})
    assert run(["estimate", "--input", str(trace_csv)]) == 4


def test_estimate_missing_file_exits_2(capsys):
    assert run(["estimate", "--input", "no-such-file.csv"]) == 2


def test_estimate_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("tau_s,p\n1.0,spam\n")
    assert run(["estimate", "--input", str(bad)]) == 2


def test_estimate_rejects_a_duplicate_column_name(tmp_path, capsys):
    # a dict of columns kept the second p, and the fit of that flat column exited 4
    taus = np.linspace(-3e-12, 3e-12, 401)
    path = tmp_path / "twice.csv"
    np.savetxt(path, np.column_stack([taus, coincidence_rde(taus, 1e-12, 2, 2e12), np.full(401, 0.5)]),
               fmt="%.17g", delimiter=",", header="tau_s,p,p", comments="")
    assert run(["estimate", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed CSV: duplicate column name 'p'\n"


def test_estimate_of_delays_whose_square_overflows_exits_2(tmp_path, capsys):
    # these delays printed four RuntimeWarning lines and exited 4
    trace_csv = tmp_path / "huge.csv"
    taus = np.linspace(-3e-12, 3e-12, 601)
    write_csv(trace_csv, {"tau_s": taus * 1e200, "p": coincidence_rde(taus, 1e-12, 1, 2e12)})
    assert run(["estimate", "--input", str(trace_csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _constant_trace(tmp_path, value):
    path = tmp_path / "constant.csv"
    write_csv(path, {"tau_s": np.linspace(-3e-12, 3e-12, 200), "p": np.full(200, value)}, {})
    return path


def test_estimate_overflowing_trace_exits_4(tmp_path):
    # a trace at 1e200 overflows the fit's sum of squares: the fit ends unconverged
    out = tmp_path / "result.json"
    with np.errstate(all="ignore"):
        code = run(["estimate", "--input", str(_constant_trace(tmp_path, 1e200)),
                    "--out", str(out)])
    assert code == 4
    assert json.loads(out.read_text())["converged"] is False


@pytest.mark.parametrize("value", [1e200, -1e200, 1e308, -1e308])
def test_estimate_overflowing_trace_warns_nothing(tmp_path, capsys, value):
    # the same trace without an errstate guard: the fit's squares overflow inside
    # the estimator (at -1e308 a zero scale times an infinite J^T r is NaN), which
    # must say nothing about it beyond its exit code
    out = tmp_path / "result.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["estimate", "--input", str(_constant_trace(tmp_path, value)),
                    "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["rms_residual"] is None


def test_estimate_json_stays_strict_when_the_residual_overflows(tmp_path):
    out = tmp_path / "result.json"
    with np.errstate(all="ignore"):
        code = run(["estimate", "--input", str(_constant_trace(tmp_path, 1e200)),
                    "--out", str(out)])
    assert code == 4

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["rms_residual"] is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: converged does not require V in [0, 1]; "
                   "this flat trace reports converged with V = 11")
def test_estimate_converged_only_with_visibility_in_unit_interval(tmp_path, capsys):
    code = run(["estimate", "--input", str(_constant_trace(tmp_path, -5.0))])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4 or 0.0 <= payload["visibility"] <= 1.0


# ---------------------------------------------------------------------------
# config layering and reproducibility


def test_config_presets_and_flag_override(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"l": 5, "omega": 3e12}))
    assert run(["pipeline", "--config", str(config), "--omega", "1e12"]) == 0
    out = capsys.readouterr().out
    assert "l=5" in out
    assert "omega_rot=1000000000000.0" in out


def test_bad_config_exits_2(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    assert run(["pipeline", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "command,config",
    [("hom", {"tau-c": 5e-12}), ("hom", {"sellmeier_ordinary": [1, 2, 3, 4]}),
     ("pipeline", {"points": 11}), ("hom", {"l": 2.7}), ("hom", {"points": 10.9}),
     ("jsa", {"grid": 16.5}), ("jsa", {"rde_l": "2"}), ("pipeline", {"l": True})],
)
def test_config_rejects_unknown_keys_and_non_integers(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x.csv"
    outputs = [] if command == "pipeline" else ["--out", str(out)]
    assert run([command, "--config", str(path)] + outputs) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [{"tau_span": [1]}, {"out": 1, "points": 3}, {"svg": 5}],
)
def test_config_rejects_wrong_json_types(tmp_path, config):
    # run in a child: an integer path is a file descriptor to open(), so a
    # regression would write to, and close, the test process's own stdout
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(hombeat.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "hombeat", "hom", "--config", str(path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "must be a" in done.stderr
    assert not (tmp_path / "hom.csv").exists()


def test_config_accepts_null_where_the_default_is_unset(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"svg": None, "points": 3}))
    out = tmp_path / "x.csv"
    assert run(["hom", "--config", str(path), "--out", str(out)]) == 0
    assert out.exists()


def _options():
    """(command, option dest, flag, flag action) for every option but --help and --config."""
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.dest, action.option_strings[0], action)
            for command, sub in subparsers.choices.items() for action in sub._actions
            if action.dest not in ("help", "config")]


def _value_of_flag_type(action):
    if action.choices:
        return action.choices[-1]
    return {int: 17, float: 0.5, str: "x.out", None: "x.out"}[action.type]


def _outcome(directory, argv, capsys):
    # exit code, output and every file written, with the timestamp lines dropped
    directory.mkdir()
    os.chdir(directory)
    with np.errstate(all="ignore"):
        code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, _files_without_timestamps(directory)


def _files_without_timestamps(directory):
    return {path.name: [line for line in path.read_bytes().splitlines()
                        if not line.startswith(b"# timestamp=")]
            for path in sorted(directory.iterdir())}


_OPTIONS = _options()


@pytest.mark.parametrize("command,key,flag,action", _OPTIONS,
                         ids=[f"{c}-{k}" for c, k, _, _ in _OPTIONS])
def test_every_flag_is_a_config_key_of_its_type(tmp_path, monkeypatch, capsys, command, key,
                                                flag, action):
    monkeypatch.chdir(tmp_path)
    value = _value_of_flag_type(action)
    base = [command] + (["--cut-angle", "45"] if command == "phasematch" and key != "cut_angle"
                        else [])
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    by_flag = _outcome(tmp_path / "flag", base + [flag, str(value)], capsys)
    by_config = _outcome(tmp_path / "config", base + ["--config", str(config)], capsys)
    assert "config key" not in by_config[2]
    assert by_config == by_flag


@pytest.mark.parametrize("command", ["pipeline", "jsa", "hom", "phasematch", "estimate"])
def test_config_value_of_another_json_type_exits_2(tmp_path, capsys, command):
    config = tmp_path / "cfg.json"
    out = tmp_path / "x.out"
    outputs = [] if command == "pipeline" else ["--out", str(out)]
    for _, key, _, action in [option for option in _OPTIONS if option[0] == command]:
        number = action.type in (int, float)
        wrong = [True, [1], {"a": 1}] + (["1"] if number else [1.5])
        wrong += [1.5] if action.type is int else []
        for value in wrong:
            config.write_text(json.dumps({key: value}))
            assert run([command, "--config", str(config)] + outputs) == 2, (key, value)
            assert "must be a" in capsys.readouterr().err, (key, value)
            assert not out.exists()


_DIGITS_401 = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv,config",
    [(["pipeline", "--l", _DIGITS_401], None),
     (["pipeline"], f'{{"omega": {_DIGITS_401}}}'),
     (["pipeline"], f'{{"center": {_DIGITS_401}.5}}'),
     (["hom"], f'{{"tau_c": {_DIGITS_401}}}'),
     (["hom", "--l", _DIGITS_401], None),
     (["jsa", "--rde-l", _DIGITS_401, "--rde-omega", "1e12"], None)],
    ids=["pipeline-flag-l", "pipeline-json-omega", "pipeline-json-center-float", "hom-json-tau_c",
         "hom-flag-l", "jsa-flag-rde_l"],
)
def test_numbers_beyond_the_float_range_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    out = tmp_path / "x.csv"
    outputs = [] if argv[0] == "pipeline" else ["--out", str(out)]
    assert run(argv + outputs) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,config",
    [(["hom", "--points", "16777217"], None),
     (["phasematch", "--cut-angle", "45", "--points", "16777217"], None),
     (["hom"], {"points": 10**30}),
     (["phasematch", "--cut-angle", "45"], {"points": 10**30})],
    ids=["hom-flag", "phasematch-flag", "hom-json", "phasematch-json"],
)
def test_sample_counts_above_4096_squared_exit_2(tmp_path, monkeypatch, capsys, argv, config):
    # nothing may be allocated per point: every step that would raises instead
    def never(*args, **kwargs):
        raise AssertionError("started the computation")

    for name in ("trace", "emission_curves"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.np, "linspace", never)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert "points must lie in [2, 16777216]" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_reproduce_up_to_timestamp(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["hom", "--l", "2", "--omega", "2e12", "--points", "201"]
    assert run(base + ["--out", str(first)]) == 0
    assert run(base + ["--out", str(second)]) == 0

    def stripped(path):
        return [
            line
            for line in path.read_text().splitlines()
            if not line.startswith("# timestamp=")
        ]

    assert stripped(first) == stripped(second)


# ---------------------------------------------------------------------------
# one parser per process

# every subcommand twice with other flags, a bad flag, --version and each --help;
# estimate reads the traces the hom runs before it wrote
_SESSION = [
    ["pipeline", "--l", "1", "--omega", "5e11"],
    ["pipeline", "--l", "3", "--center", "2e15"],
    ["jsa", "--grid", "16", "--out", "a.csv"],
    ["jsa", "--grid", "20", "--rde-l", "2", "--rde-omega", "1e12", "--out", "b.csv",
     "--svg", "b.svg"],
    ["hom", "--l", "2", "--omega", "2e12", "--points", "201", "--out", "c.csv"],
    ["hom", "--method", "numeric", "--l", "1", "--omega", "1e12", "--points", "41",
     "--out", "d.csv", "--svg", "d.svg"],
    ["phasematch", "--cut-angle", "42", "--points", "11", "--out", "e.csv"],
    ["phasematch", "--cut-angle", "45", "--f-min", "340", "--points", "21", "--out", "f.csv",
     "--svg", "f.svg"],
    ["estimate", "--input", "c.csv"],
    ["estimate", "--input", "d.csv", "--out", "g.json"],
    ["hom", "--no-such-flag", "1"],
    ["--version"],
    ["--help"],
    *([command, "--help"] for command in cli.COMMANDS),
]


def test_one_parser_serves_every_call_as_a_fresh_process_would(tmp_path, monkeypatch, capsys):
    assert _build_parser() is _build_parser()
    fresh, warm = tmp_path / "fresh", tmp_path / "warm"
    fresh.mkdir()
    warm.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(hombeat.__file__).parents[1]), "COLUMNS": "80"}
    expected = []
    for argv in _SESSION:
        done = subprocess.run([sys.executable, "-m", "hombeat", *argv], cwd=fresh, env=env,
                              capture_output=True, text=True, timeout=120)
        expected.append((argv, done.returncode, done.stdout, done.stderr))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(warm)
    observed = []
    for argv in _SESSION:
        code = main(argv)
        captured = capsys.readouterr()
        observed.append((argv, code, captured.out, captured.err))
    assert observed == expected
    assert [code for _, code, _, _ in observed].count(2) == 1
    assert _files_without_timestamps(warm) == _files_without_timestamps(fresh)
    assert _build_parser() is _build_parser()


# cheap settings, so that a value the command accepts runs in milliseconds
_SMALL = {"pipeline": [], "jsa": ["--grid", "16"], "hom": ["--points", "11"],
          "phasematch": ["--cut-angle", "42", "--points", "11"], "estimate": []}
_FLOAT_FLAGS = [(command, "--" + key.replace("_", "-"))
                for command, (_, _, rows) in cli.COMMANDS.items()
                for key, kind, _, _ in rows if kind is float]


def test_hom_takes_a_negative_omega_in_exponent_notation(tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(["hom", "--points", "11", "--omega", "-2e12", "--out", str(spaced)]) == 0
    assert run(["hom", "--points", "11", "--omega=-2e12", "--out", str(joined)]) == 0
    assert capsys.readouterr().err == ""
    assert _files_without_timestamps(tmp_path)["spaced.csv"] == \
        _files_without_timestamps(tmp_path)["joined.csv"]


@pytest.mark.parametrize("value", ["-2.5e-3", "-1E+2", "-inf"])
@pytest.mark.parametrize("command,flag", _FLOAT_FLAGS, ids=[" ".join(f) for f in _FLOAT_FLAGS])
def test_negative_flag_values_parse_alike_in_both_forms(tmp_path, monkeypatch, capsys, command,
                                                        flag, value):
    monkeypatch.chdir(tmp_path)
    outcomes = []
    for pair in ([flag, value], [f"{flag}={value}"]):
        with np.errstate(all="ignore"):
            code = run([command, *_SMALL[command], *pair])
        outcomes.append((code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert "expected one argument" not in outcomes[0][1].err


# ---------------------------------------------------------------------------
# runtime dependencies


def test_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import hombeat
        from hombeat.cli import main
        from hombeat.dataio import read_csv
        from hombeat.joint_spectrum import JsaGrid, peak_locations

        assert not [m for m in sys.modules if m.startswith("scipy") and sys.modules[m]]
        assert main(["hom", "--method", "numeric", "--points", "41", "--out", "hom.csv"]) == 0
        assert main(["jsa", "--rde-l", "2", "--rde-omega", "2e12", "--grid", "64",
                     "--out", "jsa.csv"]) == 0
        _, columns = read_csv("jsa.csv")
        values = columns["amplitude"].reshape(64, 64)
        axis = columns["nu1"][::64]
        assert len(peak_locations(JsaGrid(axis, axis.copy(), values / values.max()))) == 2
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hombeat.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
