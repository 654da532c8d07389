"""Shared definitions of the regression fixtures and how to regenerate them.

Each entry of ``FIXTURES`` maps a fixture file name to the CLI argument
list that produces it (the ``--out`` path is appended by the caller).
Each entry of ``SVG_FIXTURES`` maps an SVG file name either to a CLI
argument list (``--out`` to a scratch CSV and ``--svg`` are appended) or
to a function that writes the file through ``svgplot`` directly.
``tests/golden/`` holds the committed outputs;
``python tests/make_golden_fixtures.py [NAME ...]`` rewrites them.
"""

import pathlib
import tempfile

import numpy as np

from hombeat import svgplot
from hombeat.cli import main

FIXTURES = {
    # single-peak joint amplitude and plain dip
    "jsa_unshifted.csv": [
        "jsa", "--grid", "64", "--half-width", "6e12",
    ],
    "hom_plain_dip.csv": [
        "hom", "--l", "0", "--omega", "0", "--tau-c", "1e-12",
        "--points", "601", "--tau-span", "3e-12",
    ],
    # shifted joint amplitudes and beating dips
    "jsa_shift_l2_1trad.csv": [
        "jsa", "--grid", "64", "--half-width", "6e12",
        "--rde-l", "2", "--rde-omega", "1e12",
    ],
    "hom_beat_l2_2trad.csv": [
        "hom", "--l", "2", "--omega", "2e12", "--tau-c", "1e-12",
        "--points", "601", "--tau-span", "3e-12",
    ],
    "jsa_shift_l2_2trad.csv": [
        "jsa", "--grid", "64", "--half-width", "6e12",
        "--rde-l", "2", "--rde-omega", "2e12",
    ],
    "hom_beat_l2_4trad.csv": [
        "hom", "--l", "2", "--omega", "4e12", "--tau-c", "1e-12",
        "--points", "601", "--tau-span", "3e-12",
    ],
    # slow-rotation regimes
    "hom_beat_l2_0p4trad.csv": [
        "hom", "--l", "2", "--omega", "0.4e12", "--tau-c", "1e-12",
        "--points", "601", "--tau-span", "3e-12",
    ],
    "hom_slow_mrad_long_envelope.csv": [
        "hom", "--l", "2", "--omega", "1e6", "--tau-c", "1e-6",
        "--points", "601", "--tau-span", "3e-6",
    ],
    # emission curves with unsolved rows on both rays and a crossing
    "phasematch_cut42_gaps_crossing.csv": [
        "phasematch", "--cut-angle", "42", "--points", "201",
    ],
}


def _heatmap_ramp_negative(path) -> None:
    """Every stretch of the colour ramp, its third boundaries and a clipped negative cell."""
    values = np.linspace(-0.2, 1.0, 12 * 10).reshape(12, 10)
    values[3, 4] = 1.0 / 3.0
    values[7, 1] = 2.0 / 3.0
    svgplot.heatmap(path, np.linspace(-1.0, 1.0, 12), np.linspace(0.0, 3e12, 10), values,
                    title="ramp", xlabel="x", ylabel="y")


def _heatmap_nan_negative(path) -> None:
    """One NaN cell and one negative cell on a small positive grid."""
    x = np.linspace(-2e12, 2e12, 7)
    y = np.linspace(-1.5e12, 1.5e12, 5)
    values = np.exp(-np.add.outer(x * x, y * y) / 4e24)
    values[2, 3] = np.nan
    values[5, 0] = -0.25
    svgplot.heatmap(path, x, y, values, title="nan and negative", xlabel="x", ylabel="y")


def _line_plot_gaps(path) -> None:
    """Interior gaps, lone finite points, non-finite x and an unlabelled second series."""
    x = np.linspace(0.0, 5e-12, 40)
    y = np.sin(x * 1e12)
    y[[0, 5, 6, 9, 11, 20, 21, 22, 39]] = np.nan
    x2 = x.copy()
    x2[[3, 17]] = [np.inf, -np.inf]
    svgplot.line_plot(path, [("sine", x, y), ("", x2, 0.5 * np.cos(x * 1e12))],
                      title="gaps", xlabel="t (s)", ylabel="y")


SVG_FIXTURES = {
    "jsa_grid32_shift_l2_1trad.svg": [
        "jsa", "--grid", "32", "--rde-l", "2", "--rde-omega", "1e12",
    ],
    # 119 of the 201 rows have an empty cell, so both polylines break
    "phasematch_cut41_gaps.svg": [
        "phasematch", "--cut-angle", "41", "--points", "201",
    ],
    "hom_default_101.svg": ["hom", "--points", "101"],
    "line_plot_gaps.svg": _line_plot_gaps,
    "heatmap_ramp_negative.svg": _heatmap_ramp_negative,
    "heatmap_nan_negative.svg": _heatmap_nan_negative,
}


def render_svg_fixture(name: str, path) -> int:
    """Write SVG fixture ``name`` to ``path``; returns the CLI exit code (0 for direct calls)."""
    spec = SVG_FIXTURES[name]
    if callable(spec):
        spec(path)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        csv_path = pathlib.Path(scratch) / "data.csv"
        return main(spec + ["--out", str(csv_path), "--svg", str(path)])


def lines_without_timestamp(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("# timestamp=")]
