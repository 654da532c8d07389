import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hombeat import svgplot
from hombeat.dataio import FIXED2_LIMIT, fixed2_cells


def _scalar_heat_color(t: float) -> str:
    """The ramp one cell at a time: black-red-yellow-white for t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = min(1.0, 3.0 * t)
    g = min(1.0, max(0.0, 3.0 * t - 1.0))
    b = min(1.0, max(0.0, 3.0 * t - 2.0))
    return f"#{int(255 * r):02x}{int(255 * g):02x}{int(255 * b):02x}"


def _fills(path):
    return re.findall(r'<rect [^>]* fill="(#[0-9a-f]{6})"/>', path.read_text())


def test_heatmap_colors_match_the_scalar_ramp(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(-0.3, 1.0, size=(23, 17))
    values[0, :6] = [0.0, -0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1e-300]
    path = tmp_path / "heat.svg"
    svgplot.heatmap(path, np.arange(23.0), np.arange(17.0), values)
    top = float(values.max())
    assert _fills(path) == [_scalar_heat_color(v / top) for v in values.ravel().tolist()]


def test_heatmap_nan_cells_are_black(tmp_path):
    values = np.linspace(0.0, 1.0, 20).reshape(4, 5)
    values[1, 2] = math.nan
    path = tmp_path / "heat.svg"
    svgplot.heatmap(path, np.arange(4.0), np.arange(5.0), values)
    assert set(_fills(path)) == {"#000000"}  # a NaN maximum leaves no finite scale


def test_long_polyline_spans_blocks_without_seams(tmp_path):
    n = 2 * svgplot.BLOCK_POINTS + 77
    x = np.linspace(-1.0, 1.0, n)
    y = np.sin(7.0 * x)
    y[svgplot.BLOCK_POINTS + 5] = math.nan
    path = tmp_path / "line.svg"
    svgplot.line_plot(path, [("s", x, y)])
    x0, y0, x1, y1 = 70, 30, 640 - 20, 440 - 60
    ylo, yhi = float(np.nanmin(y)), float(np.nanmax(y))
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    points = [f"{x0 + (xi + 1.0) / 2.0 * (x1 - x0):.2f},"
              f"{y1 - (yi - ylo) / (yhi - ylo) * (y1 - y0):.2f}"
              for xi, yi in zip(x.tolist(), y.tolist())]
    cut = svgplot.BLOCK_POINTS + 5
    expected = [" ".join(points[:cut]), " ".join(points[cut + 1:])]
    assert re.findall(r'<polyline points="([^"]*)"', path.read_text()) == expected


# "x.xx5" decimals, whose nearest doubles sit next to a tie of "%.2f"
_HALF_CENT = st.integers(-(10**8), 10**8).map(lambda k: float(f"{k}5e-3"))
_POINT_VALUES = (st.floats(-1e6, 1e6) | _HALF_CENT
                 | st.sampled_from([-0.0, 0.0, -0.001, -0.004999, 0.005, 0.125, math.nan]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_POINT_VALUES, _POINT_VALUES), min_size=2, max_size=40),
       st.integers(1, 8))
def test_polyline_points_match_format(points, block):
    px, py = np.array(points).T
    buf = io.BytesIO()
    old, svgplot.BLOCK_POINTS = svgplot.BLOCK_POINTS, block
    try:
        svgplot._write_polyline(buf, px, py, "#000000")
    finally:
        svgplot.BLOCK_POINTS = old
    text = re.fullmatch(rb'<polyline points="([^"]*)" fill=.*/>\n', buf.getvalue()).group(1)
    assert text.decode() == " ".join(f"{x:.2f},{y:.2f}" for x, y in points)


def test_point_encoder_rejects_values_past_its_digits():
    fixed2_cells(np.array([FIXED2_LIMIT * (1 - 2**-52)]), np.zeros((1, 20), np.uint8))
    with pytest.raises(ValueError):
        fixed2_cells(np.array([0.0, -FIXED2_LIMIT]), np.zeros((2, 20), np.uint8))


def test_heatmap_memory_stays_bounded(tmp_path):
    axis = np.linspace(-1.0, 1.0, 256)
    values = np.exp(-np.add.outer(axis**2, axis**2))
    tracemalloc.start()
    try:
        svgplot.heatmap(tmp_path / "heat.svg", axis, axis, values)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak <= 16.0
