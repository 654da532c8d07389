import io
import math
import re
import tracemalloc
import warnings
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hombeat import svgplot
from hombeat.cli import main
from hombeat.dataio import fixed2_cells


def _scalar_heat_color(t: float) -> str:
    """The ramp one cell at a time: black-red-yellow-white for t in [0, 1]."""
    t = min(1.0, max(0.0, t))
    r = min(1.0, 3.0 * t)
    g = min(1.0, max(0.0, 3.0 * t - 1.0))
    b = min(1.0, max(0.0, 3.0 * t - 2.0))
    return f"#{int(255 * r):02x}{int(255 * g):02x}{int(255 * b):02x}"


_RECT = re.compile(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" height="([^"]*)" '
                   r'fill="([^"]*)"/>')


def _raster(path, nx, ny):
    """The fill at each cell centre, [i][j], after painting every rect in document order."""
    x0, y0, x1, y1 = 70, 30, 560 - 30, 540 - 60
    cx = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    cy = y1 - (np.arange(ny) + 0.5) * (y1 - y0) / ny
    fills = np.full((nx, ny), "", object)
    for x, y, w, h, fill in _RECT.findall(path.read_text()):
        x, y, w, h = map(float, (x, y, w, h))
        fills[np.outer((x <= cx) & (cx < x + w), (y <= cy) & (cy < y + h))] = fill
    return fills.tolist()


def _expected_fills(values):
    """Each cell's ramp colour on the scale of the largest finite value (1.0 if none or 0)."""
    cells = values.tolist()
    top = max((v for row in cells for v in row if math.isfinite(v)), default=0.0) or 1.0
    return [[_scalar_heat_color(v / top) for v in row] for row in cells]


def test_heatmap_colors_match_the_scalar_ramp(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(-0.3, 1.0, size=(23, 17))
    values[0, :6] = [0.0, -0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1e-300]
    path = tmp_path / "heat.svg"
    svgplot.heatmap(path, np.arange(23.0), np.arange(17.0), values)
    assert _raster(path, 23, 17) == _expected_fills(values)


def test_heatmap_nan_cells_are_black(tmp_path):
    values = np.linspace(0.0, 1.0, 20).reshape(4, 5)
    values[1, 2] = math.nan
    path = tmp_path / "heat.svg"
    svgplot.heatmap(path, np.arange(4.0), np.arange(5.0), values)
    fills = _raster(path, 4, 5)
    assert fills[1][2] == "#000000"
    assert fills == _expected_fills(values)
    assert fills[3][4] == "#ffffff"  # the finite maximum, not a NaN scale


_CELL_VALUES = (st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -0.0, 0.0,
                                 1.0 / 3.0, 2.0 / 3.0, 1.0, 3.0])
                | st.floats(-2.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data(), st.integers(1, 12))
def test_heatmap_draws_each_cell_once_per_colour_run(tmp_path_factory, nx, ny, data, block):
    flat = data.draw(st.lists(_CELL_VALUES, min_size=nx * ny, max_size=nx * ny)
                     | st.sampled_from([[math.nan] * (nx * ny), [-0.0] * (nx * ny)]))
    values = np.array(flat).reshape(nx, ny)
    path = tmp_path_factory.mktemp("heat") / "heat.svg"
    old, svgplot.BLOCK_POINTS = svgplot.BLOCK_POINTS, block
    try:
        svgplot.heatmap(path, np.arange(nx, dtype=float), np.arange(ny, dtype=float), values)
    finally:
        svgplot.BLOCK_POINTS = old
    expected = _expected_fills(values)
    assert _raster(path, nx, ny) == expected
    # the page, the black plot area, then one rect per run of a non-black colour
    runs = sum(colour != "#000000" for column in expected for colour, _ in groupby(column))
    assert len(_RECT.findall(path.read_text())) == 2 + runs


@pytest.mark.parametrize("nx,ny", [(600, 8), (8, 600)])
def test_sub_pixel_cells_show_their_own_colour_at_the_centre(tmp_path, nx, ny):
    # every other cell black, so a rect that reaches past its cell shows at the
    # centre of a black neighbour, in the next row and in the next column
    values = np.random.default_rng(nx).uniform(0.2, 1.0, size=(nx, ny))
    values[np.add.outer(np.arange(nx), np.arange(ny)) % 2 == 0] = 0.0
    path = tmp_path / "heat.svg"
    svgplot.heatmap(path, np.arange(float(nx)), np.arange(float(ny)), values)
    assert _raster(path, nx, ny) == _expected_fills(values)


def test_reference_heatmap_stays_small(tmp_path):
    svg = tmp_path / "jsa.svg"
    assert main(["jsa", "--rde-l", "2", "--rde-omega", "2e12", "--grid", "256",
                 "--out", str(tmp_path / "jsa.csv"), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert len(text) <= 1_500_000
    assert text.count("<rect ") < 20_000


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


# "x.xx5" decimals, whose nearest doubles sit next to a tie of "%.2f", and
# the digit splits of canvas pixels up to 9999.99
_HALF_CENT = st.integers(0, 999_998).map(lambda k: float(f"{k}5e-3"))
_POINT_VALUES = (st.floats(0.0, 9999.99) | _HALF_CENT
                 | st.sampled_from([0.0, 0.001, 0.004999, 0.005, 0.125, 9.99, 9.995, 99.99,
                                    99.995, 999.99, 999.995, 9999.99, 9999.985,
                                    math.nextafter(9999.995, 0.0)]))


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
    below = math.nextafter(9999.995, 0.0)
    cells = fixed2_cells(np.array([below, 0.0]), np.zeros((2, 8), np.uint8))
    assert cells[:, :7].tobytes() == b"9999.99" + b"\0" * 3 + b"0.00"  # NUL: unused slot
    # a sign bit, NaN, or five integer digits once rounded to cents
    for bad in [-0.0, -0.001, -1e6, math.nan, -math.inf, math.inf, 9999.995, 1e4, 1e9]:
        with pytest.raises(ValueError, match="canvas"):
            fixed2_cells(np.array([0.0, bad]), np.zeros((2, 8), np.uint8))
        with pytest.raises(ValueError, match="canvas"):
            svgplot._write_polyline(io.BytesIO(), np.array([1.0, bad]), np.ones(2), "#000000")


# finite values with spans near the float range and constants that adding 1 cannot move
_AXIS_VALUES = (st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-1.7976931348623157e308, -1e308, -1e17, -0.0, 0.0, 5e-324,
                                   1.0, 2.0**53, 1e17, 1e308, 1.7976931348623157e308]))
_COORDINATE = re.compile(r'\b([xy])[12]?="([^"]*)"')


def _assert_on_canvas(text, width, height):
    """Every x, y, x1, ... attribute and polyline point parses as a finite canvas position."""
    coordinates = [(axis, float(v)) for axis, v in _COORDINATE.findall(text)]
    for points in re.findall(r'points="([^"]*)"', text):
        for point in points.split():
            x, y = point.split(",")
            coordinates += [("x", float(x)), ("y", float(y))]
    assert coordinates
    for axis, v in coordinates:
        assert 0.0 <= v <= {"x": width, "y": height}[axis], (axis, v)


def _plots_or_refuses(plot, path):
    """Run plot(path) with warnings as errors; True if it wrote path, False if it refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            plot(path)
        except ValueError:
            assert not path.exists()
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(_AXIS_VALUES, _AXIS_VALUES), min_size=1, max_size=6)
                | st.tuples(_AXIS_VALUES, st.integers(1, 4)).map(lambda c: [(c[0], c[0])] * c[1]),
                min_size=1, max_size=3))
def test_line_plot_stays_on_its_canvas_or_refuses(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("line") / "line.svg"
    series = [(f"s{k}", [x for x, _ in s], [y for _, y in s]) for k, s in enumerate(series)]
    if _plots_or_refuses(lambda p: svgplot.line_plot(p, series), path):
        _assert_on_canvas(path.read_text(), 640, 440)


@settings(max_examples=100, deadline=None)
@given(*[st.lists(_AXIS_VALUES, min_size=1, max_size=4)] * 2)
def test_heatmap_axes_stay_on_its_canvas_or_refuse(tmp_path_factory, x_axis, y_axis):
    path = tmp_path_factory.mktemp("heat") / "heat.svg"
    values = np.arange(len(x_axis) * len(y_axis), dtype=float).reshape(len(x_axis), len(y_axis))
    if _plots_or_refuses(lambda p: svgplot.heatmap(p, x_axis, y_axis, values), path):
        _assert_on_canvas(path.read_text(), 560, 540)


@pytest.mark.parametrize("plot", [
    lambda p: svgplot.line_plot(p, [("s", [0.0, 1.0], [-1e308, 1e308])]),
    lambda p: svgplot.line_plot(p, [("s", [-1e308, 1e308], [0.0, 1.0])]),
    lambda p: svgplot.line_plot(p, [("s", [0.0, 1.0], [1e17, 1e17])]),
    lambda p: svgplot.line_plot(p, [("s", [-1e17, -1e17], [0.0, 1.0])]),
    lambda p: svgplot.heatmap(p, [-1e308, 1e308], [0.0], np.ones((2, 1))),
    lambda p: svgplot.heatmap(p, [0.0], [0.0, math.nan], np.ones((1, 2))),
], ids=["line-y-span", "line-x-span", "line-y-constant", "line-x-constant", "heatmap-x-span",
        "heatmap-nan-axis"])
def test_plots_refuse_spans_they_cannot_draw(tmp_path, plot):
    # the line plots wrote points="nan,nan ..." or a flat line at a mislabelled axis
    assert not _plots_or_refuses(plot, tmp_path / "plot.svg")


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
