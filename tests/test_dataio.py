import math
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hombeat import dataio
from hombeat.dataio import (
    BLOCK_ROWS,
    READ_CHARS,
    _CSV_TEMPLATE,
    _Column,
    csv_cells,
    fixed2_cells,
    format_float,
    pack_rows,
    read_csv,
    read_hom_trace,
    write_csv,
)
from hombeat.joint_spectrum import PhaseMatchGaussian, PumpSpectrum, RdeShift, jsa_grid


# ---------------------------------------------------------------------------
# number formatting


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.0, "0"),
        (370.44, "370.44"),
        (0.001, "0.001"),
        (999999.0, "999999"),
        (-0.5, "-0.5"),
        (1e-12, "1e-12"),
        (0.0001, "1e-04"),
        (1e6, "1e+06"),
        (-2.5e12, "-2.5e+12"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
    ],
)
def test_format_float_cases(value, expected):
    assert format_float(value) == expected


def test_format_float_round_trips_12_digits():
    values = [math.pi, 1.2345678901234e-7, 9.876543210987e11, -4.4e-300, 2.0 / 3.0]
    for v in values:
        back = float(format_float(v))
        assert back == pytest.approx(v, rel=1e-11)


# ---------------------------------------------------------------------------
# CSV round trip


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "doc.csv"
    x = np.linspace(-3e-12, 3e-12, 57)
    y = np.sin(x * 1e12) * 0.25 + 0.5
    write_csv(path, {"tau_s": x, "p": y}, {"alpha": 1e-12, "label": "demo", "count": 57})
    meta, columns = read_csv(path)
    assert meta["alpha"] == "1e-12"
    assert meta["label"] == "demo"
    assert meta["count"] == "57"
    np.testing.assert_allclose(columns["tau_s"], x, rtol=1e-11)
    np.testing.assert_allclose(columns["p"], y, rtol=1e-11)


def test_missing_cells_round_trip(tmp_path):
    path = tmp_path / "gaps.csv"
    write_csv(path, {"f": [1.0, 2.0, 3.0], "a": [0.5, None, 1.5]}, {})
    _, columns = read_csv(path)
    assert math.isnan(columns["a"][1])
    assert columns["a"][0] == 0.5


def test_mismatched_column_lengths_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", {"a": [1.0], "b": [1.0, 2.0]}, {})


@pytest.mark.parametrize(
    "columns,meta",
    [({"a": [1.0]}, {"note": "line one\nfreq_thz,bogus"}),
     ({"a": [1.0]}, {"note": "carriage\rreturn"}),
     ({"a": [1.0]}, {"two\nlines": "v"}),
     ({"a,b": [1.0]}, {}),
     ({"a\nb": [1.0]}, {}),
     ({"a\r": [1.0]}, {})],
)
def test_write_rejects_header_text_that_breaks_the_layout(tmp_path, columns, meta):
    # a line break in the header (or a comma in a column name) made a document
    # that read_csv refuses: "row has 3 cells, expected 2"
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="line break"):
        write_csv(path, columns, meta)
    assert not path.exists()


def test_write_keeps_commas_and_equals_signs_in_metadata(tmp_path):
    path = tmp_path / "ok.csv"
    write_csv(path, {"a": [1.0]}, {"sellmeier": "Kato, 1986", "rule": "n=2"})
    meta, _ = read_csv(path)
    assert meta == {"sellmeier": "Kato, 1986", "rule": "n=2"}


def test_read_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# k=v\na,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_rejects_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,spam\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_rejects_headerless_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only=meta\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_hom_trace_requires_columns(tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(path, {"time": [1.0, 2.0], "p": [0.1, 0.2]}, {})
    with pytest.raises(ValueError):
        read_hom_trace(path)


def test_read_hom_trace_rejects_gaps(tmp_path):
    path = tmp_path / "trace.csv"
    write_csv(path, {"tau_s": [1.0, 2.0], "p": [0.1, None]}, {})
    with pytest.raises(ValueError):
        read_hom_trace(path)


# ---------------------------------------------------------------------------
# block-wise fast path: same cells as format_float, same reader errors

EDGE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    4.99999999999999e-5, 5e-5, 9.99999999999995e-5, 9.999999999999949e-5, 1e-4,
    0.000999999999999999, 0.00099999999999995, 1e-3, 999999.9999995, 999999.99999949, 1e6,
    999999999999.5, 999999999999.49, 1e12, 9.9999999999995e12, 1e13, -1.5e-4, -2.5e9,
]


def _written_cells(tmp_path, values):
    """The cell text write_csv gives each value, written once as-is and once repeated."""
    cells = []
    for name, column in (("plain", values), ("repeated", np.repeat(values, 4))):
        path = tmp_path / f"{name}.csv"
        write_csv(path, {"v": column})
        text = path.read_text()
        assert text.startswith("v\n") and text.endswith("\n")
        cells.append(text[2:-1].split("\n"))
    plain, repeated = cells
    assert repeated == [c for c in plain for _ in range(4)]
    return plain


def _expected_cell(v):
    return "" if math.isnan(v) else format_float(v)


def _nudged(v, steps):
    for _ in range(abs(steps)):
        v = float(np.nextafter(v, math.inf if steps > 0 else -math.inf))
    return v


# every power of ten of the double range and its three neighbours either side
POWER_NEIGHBOURS = [_nudged(float(f"1e{e}"), s) for e in range(-323, 309) for s in range(-3, 4)]
# the doubles nearest ties of 12-digit rounding where one to three float64
# scalings give the digits: these test the tie guard band
_RNG = np.random.default_rng(8)
NEAR_TIES = [float(f"{k}5e{e}") for k, e in zip(_RNG.integers(10**11, 10**12, 20_000).tolist(),
                                               _RNG.integers(-70, 71, 20_000).tolist())]


def test_write_edge_values_match_format_float(tmp_path):
    values = EDGE_VALUES + POWER_NEIGHBOURS + NEAR_TIES
    assert _written_cells(tmp_path, values) == [_expected_cell(v) for v in values]


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every double: raw bit patterns (subnormals, signed zeros, infinities, NaNs)
_ANY_DOUBLE = st.integers(0, 2**64 - 1).map(_from_bits)
# the double nearest a decimal tie, (k + 1/2) 10^(e + 1) with k of 11 or 12
# digits: 12 or 13 significant digits, the last a 5
_NEAR_TIE = st.builds(lambda k, e: float(f"{k}5e{e}"),
                      st.integers(10**10, 10**12 - 1), st.integers(-80, 80))
# neighbours of the notation switches and the decades %g treats differently
_NEAR_EDGE = st.builds(_nudged, st.sampled_from([1e-3, 1e6, 1e-5, 1e12, -1e-3, -1e6]),
                       st.integers(-3, 3))
_INTEGER_13 = st.integers(-(10**13) + 1, 10**13 - 1).map(float)
_CELL_VALUES = (st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                | st.sampled_from(EDGE_VALUES).map(lambda v: v * (1 + 2**-52))
                | _ANY_DOUBLE | _NEAR_TIE | _NEAR_EDGE | _INTEGER_13)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_CELL_VALUES, min_size=1, max_size=40), st.integers(0, 40))
def test_write_cells_match_format_float(tmp_path, values, before_boundary):
    expected = [_expected_cell(v) for v in values]
    assert _written_cells(tmp_path, values) == expected
    # the same cells across a block boundary, after a block of one repeated value
    path = tmp_path / "straddle.csv"
    write_csv(path, {"v": [0.5] * (BLOCK_ROWS - before_boundary) + values})
    cells = path.read_text().split("\n")[1:-1]
    assert cells[BLOCK_ROWS - before_boundary:] == expected


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(same=st.lists(_CELL_VALUES, min_size=1, max_size=8),
       before=st.lists(_FINITE, min_size=1, max_size=8),
       after=st.lists(_FINITE, max_size=6),
       blocks=st.integers(2, 3), short=st.integers(0, BLOCK_ROWS - 100), seed=st.integers(0, 99))
def test_columns_of_repeats_match_format_float_across_blocks(tmp_path, same, before, after,
                                                             blocks, short, seed):
    """Cells encoded once per distinct value, and reused only while a column's values repeat."""
    n = blocks * BLOCK_ROWS - short
    # the same distinct values in every block
    a = np.resize(same, n)
    # a distinct set that changes at the first block boundary, to one with NaN and -0.0
    b = np.concatenate([np.resize(before, BLOCK_ROWS),
                        np.resize(after + [math.nan, -0.0, 1.5, 2.5, 3.5], n - BLOCK_ROWS)])
    # every value distinct
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    path = tmp_path / "repeats.csv"
    write_csv(path, {"a": a, "b": b, "c": c})
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b,c" and lines[-1] == ""
    assert lines[1:-1] == [",".join(_expected_cell(v) for v in row)
                           for row in zip(a.tolist(), b.tolist(), c.tolist())]


def test_block_cycling_nan_and_negative_zero_is_encoded_once():
    block = np.resize([2.5, math.nan, -0.0], BLOCK_ROWS)
    column = _Column(csv_cells, _CSV_TEMPLATE, ord("\n"), BLOCK_ROWS)
    out = np.empty((BLOCK_ROWS, _CSV_TEMPLATE.size), np.uint8)
    column.pack(block, out)
    assert column.distinct.size == 3  # the NaN cells count as one value
    assert out.tobytes().translate(None, b"\0").decode() == "".join(
        _expected_cell(v) + "\n" for v in block.tolist())


def test_symmetric_jsa_amplitude_blocks_are_encoded_directly(monkeypatch):
    # the shifted amplitude is bit-symmetric under nu1 <-> nu2, so its blocks
    # repeat values in their first quarter; they are still far from few-valued
    pm = PhaseMatchGaussian(gamma=0.1, a_coef=0.7 / (1e12 * math.sqrt(0.2)))
    grid = jsa_grid(PumpSpectrum(center=1.0, sigma=1e12), pm, RdeShift(2, 1e12), 6e12, 1024)
    assert np.array_equal(grid.values, grid.values.T)
    sizes, distinct = [], dataio._distinct

    def recording(values):
        sizes.append(values.size)
        return distinct(values)

    monkeypatch.setattr(dataio, "_distinct", recording)
    out = np.empty((BLOCK_ROWS, _CSV_TEMPLATE.size), np.uint8)
    amplitude = grid.values.ravel()
    for start in range(0, amplitude.size, BLOCK_ROWS):
        column = _Column(csv_cells, _CSV_TEMPLATE, ord("\n"), BLOCK_ROWS)
        column.pack(amplitude[start:start + BLOCK_ROWS], out)
        assert column.distinct is None  # no block was encoded once per value
    assert sizes == [BLOCK_ROWS // 4 + 1] * (amplitude.size // BLOCK_ROWS)
    block = amplitude[-BLOCK_ROWS:]
    assert out.tobytes().translate(None, b"\0").decode() == "".join(
        _expected_cell(v) + "\n" for v in block.tolist())
    # the nu1 column holds 16 values a block: it still takes encode-once
    sizes.clear()
    column = _Column(csv_cells, _CSV_TEMPLATE, ord("\n"), BLOCK_ROWS)
    column.pack(np.repeat(grid.axis1, 1024)[:BLOCK_ROWS], out)
    assert sizes == [BLOCK_ROWS // 4 + 1, BLOCK_ROWS]
    assert np.array_equal(column.distinct, grid.axis1[:16])


def test_fixed2_products_at_a_half_round_by_their_error(monkeypatch):
    # x.xx5 decimals whose float64 product 100 |x| is exactly k + 1/2
    values = np.array([float(f"{k}5e-3") for k in range(-20_000, 20_000)])
    scaled = np.abs(values) * 100.0
    half = scaled - np.floor(scaled) == 0.5
    values, scaled = values[half], scaled[half]
    errors = {(Fraction(abs(v)) * 100 > Fraction(p)) - (Fraction(abs(v)) * 100 < Fraction(p))
              for v, p in zip(values.tolist(), scaled.tolist())}
    assert errors == {-1, 0, 1}  # rounded up, exact ties and rounded down
    monkeypatch.setattr(dataio, "_exact", None)  # no cell takes Python's format
    text = b"".join(pack_rows([values], fixed2_cells, b" ", BLOCK_ROWS)).decode()
    assert text == "".join(f"{v:.2f} " for v in values.tolist())


def _block_text(values, encode, separator):
    return b"".join(pack_rows([values], encode, separator, BLOCK_ROWS)).decode()


def _scale_powers(values):
    """|11 - e| for each finite nonzero value of decimal exponent e."""
    magnitude = np.abs(values[np.isfinite(values) & (values != 0.0)])
    return np.abs(11 - np.floor(np.log10(magnitude)))


_BLOCK_RNG = np.random.default_rng(20)
_SIGNS = _BLOCK_RNG.choice([-1.0, 1.0], BLOCK_ROWS)
# a full block of one kind each: JSA-axis frequencies with probabilities (one
# exact power of ten scales every value), amplitudes near 1e-32 (three
# factors), every decade of the double range mixed, and a finite block and
# one of NaN, +-inf and +-0 among regular values
ENCODER_BLOCKS = {
    "one_factor": np.where(_BLOCK_RNG.random(BLOCK_ROWS) < 0.5,
                           _SIGNS * _BLOCK_RNG.uniform(0.5e12, 6e12, BLOCK_ROWS),
                           _BLOCK_RNG.uniform(0.45, 0.55, BLOCK_ROWS)),
    "three_factors": _BLOCK_RNG.uniform(0.5, 5.0, BLOCK_ROWS) * 1e-32,
    "mixed": _SIGNS * _BLOCK_RNG.uniform(1.0, 10.0, BLOCK_ROWS)
    * 10.0 ** _BLOCK_RNG.integers(-320, 300, BLOCK_ROWS),
    "finite": _SIGNS * np.round(_BLOCK_RNG.uniform(0.0, 2e6, BLOCK_ROWS),
                                int(_BLOCK_RNG.integers(0, 12))),
    "special": np.where(_BLOCK_RNG.random(BLOCK_ROWS) < 0.25,
                        _BLOCK_RNG.choice([math.nan, math.inf, -math.inf, 0.0, -0.0], BLOCK_ROWS),
                        _SIGNS * _BLOCK_RNG.uniform(1e-4, 1e7, BLOCK_ROWS)),
}


@pytest.mark.parametrize("kind", ENCODER_BLOCKS)
def test_full_blocks_of_each_encoder_branch_match_format_float(kind, monkeypatch):
    values = ENCODER_BLOCKS[kind]
    powers = _scale_powers(values)
    assert {"one_factor": powers.max() <= 22, "three_factors": powers.min() > 22,
            "mixed": powers.max() > 66 and powers.min() <= 22,
            "finite": np.isfinite(values).all(),
            "special": not np.isfinite(values).all() and (values == 0.0).any()}[kind]
    exact, fallback = [], dataio._exact
    monkeypatch.setattr(dataio, "_exact", lambda m, spec: exact.extend(m) or fallback(m, spec))
    assert _block_text(values, csv_cells, b"\n").split("\n")[:-1] == [
        _expected_cell(v) for v in values.tolist()]
    if kind != "mixed":  # there, every value past 10**66 of 1e11 takes the fallback
        assert len(exact) < BLOCK_ROWS / 100  # the tie guard band holds about 0.2%


def test_full_block_of_fixed2_digit_splits_matches_format():
    # 100 |x| near 10**8 (the integer part takes its upper groups), near the
    # 10**11 limit (ten integer digits), and exactly halfway between cents
    n = np.concatenate([10**8 + np.arange(-3000, 3000), 10**11 - np.arange(1, 3000),
                        10**10 + np.arange(-1000, 1000)])
    halves = np.array([float(f"{k}5e-3") for k in _BLOCK_RNG.integers(0, 10**9, 6000).tolist()])
    values = np.concatenate([n / 100.0, (n - 0.5) / 100.0, halves])
    values = (np.resize(values, BLOCK_ROWS) * _SIGNS)[_BLOCK_RNG.permutation(BLOCK_ROWS)]
    assert np.abs(values).max() < dataio.FIXED2_LIMIT
    assert _block_text(values, fixed2_cells, b" ") == "".join(
        f"{v:.2f} " for v in values.tolist())


def test_none_and_nan_give_empty_cells(tmp_path):
    path = tmp_path / "gaps.csv"
    write_csv(path, {"a": [1.0, None, math.nan], "b": np.array([math.nan, -0.0, 2.0])})
    assert path.read_text().splitlines()[1:] == ["1,", ",0", ",2"]


def _padded(v):
    return f"  {v!r}\t"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    extra=st.sets(st.integers(0, BLOCK_ROWS + 299), max_size=25),
    empty=st.sets(st.integers(0, 3 * (BLOCK_ROWS + 300) - 1), max_size=25),
    padded=st.sets(st.integers(0, 3 * (BLOCK_ROWS + 300) - 1), max_size=25),
)
def test_read_round_trips_long_documents(tmp_path, extra, empty, padded):
    """Blank and comment lines between rows, padded and empty cells, across blocks."""
    n = BLOCK_ROWS + 300
    values = np.random.default_rng(len(extra)).normal(size=(n, 3)) * 1e-7
    expected = values.copy()
    lines = ["# tool=test", "", "a, b ,c"]
    rows = values.tolist()
    for i in range(n):
        if i in extra:
            lines += ["", "   ", f"# row{i} = {i}", "#no value here"]
        cells = []
        for j in range(3):
            k = 3 * i + j
            if k in empty:
                expected[i, j] = math.nan
                cells.append(" " if k in padded else "")
            else:
                cells.append(_padded(rows[i][j]) if k in padded else repr(rows[i][j]))
        lines.append(",".join(cells))
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size > READ_CHARS
    meta, columns = read_csv(path)
    assert meta == {"tool": "test", **{f"row{i}": str(i) for i in extra}}
    assert list(columns) == ["a", "b", "c"]
    got = np.column_stack([columns["a"], columns["b"], columns["c"]])
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "bad,message",
    [("1.0", "row has 1 cells, expected 2"), ("1.0,2.0,3.0", "row has 3 cells, expected 2"),
     ("1.0, spam", "bad numeric cell 'spam'"), ("1.0,#2", "bad numeric cell '#2'")],
)
def test_bad_row_in_second_block_keeps_its_error(tmp_path, bad, message):
    n = READ_CHARS // 16
    rows = [f"{i}.125,{i}.5" for i in range(n)]  # 16 or more characters a line
    rows[n - 9] = bad
    rows[n - 7] = "1.0"  # a later fault must not be the one reported
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"malformed CSV: {message}"):
        read_csv(path)


def test_empty_cell_in_one_block_leaves_the_others_intact(tmp_path):
    n = READ_CHARS // 8
    x = np.arange(n, dtype=float)
    y = x / 7.0
    y[n // 2] = math.nan
    path = tmp_path / "doc.csv"
    write_csv(path, {"x": x, "y": y})
    assert path.stat().st_size > 2 * READ_CHARS
    _, columns = read_csv(path)
    np.testing.assert_array_equal(columns["x"], x)
    np.testing.assert_allclose(columns["y"], y, rtol=1e-11)
    assert np.isnan(columns["y"]).sum() == 1


def _float_per_cell(path):
    """The data rows of a document, each cell parsed by float(); an empty cell is NaN."""
    lines = path.read_text().split("\n")[1:-1]
    rows = [[float(cell.strip() or "nan") for cell in line.split(",")] for line in lines if line]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _read_bits(path):
    _, columns = read_csv(path)
    return np.column_stack(list(columns.values())).view(np.int64)


def _random_doubles(n, seed):
    """Finite doubles of every exponent: random bit patterns, the non-finite ones dropped."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def test_read_gives_the_bits_of_float_on_written_documents(tmp_path):
    values = np.concatenate([_random_doubles(60_000, 1), EDGE_VALUES, NEAR_TIES])
    values = np.resize(values, (values.size // 3) * 3).reshape(-1, 3)
    path = tmp_path / "written.csv"
    write_csv(path, {"a": values[:, 0], "b": values[:, 1], "c": values[:, 2]})
    assert path.stat().st_size > READ_CHARS
    np.testing.assert_array_equal(_read_bits(path), _float_per_cell(path).view(np.int64))


def test_read_gives_the_bits_of_float_on_17_digit_text(tmp_path):
    values = _random_doubles(40_000, 2)
    values = np.concatenate([values, values * 1e-300, 1.0 + values[:1000] * 1e-308])
    values = values[: (values.size // 2) * 2].reshape(-1, 2)
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header="x,y", comments="")
    np.testing.assert_array_equal(_read_bits(path), values.view(np.int64))
    np.testing.assert_array_equal(_read_bits(path), _float_per_cell(path).view(np.int64))


@pytest.mark.parametrize("row", [
    "  1.5\t, 2e-3  ", "1_0,2_000.5", "nan,-inf", "Infinity,-Infinity", "NaN, inf ", "-0,+0",
    "1e400,-1e-400", "0.1,0.30000000000000004",
])
def test_read_gives_the_bits_of_float_on_odd_cells(tmp_path, row):
    path = tmp_path / "odd.csv"
    path.write_text("x,y\n" + "\n".join([row] * 3 + ["1,2"]) + "\n")
    np.testing.assert_array_equal(_read_bits(path), _float_per_cell(path).view(np.int64))


@pytest.mark.parametrize("rows,message", [
    (["1,2", "3"], "row has 1 cells, expected 2"),
    (["1,2", "3,4,5"], "row has 3 cells, expected 2"),
    (["1,2", "3,spam"], "bad numeric cell 'spam'"),
    (["1,2", "3,1,0"], "row has 3 cells, expected 2"),
    (["1,2", "3, 4 5"], "bad numeric cell '4 5'"),
])
def test_malformed_rows_keep_their_messages(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"^malformed CSV: {message}$"):
        read_csv(path)


def test_empty_cells_read_as_nan(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n1,\n,2\n , \n3,4\n")
    _, columns = read_csv(path)
    np.testing.assert_array_equal(columns["x"], [1.0, math.nan, math.nan, 3.0])
    np.testing.assert_array_equal(columns["y"], [math.nan, 2.0, math.nan, 4.0])


@pytest.mark.parametrize("blank", ["\n", "\n \t\n"])
def test_blank_tail_after_a_block_boundary_reads_quietly(tmp_path, capfd, blank):
    rows = np.arange(2000.0).reshape(-1, 2)
    path = tmp_path / "tail.csv"
    write_csv(path, {"x": rows[:, 0], "y": rows[:, 1]})
    with open(path, "a") as fh:
        fh.write(blank * (READ_CHARS // len(blank) + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, columns = read_csv(path)
    np.testing.assert_array_equal(np.column_stack([columns["x"], columns["y"]]), rows)
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# memory guards: block-wise text must not grow with the whole document


def _traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _jsa_shaped(n):
    axis = np.linspace(-6e12, 6e12, n) + 2.3e15
    d = np.subtract.outer(axis, axis[::-1])
    amplitude = np.exp(-(d / 3e12) ** 2)
    return {"nu1": np.repeat(axis, n), "nu2": np.tile(axis, n), "amplitude": amplitude.ravel()}


def test_write_and_read_memory_stays_bounded(tmp_path):
    path = tmp_path / "jsa.csv"
    columns = _jsa_shaped(512)
    assert _traced_peak_mb(lambda: write_csv(path, columns, {"grid": 512})) <= 16.0
    del columns
    assert _traced_peak_mb(lambda: read_csv(path)) <= 32.0
