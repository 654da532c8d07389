"""CSV documents with metadata headers, plus canonical number formatting.

Layout: comment lines ``# key=value`` first, then one column-name line,
then numeric rows.  Values are written with 12 significant digits, using
scientific notation outside [1e-3, 1e6), so a write/read round trip
reproduces them to 12 significant digits.  Missing cells are empty strings
and read back as NaN.

Rows are encoded by numpy a block at a time into one row buffer of slot
bytes, which one NUL-delete turns into text.  Each value's 12-digit
mantissa and decimal exponent come from float64 scaling by exact powers of
ten, or from Python's correctly rounded ``format`` near a rounding tie, so
every cell is exactly ``format_float``'s text, the one scalar definition.

Reading parses a block of rows with numpy's C text reader, which converts
each cell with the same correctly rounded ``PyOS_string_to_double`` as
``float``; a block it rejects is read line by line, where an empty cell is
NaN and a malformed row or cell is reported.
"""

from __future__ import annotations

import io
import math
from itertools import repeat
from typing import Iterator, Mapping, Sequence

import numpy as np


def format_float(x: float) -> str:
    """Canonical decimal text for one value.

    Plain notation inside [1e-3, 1e6), scientific outside it, 12
    significant digits either way, with trailing zeros trimmed from
    scientific mantissas.
    """
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    ax = abs(x)
    if 1e-3 <= ax < 1e6:
        return f"{x:.12g}"
    mantissa, exponent = f"{x:.11e}".split("e")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{exponent}"


# rows formatted per step: big enough that the per-block numpy calls are
# amortized, small enough that the bytes of one block stay about a MB
BLOCK_ROWS = 1 << 14
# characters read per step, about BLOCK_ROWS lines of a written document
READ_CHARS = 1 << 20

# ---------------------------------------------------------------------------
# Cell text as bytes, many cells at once.  Every finite nonzero value becomes
# a 12-digit integer m and a decimal exponent, computed in float64 where up
# to three multiplications by exact powers of ten keep the scaled value
# within 2**-11 of the exact one, and taken from Python's correctly rounded
# format near a rounding tie, a decade edge or the ends of the double range.
# Each cell is then written into a row of slots that holds, in text order,
# every byte a cell of its kind can contain.  The cell's layout code (and, in
# CSV cells, the index of m's last nonzero digit, which trims trailing
# zeros) selects a row of 0x00/0xFF bytes that is ANDed in, so each dropped
# slot becomes NUL; no cell contains NUL, so deleting the NULs of a block of
# rows leaves its text.

# the four digits of 0..9999, most significant first, as one ASCII word each,
# and their trailing zeros, built from np.indices so that importing runs few
# numpy kernels
_DIGITS4 = np.indices((10,) * 4, np.uint8).reshape(4, 10_000)
_DIGITS4_WORDS = (_DIGITS4.T + ord("0")).copy().view(np.uint32).ravel()
_TRAILING_ZEROS4 = np.cumprod(_DIGITS4[::-1] == 0, axis=0, dtype=np.int8).sum(axis=0, dtype=np.int8)
# exact powers of ten (10**k is a double for k <= 22), three to a row whose
# product is 10**k for each k = |11 - exponent| <= 66 (past it, the fallback)
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_SPLIT = _POW10[np.clip(np.arange(400)[:, None] - [0, 22, 44], 0, 22)]
# the float64 mantissa is off by at most 2**-11 from the exact scaled value,
# so a cell this close to a rounding tie is decided by the exact fallback
_TIE_GUARD = 2.0**-10
_ALWAYS, _NEVER = -1, 99


def _digits(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 12 ASCII digits of each m < 1e12 and the index of its last nonzero digit."""
    head, low = np.divmod(m, 10_000)
    top, mid = np.divmod(head, 10_000)
    words = np.empty((m.size, 3), np.uint32)
    words[:, 0] = _DIGITS4_WORDS[top]
    words[:, 1] = _DIGITS4_WORDS[mid]
    words[:, 2] = _DIGITS4_WORDS[low]
    last = np.where(low != 0, 11 - _TRAILING_ZEROS4[low],
                    np.where(mid != 0, 7 - _TRAILING_ZEROS4[mid], 3 - _TRAILING_ZEROS4[top]))
    return words.view(np.uint8), last


def _thresholds(slots: bytes, layouts: list[list[tuple[int, int]]]) -> np.ndarray:
    """Per layout and slot, the least last-digit index that keeps the slot.

    Slot 0 (the sign, written per cell as "-" or NUL) and the final slot (the
    separator) are always kept.
    """
    threshold = np.full((len(layouts), len(slots)), _NEVER, np.int8)
    for code, layout in enumerate(layouts):
        for slot, keep in layout:
            threshold[code, slot] = keep
    threshold[:, [0, -1]] = _ALWAYS
    return threshold


# CSV slots: sign, "0.00" before small plain values, the digits with a point
# after each of the first seven, the exponent, "inf", the separator
_CSV_SLOTS = b"-0.00" + b"0." * 7 + b"00000" + b"e+000" + b"inf" + b","
_CSV_DIGIT = [5 + 2 * k for k in range(7)] + [12 + k for k in range(7, 12)]
_CSV_E, _CSV_SIGN, _CSV_EXP, _CSV_INF = 24, 25, 26, 29


def _plain(e: int) -> list[tuple[int, int]]:
    """"%.12g" fixed notation of a value with decimal exponent e."""
    fraction = [(_CSV_DIGIT[k], k) for k in range(max(e + 1, 1), 12)]
    if e < 0:
        return [(1, _ALWAYS), (2, _ALWAYS), *[(3 + k, _ALWAYS) for k in range(-e - 1)],
                (_CSV_DIGIT[0], _ALWAYS), *fraction]
    return [*[(_CSV_DIGIT[k], _ALWAYS) for k in range(e + 1)], (_CSV_DIGIT[e] + 1, e + 1),
            *fraction]


def _scientific(exp_digits: int) -> list[tuple[int, int]]:
    """".11e" notation with trailing zeros (and then a bare point) trimmed."""
    return [(_CSV_DIGIT[0], _ALWAYS), (_CSV_DIGIT[0] + 1, 1),
            *[(_CSV_DIGIT[k], k) for k in range(1, 12)], (_CSV_E, _ALWAYS), (_CSV_SIGN, _ALWAYS),
            *[(_CSV_EXP + k, _ALWAYS) for k in range(3 - exp_digits, 3)]]


# codes 0-9: plain with exponent -3..6; then scientific, zero, inf, NaN
_PLAIN_MIN_EXP = -3
_SCI2, _SCI3, _ZERO_CELL, _INF_CELL, _NAN_CELL = 10, 11, 12, 13, 14
# rows code * 12 + last, 0xFF in each slot kept
_CSV_KEEP = np.uint8(0xFF) * (_thresholds(_CSV_SLOTS, [
    *map(_plain, range(_PLAIN_MIN_EXP, 7)), _scientific(2), _scientific(3),
    [(1, _ALWAYS)], [(_CSV_INF + k, _ALWAYS) for k in range(3)], [],
])[:, None, :] <= np.arange(12)[:, None]).reshape(-1, len(_CSV_SLOTS))
_CSV_TEMPLATE = np.frombuffer(_CSV_SLOTS, np.uint8)

# "%.2f" slots: sign, ten integer digits, point, two decimals, "inanf", separator
_FIXED2_SLOTS = b"-" + b"0" * 10 + b"." + b"00" + b"inanf" + b" "
# codes 0-9 hold 1..10 integer digits, then NaN and inf
_FIXED2_KEEP = np.uint8(0xFF) * (_thresholds(_FIXED2_SLOTS, [
    *([(slot, _ALWAYS) for slot in range(11 - n, 14)] for n in range(1, 11)),
    [(15, _ALWAYS), (16, _ALWAYS), (17, _ALWAYS)], [(14, _ALWAYS), (15, _ALWAYS), (18, _ALWAYS)],
]) == _ALWAYS)
_FIXED2_NAN, _FIXED2_INF = 10, 11
_FIXED2_TEMPLATE = np.frombuffer(_FIXED2_SLOTS, np.uint8)
# below this, 100 |x| rounds to at most 11 digits
FIXED2_LIMIT = 1e9
_FIXED2_STEPS = np.array([10**k for k in range(3, 12)])


def _exact(magnitudes: np.ndarray, spec: str) -> list[str]:
    """Python's correctly rounded text of each magnitude."""
    return list(map(format, magnitudes.tolist(), repeat(spec)))


def _product_error(a: np.ndarray, b: float, product: np.ndarray) -> np.ndarray:
    """a * b - product exactly, for product the float64 a * b and b of at most 26 bits.

    Dekker's two-product (Numer. Math. 18, 224, 1971): a splits into two
    halves of 26 bits whose products with b, and their differences from
    product, are exact.
    """
    big = a * 134217729.0  # 2**27 + 1
    high = big - (big - a)
    return (high * b - product) + (a - high) * b


def csv_cells(values: np.ndarray, chars: np.ndarray, out=None) -> np.ndarray:
    """The CSV cells of ``values``, NUL in every slot a cell drops, into ``out`` if given.

    ``chars`` holds a row of slot bytes per value, whose sign, digit and
    exponent slots are written here.  A cell's text is format_float's,
    except that NaN is an empty cell.
    """
    magnitude = np.abs(values)
    regular = np.isfinite(magnitude) & (magnitude != 0.0)
    x = np.where(regular, magnitude, 1.0)
    exponent = np.floor(np.log10(x)).astype(np.int64)
    # scale by 10**(11 - exponent) in up to three exact factors
    k = np.abs(11 - exponent)
    f1, f2, f3 = _POW10_SPLIT[k].T
    with np.errstate(over="ignore"):  # in the branch np.where drops
        scaled = np.where(exponent <= 11, x * f1 * f2 * f3, x / f1 / f2 / f3)
    fraction = scaled - np.floor(scaled)
    exact = regular & ((k > 66) | (scaled < 1e11) | (scaled >= 1e12)
                       | (np.abs(fraction - 0.5) < _TIE_GUARD))
    scaled[exact] = 1e11
    m = np.rint(scaled).astype(np.int64)
    carry = m == 10**12  # rounded up into the next decade
    m[carry] = 10**11
    exponent += carry
    if exact.any():
        texts = _exact(magnitude[exact], ".11e")
        m[exact] = [int(t[0] + t[2:13]) for t in texts]
        exponent[exact] = [int(t[14:]) for t in texts]
    code = np.select(
        [np.isnan(magnitude), np.isinf(magnitude), magnitude == 0.0,
         (magnitude >= 1e-3) & (magnitude < 1e6), np.abs(exponent) < 100],
        [_NAN_CELL, _INF_CELL, _ZERO_CELL, exponent - _PLAIN_MIN_EXP, _SCI2],
        _SCI3,
    )
    digits, last = _digits(m)
    chars[:, _CSV_DIGIT[0]:_CSV_DIGIT[7]:2] = digits[:, :7]
    chars[:, _CSV_DIGIT[7]:_CSV_E] = digits[:, 7:]
    # four exponent digits over the sign slot, then the sign
    chars[:, _CSV_SIGN:_CSV_EXP + 3].view(np.uint32)[:, 0] = _DIGITS4_WORDS[np.abs(exponent)]
    chars[:, _CSV_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    chars[:, 0] = np.where(values < 0.0, ord("-"), 0)
    return np.bitwise_and(chars, _CSV_KEEP.take(code * 12 + last, axis=0), out=out)


def fixed2_cells(values: np.ndarray, chars: np.ndarray, out=None) -> np.ndarray:
    """As csv_cells, for the ``"{:.2f}".format`` cells of ``values``.

    Finite values must be smaller than FIXED2_LIMIT in magnitude.
    """
    magnitude = np.abs(values)
    finite = np.isfinite(magnitude)
    scaled = np.where(finite, magnitude, 0.0)
    if (scaled >= FIXED2_LIMIT).any():
        raise ValueError(f"cannot format values of {FIXED2_LIMIT:g} or more with 2 decimals")
    scaled *= 100.0
    n = np.rint(scaled)
    # the product rounds to the same side of every other half as the exact
    # 100 |x|; at a product of exactly k + 1/2 the sign of its rounding error
    # decides (a zero error is an exact tie, which rint sends to even)
    half = np.flatnonzero(scaled - np.floor(scaled) == 0.5)
    if half.size:
        error = _product_error(magnitude[half], 100.0, scaled[half])
        n[half] = np.where(error == 0.0, n[half], scaled[half] + np.copysign(0.5, error))
    n = n.astype(np.int64)
    nan = np.isnan(values)
    code = np.select([nan, ~finite], [_FIXED2_NAN, _FIXED2_INF],
                     np.searchsorted(_FIXED2_STEPS, n, side="right"))
    digits = _digits(n)[0]
    chars[:, 1:11] = digits[:, :10]
    chars[:, 12:14] = digits[:, 10:]
    chars[:, 0] = np.where(np.signbit(values) & ~nan, ord("-"), 0)
    return np.bitwise_and(chars, _FIXED2_KEEP.take(code, axis=0), out=out)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted, NaN (which sorts last) kept once.

    np.unique would import numpy.ma (about 15 ms in every fresh process).
    """
    ordered = np.sort(values)
    first = np.ones(ordered.size, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    first[np.searchsorted(ordered, np.nan) + 1:] = False
    return ordered[first]


class _Column:
    """One column over the blocks of one call: a copy of its slot template,
    separator last, for each block row, its last block, and the distinct
    values it last encoded once each, with their cells."""

    def __init__(self, encode, template: np.ndarray, separator: int, rows: int):
        self.encode, self.block, self.distinct, self.cells = encode, np.empty(0), None, None
        self.chars = np.tile(template, (rows, 1))
        self.chars[:, -1] = separator

    def pack(self, block: np.ndarray, out: np.ndarray) -> None:
        """Write the cells of ``block`` into ``out``, which holds those of the last block."""
        if np.array_equal(block.view(np.int64), self.block.view(np.int64)):
            return  # the same bits as the last block
        self.block = distinct = block
        if self.encode is csv_cells:
            # a first quarter (and one) holding more than n/8 distinct values
            # sends the block to the direct path without sorting the rest
            if 8 * _distinct(block[:block.size // 4 + 1]).size <= block.size:
                distinct = _distinct(block)
        if 4 * distinct.size > block.size:
            self.encode(block, self.chars[:block.size], out)
            return
        if self.cells is None or not np.array_equal(distinct, self.distinct, equal_nan=True):
            self.distinct, self.cells = distinct, self.encode(distinct, self.chars[:distinct.size])
        np.take(self.cells, np.searchsorted(distinct, block), axis=0, out=out)  # NaN sorts last


def pack_rows(columns, encode, separators: bytes, block_rows: int) -> Iterator[bytes]:
    """The text of rows of cells, each followed by its column's separator, a block at a
    time: ``encode`` (csv_cells or fixed2_cells) writes the columns' cells into one row
    buffer, and one NUL-delete turns a block into text."""
    n_rows = len(columns[0]) if columns else 0
    template = _CSV_TEMPLATE if encode is csv_cells else _FIXED2_TEMPLATE
    rows = np.empty((min(block_rows, n_rows), len(columns), template.size), np.uint8)
    packers = [_Column(encode, template, separator, len(rows)) for separator in separators]
    for start in range(0, n_rows, block_rows):
        block = rows[:n_rows - start]
        for j, (values, packer) in enumerate(zip(columns, packers)):
            packer.pack(values[start:start + block_rows], block[:, j])
        yield block.tobytes().translate(None, b"\0")


def write_csv(
    path,
    columns: Mapping[str, Sequence],
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write named columns with a key=value comment header.

    Column values may contain None for missing cells.  All columns must
    have equal length.  Rows are encoded and written BLOCK_ROWS at a time.
    """
    names = list(columns.keys())
    lengths = {len(columns[n]) for n in names}
    if len(lengths) > 1:
        raise ValueError("all columns must have the same length")
    # None becomes NaN, which is written as an empty cell
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    separators = b"," * (len(names) - 1) + b"\n"
    header = [f"# {key}={format_float(v) if isinstance(v, float) else v}\n"
              for key, v in (meta or {}).items()]
    with open(path, "wb") as fh:
        fh.write("".join([*header, ",".join(names), "\n"]).encode())
        fh.writelines(pack_rows(arrays, csv_cells, separators, BLOCK_ROWS))


def _skip_line(line: str, meta: dict[str, str]) -> bool:
    """True for a blank or comment line; a ``# key=value`` comment goes into meta."""
    if not line.strip():
        return True
    if line.startswith("#"):
        body = line[1:].strip()
        if "=" in body:
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
        return True
    return False


def _parse_numbers(text: str, width: int) -> np.ndarray | None:
    """Lines as rows of ``width`` numbers, or None if any is not one.

    Empty lines are skipped.  A block of only blank lines is None: numpy's
    reader would warn that it holds no data.
    """
    if text.isspace():
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), float, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None  # an empty or bad cell, or a ragged row
    return rows if rows.shape[1] == width else None


def _parse_rows(lines: list[str], width: int) -> np.ndarray:
    """Parse data lines into a (len(lines), width) array; empty cells become NaN."""
    fast = _parse_numbers("\n".join(lines) + "\n", width)
    if fast is not None:
        return fast
    numbers = []
    for line in lines:
        cells = [cell.strip() or "nan" for cell in line.split(",")]  # empty cells are NaN
        if len(cells) != width:
            raise ValueError(f"malformed CSV: row has {len(cells)} cells, expected {width}")
        for cell in cells:
            try:
                numbers.append(float(cell))
            except ValueError as exc:
                raise ValueError(f"malformed CSV: bad numeric cell {cell!r}") from exc
    return np.array(numbers, dtype=float).reshape(-1, width)


def _text_blocks(fh) -> Iterator[str]:
    """The rest of a text file in pieces of whole lines, each ending in a newline."""
    tail = ""
    for chunk in iter(lambda: fh.read(READ_CHARS), ""):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        if cut:
            yield text[:cut]
    if tail:
        yield tail + "\n"


def read_csv(path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Read a document written by :func:`write_csv`.

    Returns the metadata mapping and the columns as float arrays; empty
    cells become NaN.  Raises ValueError on structural problems.  After the
    header, the file is read READ_CHARS at a time; a block of only full
    numeric rows (blank lines aside) is parsed by numpy's C reader, any
    other block line by line.
    """
    meta: dict[str, str] = {}
    names: list[str] | None = None
    blocks: list[np.ndarray] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not _skip_line(line, meta):
                names = [c.strip() for c in line.split(",")]
                if not all(names):
                    raise ValueError("malformed CSV: empty column name")
                break
        if names is None:
            raise ValueError("malformed CSV: no column header line")
        for text in _text_blocks(fh):
            # a comment line is a bad cell to the parser, so its block goes line by line
            rows = _parse_numbers(text, len(names))
            if rows is None:
                data = [line for line in text.split("\n")[:-1] if not _skip_line(line, meta)]
                rows = _parse_rows(data, len(names))
            blocks.append(rows)
    data = np.concatenate(blocks) if blocks else np.empty((0, len(names)))
    return meta, {name: data[:, i] for i, name in enumerate(names)}


def read_hom_trace(path) -> tuple[dict[str, str], np.ndarray, np.ndarray]:
    """Read a coincidence trace CSV; requires ``tau_s`` and ``p`` columns."""
    meta, columns = read_csv(path)
    if "tau_s" not in columns or "p" not in columns:
        raise ValueError("trace CSV must provide 'tau_s' and 'p' columns")
    tau = columns["tau_s"]
    p = columns["p"]
    if np.isnan(tau).any() or np.isnan(p).any():
        raise ValueError("trace CSV must not contain empty cells")
    return meta, tau, p
