"""CSV documents with metadata headers, plus canonical number formatting.

Layout: comment lines ``# key=value`` first, then one column-name line,
then numeric rows.  Values are written with 12 significant digits, using
scientific notation outside [1e-3, 1e6), so a write/read round trip
reproduces them to 12 significant digits.  Missing cells are empty strings
and read back as NaN.  No header text holds a line break, and no column
name a comma.

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
from functools import cache, reduce
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
# A cell is a row of slots in text order, written as a few pieces, each one
# little-endian word looked up in a table and stored at the piece's slot: a
# sign and "0.00" prefix, m's digits four at a time with the decimal point
# among them, the exponent.  Every slot a cell does not use holds NUL, and no
# cell contains NUL, so deleting the NULs of a block of rows leaves its text.
# A word may run past its piece into the slots of the next one, which is
# stored after it.  The last slot of a row, the cell's separator, is left to
# the caller.

# the four digits of 0..9999, most significant first, as one ASCII word each,
# built from np.indices so that importing runs few numpy kernels
_DIGITS4 = np.indices((10,) * 4, np.uint8).reshape(4, 10_000)
_DIGITS4_WORDS = (_DIGITS4.T + ord("0")).copy().view(np.uint32).ravel()


def _zeros4(digits: np.ndarray) -> np.ndarray:
    """The number of leading zeros of each column of four digits."""
    return np.cumprod(digits == 0, axis=0, dtype=np.int8).sum(axis=0, dtype=np.int8)


# exact powers of ten (10**k is a double for k <= 22), as three factors whose
# product is 10**k for each k <= 66 (past it, the fallback)
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_SPLIT = _POW10[np.clip(np.arange(400) - np.array([[0], [22], [44]]), 0, 22)]
# the float64 mantissa is off by at most 2**-11 from the exact scaled value,
# so a cell this close to a rounding tie is decided by the exact fallback
_TIE_GUARD = 2.0**-10


def _words(texts: list[bytes], size: int = 8) -> np.ndarray:
    """Each text, NUL-padded to ``size`` bytes, as one little-endian word."""
    return np.array(texts, f"S{size}").view(f"<u{size}")


def _put(cells: np.ndarray, slot: int, words: np.ndarray) -> None:
    """Store one word per row of ``cells`` from byte ``slot`` on."""
    cells[:, slot:slot + words.itemsize].view(words.dtype)[:, 0] = words


def _special(cells: np.ndarray, values: np.ndarray, odd: np.ndarray, texts: list[bytes]) -> None:
    """Write the whole cells of the rows ``odd``: the texts of NaN, inf, -inf, any other."""
    v = values[odd]
    kind = np.select([np.isnan(v), v == np.inf, v == -np.inf], [0, 1, 2], 3)
    table = np.array(texts, f"S{cells.shape[1] - 1}").view(np.uint8).reshape(len(texts), -1)
    cells[odd, :-1] = table[kind]


# CSV slots: the sign and "0.00" (0-4), digits d0-d3 and maybe a point (5-9),
# d4-d7 and maybe a point (10-14), d8-d11 (15-18), "e+123" (19-23), separator
_CSV_TEMPLATE = np.zeros(25, np.uint8)  # an empty cell
# four digits as written, and with the trailing zeros after the point dropped
# (then the point too, if no digit follows it), for each place of the point:
# before them (all fraction), after the first 1-4 of them, or none (all integer)
_POINTS = (0, 1, 2, 3, 4, None)


@cache
def _digit_pieces() -> tuple[np.ndarray, np.ndarray]:
    """The table of four-digit pieces, index (variant * 2 + trimmed) * 10_000 +
    digits, and its trimmed all-fraction pieces as 4-byte words; built on first use."""
    digits = _DIGITS4_WORDS.astype(np.uint64)
    last = 3 - _zeros4(_DIGITS4[::-1])  # the last nonzero digit, -1 for 0000
    keep = []  # per variant and last nonzero digit + 1, 0xFF in each slot a trimmed piece keeps
    for p in _POINTS:
        fraction = 4 if p is None else p  # the first digit after the point
        order = [*range(4)]  # the digit (or, as -1, the point) in each slot
        if p:
            order.insert(p, -1)
        keep.append([sum(0xFF << 8 * slot for slot, k in enumerate(order)
                         if (last >= fraction if k < 0 else k < fraction or k <= last))
                     for last in range(-1, 4)])
    # in place, to touch no memory but the table: the digits before the point
    # stay, the point goes in, the rest move up a slot
    point = [p or 0 for p in _POINTS]
    pieces = np.empty((len(_POINTS), 2, 10_000), np.uint64)
    written, trimmed = pieces[:, 0], pieces[:, 1]
    np.bitwise_and(digits, np.array([[(1 << 8 * p) - 1] for p in point], np.uint64), out=written)
    np.subtract(digits, written, out=trimmed)
    np.left_shift(trimmed, np.array([[8 if p else 0] for p in point], np.uint64), out=trimmed)
    written |= trimmed
    written |= np.array([[ord(".") << 8 * p if p else 0] for p in point], np.uint64)
    np.take(np.array(keep, np.uint64), last + 1, axis=1, out=trimmed)
    trimmed &= written
    return pieces.ravel(), trimmed[0].astype(np.uint32)


# per layout (plain with decimal exponent -3..6, then scientific): the digits
# before the point, and the prefix of a plain value below 1
_LAYOUT_POINT = [0, 0, 0, *range(1, 8), 1]
_LAYOUT_PREFIX = [b"0.00", b"0.0", b"0.", *[b""] * 8]
_SCIENTIFIC = len(_LAYOUT_POINT) - 1
_HEAD_BASE = np.array([min(p, 5) * 20_000 for p in _LAYOUT_POINT])
_MID_BASE = np.array([max(p - 4, 0) * 20_000 for p in _LAYOUT_POINT])
# index layout * 2 + negative
_SIGN_PREFIX = _words([sign + prefix.ljust(4, b"\0") for prefix in _LAYOUT_PREFIX
                       for sign in (b"\0", b"-")])
# "e+05" or "e-123" in slots 19-23 of a word stored at slot 16, for each
# exponent from -324, then none
_EXPONENT_PIECES = _words([(b"\0\0\0e%c\0%02d" if abs(e) < 100 else b"\0\0\0e%c%d")
                           % (b"-+"[e >= 0], abs(e)) for e in range(-324, 309)] + [b""])
_NO_EXPONENT = _EXPONENT_PIECES.size - 1


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


def _mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 12-digit integer m and decimal exponent e of each x > 0, x = m 10**(e - 11)."""
    exponent = np.floor(np.log10(x)).astype(np.int64)
    k = 11 - exponent  # scale by 10**|k|, up or down, in at most three exact factors
    negative = k.min() < 0
    if negative:
        k = np.abs(k)
    # one factor when every |k| <= 22: the other two would be 1.0
    factors = [row.take(k) for row in _POW10_SPLIT[:1 if k.max() <= 22 else 3]]
    with np.errstate(over="ignore"):  # in the branch np.where drops
        scaled = reduce(np.multiply, factors, x)
        if negative:
            scaled = np.where(exponent <= 11, scaled, reduce(np.divide, factors, x))
    m = np.rint(scaled)
    # a value that rounds up into the next decade takes the fallback too
    exact = ((np.abs(scaled - m) > 0.5 - _TIE_GUARD) | (scaled < 1e11)
             | (scaled >= 1e12 - 0.5))
    if len(factors) > 1:
        exact |= k > 66
    exact = np.flatnonzero(exact)
    m[exact] = 0.0
    m = m.astype(np.int64)
    if exact.size:
        texts = _exact(x[exact], ".11e")
        m[exact] = [int(t[0] + t[2:13]) for t in texts]
        exponent[exact] = [int(t[14:]) for t in texts]
    return m, exponent


def csv_cells(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write the CSV cells of ``values`` into the rows of ``cells`` and return it.

    A cell's text is format_float's, except that NaN is an empty cell.  The
    last slot of each row, the separator, is left as it is.
    """
    magnitude = np.abs(values)
    regular = (magnitude > 0.0) & (magnitude < np.inf)
    special = not regular.all()
    m, exponent = _mantissas(np.where(regular, magnitude, 1.0) if special else magnitude)
    plain = (magnitude >= 1e-3) & (magnitude < 1e6)
    layout = np.where(plain, exponent + 3, _SCIENTIFIC)
    head = m // 100_000_000  # digits d0-d3
    rest = m - head * 100_000_000
    mid = rest // 10_000  # d4-d7
    low = rest - mid * 10_000  # d8-d11
    pieces, fractions = _digit_pieces()
    # a piece is trimmed when every digit after it is 0
    _put(cells, 0, _SIGN_PREFIX.take(layout * 2 + (values < 0.0)))
    _put(cells, 5, pieces.take(_HEAD_BASE.take(layout) + (rest == 0) * 10_000 + head))
    _put(cells, 10, pieces.take(_MID_BASE.take(layout) + (low == 0) * 10_000 + mid))
    _put(cells, 16, _EXPONENT_PIECES.take(np.where(plain, _NO_EXPONENT, exponent + 324)))
    _put(cells, 15, fractions.take(low))
    if special:
        _special(cells, values, np.flatnonzero(~regular), [b"", b"inf", b"-inf", b"0"])
    return cells


# "%.2f" slots: the sign (0), the integer part's digits in groups of 2, 4 and 4
# (1-2, 3-6, 7-10), the point and two decimals (11-13), separator
_FIXED2_TEMPLATE = np.zeros(15, np.uint8)
# below this, 100 |x| rounds to at most 11 digits
FIXED2_LIMIT = 1e9


@cache
def _integer_groups() -> np.ndarray:
    """Four digits as written, with their leading zeros dropped, and with those
    but the units digit dropped: index form * 10_000 + digits; built on first use."""
    keep = np.array([0xFFFFFFFF << 8 * n & 0xFFFFFFFF for n in range(5)], np.uint32)
    leading = _zeros4(_DIGITS4)
    return np.tile(_DIGITS4_WORDS, 3) & keep[np.concatenate([0 * leading, leading,
                                                             np.minimum(leading, 3)])]


# ".25" in slots 11-13 of a word stored at slot 10
_CENTS = _words([b"\0.%02d" % c for c in range(100)], 4)


def fixed2_cells(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """As csv_cells, for the ``"{:.2f}".format`` cells of ``values``.

    Finite values must be smaller than FIXED2_LIMIT in magnitude.
    """
    magnitude = np.abs(values)
    finite = magnitude < np.inf
    special = not finite.all()
    scaled = np.where(finite, magnitude, 0.0) if special else magnitude
    if (scaled >= FIXED2_LIMIT).any():
        raise ValueError(f"cannot format values of {FIXED2_LIMIT:g} or more with 2 decimals")
    scaled = scaled * 100.0
    n = np.rint(scaled)
    # the product rounds to the same side of every other half as the exact
    # 100 |x|; at a product of exactly k + 1/2 the sign of its rounding error
    # decides (a zero error is an exact tie, which rint sends to even)
    half = np.flatnonzero(scaled - np.floor(scaled) == 0.5)
    if half.size:
        error = _product_error(magnitude[half], 100.0, scaled[half])
        n[half] = np.where(error == 0.0, n[half], scaled[half] + np.copysign(0.5, error))
    n = n.astype(np.int64)
    whole = n // 100
    top = whole // 10_000  # at most 100_000
    units = whole - top * 10_000
    sign = np.signbit(values).astype(np.uint64) * ord("-")
    groups = _integer_groups()
    if top.any():
        # two digits (leading zeros dropped), then four (theirs dropped below 10**8)
        head = top // 10_000
        upper = groups.take(top - head * 10_000 + (head == 0) * 10_000).astype(np.uint64) << 16
        sign |= (upper | groups.take(head + 10_000) >> 16) << 8
    _put(cells, 0, sign)
    _put(cells, 10, _CENTS.take(n - whole * 100))
    _put(cells, 7, groups.take(units + (top == 0) * 20_000))
    if special:
        _special(cells, values, np.flatnonzero(~finite), [b"nan", b"inf", b"-inf"])
    return cells


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
        self.separator = separator
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
            self.encode(block, out)
            out[:, -1] = self.separator
            return
        if self.cells is None or not np.array_equal(distinct, self.distinct, equal_nan=True):
            self.distinct, self.cells = distinct, self.encode(distinct, self.chars[:distinct.size])
        # whole cells as single items: one contiguous take, then one strided copy
        cells = self.cells.view(f"V{self.cells.shape[1]}")[:, 0]
        out.view(cells.dtype)[:, 0] = cells.take(np.searchsorted(distinct, block))  # NaN sorts last


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
    meta = {f"{key}": format_float(v) if isinstance(v, float) else f"{v}"
            for key, v in (meta or {}).items()}
    # a line break (or, in a column name, a comma) would change the document's structure
    bad = [text for text in [*meta, *meta.values()] if "\n" in text or "\r" in text]
    bad += [name for name in names if any(c in name for c in "\n\r,")]
    if bad:
        raise ValueError(f"CSV header text must not hold a line break, nor a column name "
                         f"a comma: {bad[0]!r}")
    header = [f"# {key}={value}\n" for key, value in meta.items()]
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
