"""CSV documents with metadata headers, plus canonical number formatting.

Layout: comment lines ``# key=value`` first, then one column-name line,
then numeric rows.  Values are written with 12 significant digits, using
scientific notation outside [1e-3, 1e6), so a write/read round trip
reproduces them to 12 significant digits.  Missing cells are empty strings
and read back as NaN.

Rows are written as bytes encoded by numpy a block at a time: each value's
12-digit mantissa and decimal exponent come from float64 scaling by exact
powers of ten, and from Python's correctly rounded ``format`` for the few
values near a rounding tie, so every cell is exactly ``format_float``'s
text.  ``format_float`` stays the one scalar definition.
"""

from __future__ import annotations

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

# every byte but the cell and line separators, deleted to check the row shape
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))

# ---------------------------------------------------------------------------
# Cell text as bytes, many cells at once.  Every finite nonzero value becomes
# a 12-digit integer m and a decimal exponent, computed in float64 where up
# to three multiplications by exact powers of ten keep the scaled value
# within 2**-11 of the exact one, and taken from Python's correctly rounded
# format near a rounding tie, a decade edge or the ends of the double range.
# Each cell is then written into a row of slots that holds, in text order,
# every byte a cell of its kind can contain; the cell's layout code (and, in
# CSV cells, the index of m's last nonzero digit, which trims trailing
# zeros) selects the slots it keeps, and np.compress drops the rest.

# the four ASCII digits of 0..9999, one row each, and their trailing zeros,
# filled by broadcasting so that importing runs few numpy kernels
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                indexing="ij"), axis=-1).reshape(10_000, 4)
_DIGITS4_WORDS = _DIGITS4.view(np.uint32).ravel()
_TRAILING_ZEROS4 = np.zeros((10,) * 4, np.int8)
for _zeros in range(1, 5):
    _TRAILING_ZEROS4[(Ellipsis,) + (0,) * _zeros] = _zeros
del _zeros
_TRAILING_ZEROS4 = _TRAILING_ZEROS4.ravel()
# exact powers of ten: 10**k is a double for k <= 22
_POW10 = np.array([float(10**k) for k in range(23)])
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

    Slot 0 (the sign) is set per cell and the final slot (the separator) is
    always kept.
    """
    threshold = np.full((len(layouts), len(slots)), _NEVER, np.int8)
    for code, layout in enumerate(layouts):
        for slot, keep in layout:
            threshold[code, slot] = keep
    threshold[:, -1] = _ALWAYS
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
# rows code * 12 + last
_CSV_KEEP = (_thresholds(_CSV_SLOTS, [
    *map(_plain, range(_PLAIN_MIN_EXP, 7)), _scientific(2), _scientific(3),
    [(1, _ALWAYS)], [(_CSV_INF + k, _ALWAYS) for k in range(3)], [],
])[:, None, :] <= np.arange(12)[:, None]).reshape(-1, len(_CSV_SLOTS))
_CSV_TEMPLATE = np.frombuffer(_CSV_SLOTS, np.uint8)

# "%.2f" slots: sign, ten integer digits, point, two decimals, "inanf", separator
_FIXED2_SLOTS = b"-" + b"0" * 10 + b"." + b"00" + b"inanf" + b" "
# codes 0-9 hold 1..10 integer digits, then NaN and inf
_FIXED2_KEEP = _thresholds(_FIXED2_SLOTS, [
    *([(slot, _ALWAYS) for slot in range(11 - n, 14)] for n in range(1, 11)),
    [(15, _ALWAYS), (16, _ALWAYS), (17, _ALWAYS)], [(14, _ALWAYS), (15, _ALWAYS), (18, _ALWAYS)],
]) == _ALWAYS
_FIXED2_NAN, _FIXED2_INF = 10, 11
_FIXED2_TEMPLATE = np.frombuffer(_FIXED2_SLOTS, np.uint8)
# below this, 100 |x| rounds to at most 11 digits
FIXED2_LIMIT = 1e9
_FIXED2_STEPS = np.array([10**k for k in range(3, 12)])


def _exact(magnitudes: np.ndarray, spec: str) -> list[str]:
    """Python's correctly rounded text of each magnitude."""
    return list(map(format, magnitudes.tolist(), repeat(spec)))


def csv_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot bytes and keep mask of the CSV cells of ``values``.

    A cell's text is format_float's, except that NaN is an empty cell.
    """
    magnitude = np.abs(values)
    regular = np.isfinite(magnitude) & (magnitude != 0.0)
    x = np.where(regular, magnitude, 1.0)
    exponent = np.floor(np.log10(x)).astype(np.int64)
    # scale by 10**(11 - exponent) in up to three exact factors
    k = np.abs(11 - exponent)
    f1, f2, f3 = (_POW10[np.clip(k - 22 * i, 0, 22)] for i in range(3))
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
    chars = np.empty((values.size, _CSV_TEMPLATE.size), np.uint8)
    chars[:] = _CSV_TEMPLATE
    chars[:, _CSV_DIGIT] = digits
    # four exponent digits over the sign slot, then the sign
    chars[:, _CSV_SIGN:_CSV_EXP + 3].view(np.uint32)[:, 0] = _DIGITS4_WORDS[np.abs(exponent)]
    chars[:, _CSV_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    keep = _CSV_KEEP.take(code * 12 + last, axis=0)
    keep[:, 0] = values < 0.0
    return chars, keep


def fixed2_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot bytes and keep mask of ``"{:.2f}".format`` of each value.

    Finite values must be smaller than FIXED2_LIMIT in magnitude.
    """
    magnitude = np.abs(values)
    finite = np.isfinite(magnitude)
    scaled = np.where(finite, magnitude, 0.0)
    if (scaled >= FIXED2_LIMIT).any():
        raise ValueError(f"cannot format values of {FIXED2_LIMIT:g} or more with 2 decimals")
    scaled *= 100.0
    fraction = scaled - np.floor(scaled)
    exact = np.abs(fraction - 0.5) < _TIE_GUARD
    n = np.rint(scaled).astype(np.int64)
    if exact.any():
        n[exact] = [int(t.replace(".", "")) for t in _exact(magnitude[exact], ".2f")]
    nan = np.isnan(values)
    code = np.select([nan, ~finite], [_FIXED2_NAN, _FIXED2_INF],
                     np.searchsorted(_FIXED2_STEPS, n, side="right"))
    chars = np.empty((values.size, _FIXED2_TEMPLATE.size), np.uint8)
    chars[:] = _FIXED2_TEMPLATE
    digits = _digits(n)[0]
    chars[:, 1:11] = digits[:, :10]
    chars[:, 12:14] = digits[:, 10:]
    keep = _FIXED2_KEEP.take(code, axis=0)
    keep[:, 0] = np.signbit(values) & ~nan
    return chars, keep


def join_cells(cells: Sequence[tuple[np.ndarray, np.ndarray]], separators: bytes) -> np.ndarray:
    """The bytes of rows of cells, each cell followed by its column's separator.

    ``cells`` holds one (slot bytes, keep mask) pair per column.
    """
    chars = np.stack([c for c, _ in cells], axis=1)
    keep = np.stack([k for _, k in cells], axis=1)
    chars[:, :, -1] = np.frombuffer(separators, np.uint8)
    return np.compress(keep.ravel(), chars.ravel())


def _column_cells(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSV cells of one column block; a block of few distinct values encodes each once."""
    # np.unique would import numpy.ma (about 15 ms in every fresh process)
    ordered = np.sort(block)
    first = np.ones(ordered.size, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    if 4 * distinct.size > block.size:
        return csv_cells(block)
    chars, keep = csv_cells(distinct)
    inverse = np.searchsorted(distinct, block)  # NaN sorts last in both
    return chars.take(inverse, axis=0), keep.take(inverse, axis=0)


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
    n_rows = lengths.pop() if lengths else 0
    # None becomes NaN, which is written as an empty cell
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    separators = b"," * (len(names) - 1) + b"\n"
    header = [f"# {key}={format_float(v) if isinstance(v, float) else v}\n"
              for key, v in (meta or {}).items()]
    with open(path, "wb") as fh:
        fh.write("".join([*header, ",".join(names), "\n"]).encode())
        for start in range(0, n_rows, BLOCK_ROWS):
            fh.write(join_cells([_column_cells(a[start:start + BLOCK_ROWS]) for a in arrays],
                                separators))


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
    """Newline-terminated lines as rows of ``width`` numbers, or None if any is not one."""
    row_shape = b"," * (width - 1) + b"\n"
    if text.encode().translate(None, _NOT_SEPARATORS) != row_shape * text.count("\n"):
        return None
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # after the final newline
    try:
        return np.fromiter(map(float, cells), float, len(cells)).reshape(-1, width)
    except ValueError:
        return None  # an empty or bad cell


def _parse_rows(lines: list[str], width: int) -> np.ndarray:
    """Parse data lines into a (len(lines), width) array; empty cells become NaN."""
    fast = _parse_numbers("\n".join(lines) + "\n", width)
    if fast is not None:
        return fast
    rows = []
    for line in lines:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"malformed CSV: row has {len(cells)} cells, expected {width}")
        row = []
        for cell in cells:
            cell = cell.strip()
            if not cell:
                row.append(math.nan)
            else:
                try:
                    row.append(float(cell))
                except ValueError as exc:
                    raise ValueError(f"malformed CSV: bad numeric cell {cell!r}") from exc
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, width)


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
    numeric rows is parsed in one pass, any other block line by line.
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
            rows = None if "#" in text else _parse_numbers(text, len(names))
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
