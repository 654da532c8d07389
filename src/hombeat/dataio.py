"""CSV documents with metadata headers, plus canonical number formatting.

Layout: comment lines ``# key=value`` first, then one column-name line,
then numeric rows.  Values are written with 12 significant digits, using
scientific notation outside [1e-3, 1e6), so a write/read round trip
reproduces them to 12 significant digits.  Missing cells are empty strings
and read back as NaN.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
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
# amortized, small enough that the text of one block stays about a MB
# (formatting whole columns at once holds the text of every cell)
BLOCK_ROWS = 1 << 14
# characters read per step, about BLOCK_ROWS lines of a written document
READ_CHARS = 1 << 20

# "%.12g" text equals format_float except for NaN (an empty cell here), -0.0,
# and the two decades where %g and format_float pick different notations;
# the bands are wide enough to cover values that round across 1e-4 or 1e12
_G_EXCEPTION_BANDS = ((5e-5, 1e-3), (1e6, 1e13))

# every byte but the cell and line separators, deleted to check the row shape
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _cell(v: float) -> str:
    """The CSV cell of one value: empty for NaN, else format_float's text."""
    return "" if v != v else format_float(v)


def _format_cells(values: np.ndarray, scratch: tuple[np.ndarray, ...]) -> list[str]:
    """The cells of one column block, NaN empty.

    An axis-like block (a repeat or tile of a few values) formats each
    distinct value once.  Any other block is formatted by one C-level map,
    and the cells "%.12g" gets wrong are found with numpy, writing into the
    same ``scratch`` buffers for every block: fresh block-sized temporaries
    fragment the C heap of a long-lived process (after a few warm-up
    exports, a 1024^2 JSA export then left ~35 MB resident).
    """
    cells = values.tolist()
    distinct = set(cells)
    if 4 * len(distinct) <= len(cells):
        distinct = list(distinct)
        text = dict(zip(distinct, (_cell(v) for v in distinct)))
        return list(map(text.__getitem__, cells))
    texts = list(map(format, cells, repeat(".12g")))
    n = len(cells)
    magnitude, special, a, b = scratch[0][:n], scratch[1][:n], scratch[2][:n], scratch[3][:n]
    np.abs(values, out=magnitude)
    np.isnan(values, out=special)
    np.equal(values, 0.0, out=a)
    np.signbit(values, out=b)
    a &= b  # -0.0
    special |= a
    for lo, hi in _G_EXCEPTION_BANDS:
        np.greater_equal(magnitude, lo, out=a)
        np.less(magnitude, hi, out=b)
        a &= b
        special |= a
    for i in compress(range(n), special.tolist()):
        texts[i] = _cell(cells[i])
    return texts


def write_csv(
    path,
    columns: Mapping[str, Sequence],
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write named columns with a key=value comment header.

    Column values may contain None for missing cells.  All columns must
    have equal length.  Rows are formatted and written BLOCK_ROWS at a time.
    """
    names = list(columns.keys())
    lengths = {len(columns[n]) for n in names}
    if len(lengths) > 1:
        raise ValueError("all columns must have the same length")
    n_rows = lengths.pop() if lengths else 0
    # None becomes NaN, which is written as an empty cell
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    scratch = (np.empty(BLOCK_ROWS), *(np.empty(BLOCK_ROWS, dtype=bool) for _ in range(3)))
    with open(path, "w", newline="\n") as fh:
        for key, value in (meta or {}).items():
            if isinstance(value, float):
                value = format_float(value)
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            texts = [_format_cells(a[start:start + BLOCK_ROWS], scratch) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


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
