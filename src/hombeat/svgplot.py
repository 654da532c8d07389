"""Minimal self-contained SVG 1.1 rendering: line plots and heatmaps.

These are visual aids for the exported CSV data, not a plotting framework:
fixed canvases and margins, five ticks per axis, a short list of series
colors and a simple heat colormap.  Each axis spans a finite range, so every
point is a canvas pixel, written as "%.2f" text.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dataio import fixed2_cells, pack_rows

# polyline points and heatmap cells encoded per step, so a long trace or a
# big map never becomes one whole-document text
BLOCK_POINTS = 1 << 14

_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _short(x: float) -> str:
    if x == 0:
        return "0"
    if 1e-3 <= abs(x) < 1e4:
        return f"{x:.4g}"
    return f"{x:.3e}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * (i / (n - 1)) for i in range(n)]  # (hi - lo) * i may overflow


def _svg_header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _axes(parts, x0, y0, x1, y1, xlo, xhi, ylo, yhi, xlabel, ylabel, title):
    parts.append(
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(xlo, xhi):
        px = x0 + (tx - xlo) / (xhi - xlo) * (x1 - x0) if xhi != xlo else x0
        parts.append(f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y1 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y1 + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{_short(tx)}</text>'
        )
    for ty in _ticks(ylo, yhi):
        py = y1 - (ty - ylo) / (yhi - ylo) * (y1 - y0) if yhi != ylo else y1
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{_short(ty)}</text>'
        )
    cx = (x0 + x1) / 2
    parts.append(
        f'<text x="{cx}" y="{y1 + 36}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2})">{ylabel}</text>'
    )
    parts.append(
        f'<text x="{cx}" y="{y0 - 10}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>'
    )


def _write_parts(fh, parts: list[str]) -> None:
    """Write each part as one line of the document."""
    fh.write(("\n".join(parts) + "\n").encode())


def _write_polyline(fh, px: np.ndarray, py: np.ndarray, color: str) -> None:
    """One polyline, its "%.2f" points encoded BLOCK_POINTS at a time."""
    fh.write(b'<polyline points="')
    text = b""
    for block in pack_rows([px, py], fixed2_cells, b", ", BLOCK_POINTS):
        fh.write(text)
        text = block
    fh.write(text[:-1])  # no space after the last point
    fh.write(f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'.encode())


def line_plot(
    path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Render (label, x, y) series as polylines on a 640 x 440 canvas, the axes spanning
    the finite points (a constant axis 1, y 5% more at each end); a span that is not
    finite or a constant past 2**53 raises ValueError before the file is opened."""
    x0, y0, x1, y1 = 70, 30, 620, 380
    xs = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, float) for _, _, y in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.any():
        raise ValueError("nothing finite to plot")
    xlo, xhi = float(xs[finite].min()), float(xs[finite].max())
    ylo, yhi = float(ys[finite].min()), float(ys[finite].max())
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo -= pad
    yhi += pad
    if not (0.0 < xhi - xlo < math.inf and 0.0 < yhi - ylo < math.inf):
        raise ValueError("each axis must span a finite, nonzero range (a constant below 2**53)")

    parts = _svg_header(640, 440)
    _axes(parts, x0, y0, x1, y1, xlo, xhi, ylo, yhi, xlabel, ylabel, title)
    with open(path, "wb") as fh:
        _write_parts(fh, parts)
        for k, (label, x, y) in enumerate(series):
            color = _SERIES_COLORS[k % len(_SERIES_COLORS)]
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            good = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
            px = x0 + (x[good] - xlo) / (xhi - xlo) * (x1 - x0)
            py = y1 - (y[good] - ylo) / (yhi - ylo) * (y1 - y0)
            # break the polyline at gaps so missing cells do not get bridged
            bounds = [0, *(np.flatnonzero(np.diff(good) > 1) + 1).tolist(), good.size]
            for start, stop in zip(bounds, bounds[1:]):
                if stop - start >= 2:
                    _write_polyline(fh, px[start:stop], py[start:stop], color)
            if label:
                ly = y0 + 14 + 16 * k
                _write_parts(fh, [
                    f'<line x1="{x1 - 120}" y1="{ly - 4}" x2="{x1 - 95}" y2="{ly - 4}" '
                    f'stroke="{color}" stroke-width="2"/>',
                    f'<text x="{x1 - 90}" y="{ly}" font-size="11" '
                    f'font-family="sans-serif">{label}</text>',
                ])
        fh.write(b"</svg>\n")


def _heat_colors(t: np.ndarray) -> np.ndarray:
    """Black-red-yellow-white ramp for t in [0, 1] as 0xRRGGBB codes; NaN is black."""
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    r = np.minimum(1.0, 3.0 * t)
    g = np.minimum(1.0, np.maximum(0.0, 3.0 * t - 1.0))
    b = np.minimum(1.0, np.maximum(0.0, 3.0 * t - 2.0))
    return (
        (255 * r).astype(np.int64) << 16
        | (255 * g).astype(np.int64) << 8
        | (255 * b).astype(np.int64)
    )


# the hex digits of a colour code, most significant nibble first, and the end of a rect
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", np.uint8)
_NIBBLE_SHIFTS = np.arange(20, -1, -4)
_RECT_END = np.frombuffer(b'"/>\n', np.uint8)


def _text_table(texts: list[str]) -> np.ndarray:
    """One row of bytes per text, NUL-padded to the longest."""
    table = np.array([t.encode() for t in texts])
    return table.view(np.uint8).reshape(len(texts), table.itemsize)


def heatmap(
    path,
    x_axis: Sequence[float],
    y_axis: Sequence[float],
    values: np.ndarray,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Render values[i, j] at (x_axis[i], y_axis[j]) as colored cells on a 560 x 540 canvas.

    An axis whose span is not finite raises ValueError before the file is
    opened.  The colour scale is the largest finite value (1.0 if there is
    none or it is 0); NaN cells, and cells whose scaled value is at most 0,
    are black.  The plot area is painted black once, then each run of equal
    non-black colour down a column is one rect, its lines built a block of
    whole columns at a time from byte tables of the column x, row y and run
    height texts, and one NUL-delete.
    """
    x_axis = np.asarray(x_axis, float)
    y_axis = np.asarray(y_axis, float)
    values = np.asarray(values, float)
    if values.shape != (x_axis.size, y_axis.size):
        raise ValueError("values shape must match the axes")
    x0, y0, x1, y1 = 70, 30, 530, 480
    xlo, xhi = float(x_axis.min()), float(x_axis.max())
    ylo, yhi = float(y_axis.min()), float(y_axis.max())
    if not (math.isfinite(xhi - xlo) and math.isfinite(yhi - ylo)):
        raise ValueError("each axis must span a finite range")
    top = float(np.max(values, initial=-math.inf, where=np.isfinite(values)))
    top = top if math.isfinite(top) and top != 0.0 else 1.0

    nx, ny = x_axis.size, y_axis.size
    cw = (x1 - x0) / nx
    ch = (y1 - y0) / ny
    # a rect reaches 0.5 px into the next cell to hide the seam where that stops
    # short of the cell's centre: along an axis of cells of at least 1 px
    pad_x, pad_y = (0.5 if size >= 1.0 else 0.0 for size in (cw, ch))
    xs = _text_table([f'<rect x="{x0 + i * cw:.2f}" y="' for i in range(nx)])
    ys = _text_table([f'{y1 - (j + 1) * ch:.2f}" width="{cw + pad_x:.2f}" height="'
                      for j in range(ny)])
    heights = _text_table([f'{n * ch + pad_y:.2f}" fill="#' for n in range(1, ny + 1)])
    background = (f'<rect x="{x0}" y="{y0}" width="{x1 - x0 + 0.5:.2f}" '
                  f'height="{y1 - y0 + 0.5:.2f}" fill="#000000"/>')
    step = max(1, BLOCK_POINTS // ny)
    with open(path, "wb") as fh:
        _write_parts(fh, [*_svg_header(560, 540), background])
        for i in range(0, nx, step):
            with np.errstate(over="ignore"):  # a cell past the scale is white
                codes = _heat_colors(values[i:i + step] / top).ravel()
            # a run starts at the bottom of each column and at each change of colour
            starts = np.ones(codes.size, bool)
            np.not_equal(codes[1:], codes[:-1], out=starts[1:])
            starts[::ny] = True
            first = np.flatnonzero(starts)
            length = np.diff(first, append=codes.size)
            colored = codes[first] != 0
            first, length = first[colored], length[colored]
            hex_digits = _HEX_DIGITS[codes[first, None] >> _NIBBLE_SHIFTS & 15]
            lines = np.concatenate([
                xs[i + first // ny], ys[(first + length - 1) % ny], heights[length - 1],
                hex_digits, np.broadcast_to(_RECT_END, (first.size, _RECT_END.size)),
            ], axis=1)
            fh.write(lines.tobytes().translate(None, b"\0"))
        parts: list[str] = []
        _axes(parts, x0, y0, x1, y1, xlo, xhi, ylo, yhi, xlabel, ylabel, title)
        _write_parts(fh, parts + ["</svg>"])
