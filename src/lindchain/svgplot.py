"""Static SVG line charts of decay curves.

No plotting dependency: the chart is a standalone SVG 1.1 document built
from polylines, so every figure is reproducible from published CSV data
alone.  Values in a column named "gme" are clamped at zero for display
(the stored CSV keeps the raw bound, which may be negative).

plot_csvs draws CSV files, read cell by cell with csv.reader and float()
so that an error names the first bad cell by file, line and column.  A
column named twice, or an input that is the same file as an earlier one,
is drawn once; inputs that share a file stem are labelled by their paths;
an output path that is one of the input CSVs is an error.  same_file, the
one rule of whether two paths name one file, serves every command's output
guard.  emit_svg_plot draws columns already in memory: point coordinates
are computed on whole arrays by the same expressions that place the axes
and ticks, and written in one numpy pass with the bytes '%.2f' gives each
(_points).  simulate draws through it too, from its rows read as float()
reads their CSV cells (runner.read_back), so it draws the SVG that
plot_csvs draws from its CSV.  The plot area keeps its place on the
canvas; the canvas grows below it when the legend needs the room.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

WIDTH = 680
HEIGHT = 420
MARGIN_LEFT = 62.0
MARGIN_RIGHT = 180.0
MARGIN_TOP = 18.0
MARGIN_BOTTOM = 46.0

TICK_TARGET = 5  # ticks per axis, roughly

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


class PlotDataError(ValueError):
    """CSV input unusable for plotting (missing column, no rows, a cell
    that is missing or not a finite number, values spread wider than a
    float axis holds)."""


def read_csv_columns(path: str | Path, names) -> dict[str, np.ndarray]:
    """The named columns of a CSV file as float arrays, keyed by header
    name.  Cells of other columns are not parsed, so they are not validated.

    Rows are read with csv.reader and each wanted cell with float(); a
    cell that is missing or not a finite number is a PlotDataError naming
    the first such cell by line and column.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError:
        raise PlotDataError(f"{path}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise PlotDataError(f"{path}: empty CSV")
    for name in names:
        if name not in header:
            if name == "tau":  # the x axis
                raise PlotDataError(f"{path}: missing 'tau' column")
            have = ", ".join(sorted(header))
            raise PlotDataError(f"{path}: missing column {name!r} (have: {have})")
    # in file order, so that the first bad cell reported is the first in the file
    wanted = sorted({header.index(name) for name in names})
    columns: dict[str, list[float]] = {header[index]: [] for index in wanted}
    for row in reader:
        if not row:  # blank lines are skipped
            continue
        for index in wanted:
            cell = row[index] if index < len(row) else None
            try:
                value = float(cell)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                found = "missing value" if cell is None else f"{cell!r} is not a finite number"
                raise PlotDataError(f"{path}: line {reader.line_num}, "
                                    f"column {header[index]!r}: {found}")
            columns[header[index]].append(value)
    if not columns or not next(iter(columns.values())):
        raise PlotDataError(f"{path}: no data rows")
    return {name: np.array(values) for name, values in columns.items()}


def same_file(a, b) -> bool:
    """Whether paths a and b name one file, hard links included."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is missing, or a link loops: Path.resolve() would raise
        return os.path.realpath(a) == os.path.realpath(b)


def plot_csvs(csv_paths, columns, out_path: str | Path) -> Path:
    """Draw columns of CSV files against their shared "tau" column into
    one SVG (emit_svg_plot) and return its path.

    Only tau and the plotted columns are read; a column named twice, or a
    CSV that is the same file as an earlier one (through any path or
    link), is drawn once.  A curve is labelled <file stem>:<column>, or
    <path as given>:<column> where distinct CSVs share a stem.  An
    out_path that is one of the CSVs is a PlotDataError.
    """
    out = Path(out_path)
    columns = list(dict.fromkeys(columns))
    inputs = {}  # the table of each distinct input file, by its first path
    for path in csv_paths:
        os.stat(path)  # a missing input raises here what reading it would
        if same_file(out, path):
            raise PlotDataError(f"{out}: output path would overwrite the input CSV {path}")
        if not any(same_file(path, seen) for seen in inputs):
            inputs[path] = read_csv_columns(path, ["tau", *columns])
    stems = [Path(path).stem for path in inputs]
    tables = [(stem if stems.count(stem) == 1 else str(path), table)
              for (path, table), stem in zip(inputs.items(), stems)]
    return emit_svg_plot(tables, columns, out)


def emit_svg_plot(tables, columns, out_path: str | Path) -> Path:
    """Write one SVG containing a polyline per (table, column) pair and
    return its path.

    tables holds (label, {column: array}) pairs; each maps "tau", the x
    axis, and every name in columns to float arrays of one length.  A
    curve is labelled <label>:<column>.
    """
    out = Path(out_path)
    series = []
    for name, table in tables:
        taus = table["tau"]
        for column in columns:
            values = table[column]
            if column == "gme":
                values = np.where(values > 0.0, values, 0.0)  # display clamp only
            series.append((f"{name}:{column}", taus, values))

    xs = np.concatenate([taus for _, taus, _ in series])
    ys = np.concatenate([values for _, _, values in series])
    # the first extreme, as min() and max() pick it: the sign of a zero
    # shows in _expand's error
    x_lo, x_hi = _expand(float(xs[xs.argmin()]), float(xs[xs.argmax()]), "tau")
    y_lo, y_hi = _expand(float(ys[ys.argmin()]), float(ys[ys.argmax()]), ", ".join(columns))

    # on floats and arrays alike, the same operations in the same order
    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(y):
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    # the plot area keeps its place in the top HEIGHT pixels; the canvas
    # grows to 10 px below the last legend baseline (22 entries fit in HEIGHT)
    height = max(HEIGHT, int(_legend_y(len(series) - 1)) + 10)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{height}" viewBox="0 0 {WIDTH} {height}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="white"/>',
    ]

    axis_style = 'stroke="black" stroke-width="1" fill="none"'
    x0, y0 = px(x_lo), py(y_lo)
    x1, y1 = px(x_hi), py(y_hi)
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" {axis_style}/>')
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" {axis_style}/>')

    for tick, label in _labelled_ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{y0:.2f}" x2="{tx:.2f}" y2="{y0 + 5:.2f}" {axis_style}/>')
        parts.append(f'<text x="{tx:.2f}" y="{y0 + 18:.2f}" font-size="11" '
                     f'text-anchor="middle">{label}</text>')
    for tick, label in _labelled_ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" {axis_style}/>')
        parts.append(f'<text x="{x0 - 8:.2f}" y="{ty + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 8}" font-size="12" '
                 f'text-anchor="middle">tau</text>')

    legend_x = WIDTH - MARGIN_RIGHT + 14.0
    for index, (label, taus, values) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        if len(taus) == 1:
            parts.append(f'<circle cx="{px(taus[0]):.2f}" cy="{py(values[0]):.2f}" '
                         f'r="3" fill="{color}"/>')
        else:
            points = _points(px(taus), py(values))
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = _legend_y(index)
        parts.append(f'<line x1="{legend_x:.2f}" y1="{ly - 4:.2f}" '
                     f'x2="{legend_x + 22:.2f}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{legend_x + 27:.2f}" y="{ly:.2f}" font-size="11">'
                     f'{_escape(label)}</text>')

    parts.append("</svg>")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return out


def _legend_y(index: int) -> float:
    """The baseline of legend entry index."""
    return MARGIN_TOP + 14.0 + 18.0 * index


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """'%.2f,%.2f' of each point (x, y), joined by spaces: the digits of
    every coordinate are computed in one numpy pass.

    A coordinate v in [0, 1e4) prints as the integer nearest 100 * v, in
    cents.  The product rounds once, by less than 1.2e-10 there, so where
    it lies 1e-6 or more from a half-integer, its nearest integer is that
    of the exact 100 * v, which '%.2f' prints.  A coordinate within 1e-6
    of a half-cent, with its sign bit set (-0.0 prints -0.00), of 1e4 or
    more, or nan, is printed by '%.2f' itself.
    """
    v = np.column_stack((xs, ys)).ravel()
    fast = (v < 1e4) & ~np.signbit(v)
    scaled = 100.0 * np.where(fast, v, 0.0)
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6
    # cents // 10**k, k = 6..0: exact, since cents / 10**k (cents <= 1e6)
    # is an integer or lies 1e-6 or more below the next one
    quotients = np.floor(np.where(fast, np.rint(scaled), 0.0)
                         / np.array([[1e6], [1e5], [1e4], [1e3], [1e2], [1e1], [1.0]]))
    digits = quotients.copy()
    digits[1:] -= 10.0 * quotients[:-1]
    digits += ord("0")
    # a column of 9 bytes per coordinate: 5 integer digits (leading zeros
    # NUL, dropped with the other NULs), point, 2 cent digits, separator
    field = np.empty((9, v.size), np.uint8)
    field[:4] = np.where(quotients[:4] >= 1.0, digits[:4], 0.0)
    field[4] = digits[4]
    field[5] = ord(".")
    field[6:8] = digits[5:]
    field[8] = ord(" ")
    field[8, ::2] = ord(",")
    field[:8, ~fast] = np.frombuffer(b"%s\0\0\0\0\0\0", np.uint8)[:, None]  # filled in by %
    flat = field.T.ravel()
    text = flat[flat != 0][:-1].tobytes().decode("ascii")  # no separator after the last y
    if fast.all():
        return text
    return text % tuple(["%.2f" % x for x in v[~fast].tolist()])


def _expand(lo: float, hi: float, name: str) -> tuple[float, float]:
    """The axis window of data in [lo, hi]: padded by 4% of the range, or
    for a flat series a unit window around the value, widened to 4 float
    spacings where those exceed 0.5 (from |value| = 2**50).  The window
    is finite and hi > lo, or PlotDataError names the axis."""
    pad = 0.04 * (hi - lo) if hi > lo else max(0.5, 4.0 * math.ulp(lo))
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise PlotDataError(f"{name}: values from {lo:g} to {hi:g} span more than "
                            f"a float axis holds")
    return lo - pad, hi + pad


def _labelled_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """The ticks of [lo, hi], each with the label of the fewest significant
    digits, from 6 up to 17, that keeps the labels distinct."""
    ticks = _ticks(lo, hi)
    for digits in range(6, 18):
        labels = [f"{tick:.{digits}g}" for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return list(zip(ticks, labels))


def _ticks(lo: float, hi: float) -> list[float]:
    """Roughly TICK_TARGET distinct ticks on a 1/2/2.5/5 x 10^k grid; none
    when the tick step would be below the smallest normal float."""
    span = hi - lo
    raw = span / (TICK_TARGET - 1)
    if raw < sys.float_info.min:
        return []
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if mult * magnitude >= raw:
            step = mult * magnitude
            break
    # tick k is k * step, not a running sum: a step below the float spacing
    # of the window still advances k, so the loop ends after ~TICK_TARGET ticks;
    # there k * step can round to the previous tick, which is dropped
    ticks = []
    k = math.ceil(lo / step)
    while (value := k * step) <= hi + 1e-9 * span:
        value = 0.0 if abs(value) < 1e-12 * span else value
        if not ticks or value != ticks[-1]:
            ticks.append(value)
        k += 1
    return ticks


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
