"""Static SVG line charts rendered straight from CSV files.

No plotting dependency: the chart is a standalone SVG 1.1 document built
from polylines, so every figure is reproducible from published CSV data
alone.  Values in a column named "gme" are clamped at zero for display
(the stored CSV keeps the raw bound, which may be negative).
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path

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


def read_csv_columns(path: str | Path, names) -> dict[str, list[float]]:
    """The named columns of a CSV file as floats, keyed by header name.
    Cells of other columns are not parsed, so they are not validated."""
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
    return columns


def emit_svg_plot(csv_paths, columns, out_path: str | Path) -> Path:
    """Write one SVG containing a polyline per (csv file, column) pair.

    All CSVs must share a "tau" column, which becomes the x axis.  Only
    tau and the plotted columns are read.
    """
    series = []
    for path in csv_paths:
        table = read_csv_columns(path, ["tau", *columns])
        taus = table["tau"]
        for column in columns:
            values = table[column]
            if column == "gme":
                values = [max(0.0, v) for v in values]  # display clamp only
            series.append((f"{Path(path).stem}:{column}", taus, values))

    xs = [x for _, taus, _ in series for x in taus]
    ys = [y for _, _, values in series for y in values]
    x_lo, x_hi = _expand(min(xs), max(xs), "tau")
    y_lo, y_hi = _expand(min(ys), max(ys), ", ".join(columns))

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (y - y_lo) / (y_hi - y_lo) * (
            HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
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
            points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(taus, values))
            parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        ly = MARGIN_TOP + 14.0 + 18.0 * index
        parts.append(f'<line x1="{legend_x:.2f}" y1="{ly - 4:.2f}" '
                     f'x2="{legend_x + 22:.2f}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{legend_x + 27:.2f}" y="{ly:.2f}" font-size="11">'
                     f'{_escape(label)}</text>')

    parts.append("</svg>")
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
    return out


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
