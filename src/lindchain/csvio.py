"""The CSV cell rule, written and read in one place: '%.11e' for a float,
str() for anything else (_cell_text).  render_csv writes tables by it,
read_back gives float() of each cell it writes from the rows in memory,
and read_csv_columns reads a CSV file's columns back, naming the first
bad cell by file, line and column, as check_finite does from the rows.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from pathlib import Path

import numpy as np


def render_csv(header: tuple[str, ...], rows) -> str:
    """Deterministic CSV text: 12 significant digits, LF endings.

    rows is a sequence of rows or a 2-D array.  Each cell is written as
    _cell_text writes it: '%.11e' for a float, str() for anything else.

    A float64 array is written as bytes in one numpy pass (_float_lines).
    A column whose cells all have the same bits is formatted once, into
    the line template (bits, not ==: 0.0 and -0.0 print differently).
    For the varying columns, a cell's digits come from _digit_split; a
    cell it is not sure of, other than zero and -0.0, is written by
    _cell_text itself.  So every cell has the bytes _cell_text gives it.
    Other tables are written a cell at a time by _cell_text.
    """
    text = ",".join(header) + "\n"
    if not len(rows):
        return text
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        constant = (rows.view(np.int64) == rows.view(np.int64)[0]).all(axis=0)
        cells = [_cell_text(cell) if fixed else None
                 for cell, fixed in zip(rows[0].tolist(), constant)]
        return text + _float_lines(rows[:, ~constant], cells)
    return text + "".join([",".join(map(_cell_text, row)) + "\n" for row in rows])


def _cell_text(cell) -> str:
    """The text of one CSV cell: '%.11e' for a float (numpy's float64 is
    one), str() for anything else."""
    return "%.11e" % cell if isinstance(cell, float) else str(cell)


def _float_lines(values: np.ndarray, cells: list) -> str:
    """The CSV lines of a float64 table.  cells holds the text of each
    constant column and None for each varying one; values holds the
    varying columns, in order.

    Each varying cell fills a 20-byte slot of five 4-byte words taken from
    _digit_tables (sign, digit, point, digit; 4 digits; 4 digits; 2
    digits, 'e', exponent sign; 2 or 3 exponent digits and a pad byte),
    and the line template around the slots is NUL-padded to whole words.
    The pad byte holds the first byte after the slot, a comma or the
    newline; the NUL bytes left (the sign of a positive cell, the third
    exponent digit of a 2-digit exponent, the padding) are dropped when
    the lines are compacted.  A cell left to _cell_text gets its text,
    NUL-padded, as its slot.
    """
    _, lead, digits4, tail, exponent = _digit_tables()
    m, e, sure = _digit_split(values)
    fast = sure | (values == 0.0)
    top, digits = np.divmod(m.astype(np.int64), 10 ** 10)
    upper, digits = np.divmod(digits, 10 ** 6)
    lower, last = np.divmod(digits, 100)
    slots = np.stack((lead[100 * np.signbit(values) + top], digits4[upper], digits4[lower],
                      tail[2 * last + (e < 0)], exponent[np.abs(e)]), axis=-1)
    # at most 19 bytes (-4.94065645841e-324): the slot's last byte is left for the pad
    fallback = np.array([_cell_text(x) for x in values[~fast].tolist()], "S20")
    slots[~fast] = fallback.view(np.uint32).reshape(-1, 5)

    line = ",".join("\0" if cell is None else cell for cell in cells) + "\n"
    head, *tails = line.encode("ascii").split(b"\0")
    # the last byte of a slot holds the first byte after it: a comma or the \n
    slots.view(np.uint8)[..., 19] = np.frombuffer(bytes(tail[0] for tail in tails), np.uint8)
    segments = [_padded_words(head), *(_padded_words(tail[1:]) for tail in tails)]
    n_rows, n_slots = values.shape
    words = np.empty((n_rows, sum(map(len, segments)) + 5 * n_slots), np.uint32)
    start = 0
    for j, segment in enumerate(segments):
        words[:, start:start + len(segment)] = segment
        start += len(segment)
        if j < n_slots:
            words[:, start:start + 5] = slots[:, j]
            start += 5
    return words.tobytes().replace(b"\0", b"").decode("ascii")


def _digit_split(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits '%.11e' writes for each cell of a float64 array, where
    one rounding decides them: (m, e, sure), the 12 digits as an integer
    float m in [1e11, 1e12) and the decimal exponent e, so that the cell
    is +-m * 10**(e - 11).  Where sure is false, m is 0, and e is 0 for a
    cell that is zero or not finite.

    m is the integer nearest |cell| scaled into [1e11, 1e12) by a
    correctly rounded power of ten; the scaled value is within 4e-4 of
    exact, since the power and the multiply each round once.  A cell is
    not sure where that integer could differ from the exact rounding (the
    scaled value lies within 1e-3 of a half-integer, or outside [1e11,
    1e12)), or where it is zero, not finite, or of magnitude outside
    (1e-280, 1e280).
    """
    pow10 = _digit_tables()[0]
    magnitude = np.abs(values)
    normal = (magnitude > 1e-280) & (magnitude < 1e280)  # false for 0, nan, inf
    magnitude = np.where(normal, magnitude, 1.0)
    e = np.floor(np.log10(magnitude)).astype(np.intp)  # may be off by one: see sure
    scaled = magnitude * pow10[_POW10_OFFSET + 11 - e]
    m = np.rint(scaled)
    sure = normal & (np.abs(scaled - m) < 0.499) & (scaled >= 1e11) & (scaled < 1e12)
    m = np.where(sure, m, 0.0)
    carry = m == 1e12  # 9.999999999995e-5 is 1.00000000000e-04
    e = np.where(normal, e + carry, 0)  # zero is 0.00000000000e+00
    return np.where(carry, 1e11, m), e, sure


def read_back(values: np.ndarray) -> np.ndarray:
    """float('%.11e' % x) of each cell x of a float64 array: what `lindchain
    plot` reads from the cell render_csv writes, bit for bit.

    A sure cell of _digit_split whose power 10**|11 - e| is at most 1e22
    reads as m / 10**(11 - e) or m * 10**(e - 11): one IEEE operation on
    two exact operands (m < 2**53, and every power of ten up to 1e22 is a
    float), so it is the correctly rounded value of the decimal text, as
    float() is.  A zero keeps its sign; every other cell goes through
    float(_cell_text(x)).
    """
    pow10 = _digit_tables()[0]
    m, e, sure = _digit_split(values)
    shift = 11 - e
    exact = sure & (np.abs(shift) <= 22)
    power = pow10[_POW10_OFFSET + np.where(exact, np.abs(shift), 0)]
    read = np.copysign(np.where(shift > 0, m / power, m * power), values)  # m is 0 for a zero
    slow = ~exact & (values != 0.0)
    read[slow] = [float(_cell_text(x)) for x in values[slow].tolist()]
    return read


_POW10_OFFSET = 300  # pow10[_POW10_OFFSET + p] is 10**p


def _padded_words(data: bytes) -> np.ndarray:
    """data, NUL-padded to whole 4-byte words."""
    return np.frombuffer(data + b"\0" * (-len(data) % 4), np.uint32)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """The tables of _float_lines, built on first use: the powers of ten
    10**p for |p| <= _POW10_OFFSET, correctly rounded (float() of a
    decimal string is; numpy's power is not always), and the slot words,
    indexed by 100 * sign + first two digits, by 4 digits, by 2 * last two
    digits + exponent sign, and by |exponent|."""
    pow10 = np.array([float(f"1e{p}") for p in range(-_POW10_OFFSET, _POW10_OFFSET + 1)])
    # each word is the 4 characters % writes, NUL where _float_lines drops a byte
    words = (["%s%d.%d" % ("\0-"[k // 100], k // 10 % 10, k % 10) for k in range(200)],
             ["%04d" % k for k in range(10000)],
             ["%02de%s" % (k // 2, "+-"[k % 2]) for k in range(200)],
             ["%02d\0\0" % k if k < 100 else "%03d\0" % k for k in range(1000)])
    lead, digits4, tail, exponent = (np.frombuffer("".join(table).encode("ascii"), np.uint32)
                                     for table in words)
    tables = pow10, lead, digits4, tail, exponent
    for table in tables:
        table.flags.writeable = False  # one copy serves every call
    return tables


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
                raise _cell_error(path, reader.line_num, header[index], cell)
            columns[header[index]].append(value)
    if not columns or not next(iter(columns.values())):
        raise PlotDataError(f"{path}: no data rows")
    return {name: np.array(values) for name, values in columns.items()}


def check_finite(path: str | Path, header, values: np.ndarray) -> None:
    """Raise what read_csv_columns raises on the CSV render_csv writes from
    values under header to path, if a cell is not finite: the first in
    file order (row r is on line r + 2), quoted as _cell_text writes it."""
    bad = np.argwhere(~np.isfinite(values))  # row-major: file order
    if len(bad):
        row, column = bad[0]
        raise _cell_error(path, row + 2, header[column], _cell_text(values[row, column]))


def _cell_error(path, line: int, column: str, cell: str | None) -> PlotDataError:
    """The error for a read cell that is missing (None) or not a finite number."""
    found = "missing value" if cell is None else f"{cell!r} is not a finite number"
    return PlotDataError(f"{path}: line {line}, column {column!r}: {found}")
