"""Scenario configuration, execution, and CSV emission.

Configs are line-based `key = value` text with `#` comments.  Recognized
keys:

    model    one of independent_dissipation, correlated_dissipation,
             dephasing, correlated_dephasing          (required)
    engine   element_wise (default) or operator_built
    state    catalog name such as psi_18; or give pair_i / pair_j
    pair_i, pair_j   explicit basis-state pair in 1..8
    omega_1..omega_3, J, Jp                           chain parameters
    gamma_1..gamma_3, gamma_12, gamma_13, gamma_23    dissipation rates
    Gamma_1..Gamma_3, Gamma_12, Gamma_13, Gamma_23    dephasing rates
    dt, t_max, stride               integration grid (EvolutionConfig's defaults)
    out      CSV output path
    plot     SVG output path (purity and gme curves); not the CSV's path

Omitted numeric keys fall back to the canonical defaults.  Rate matrices
are symmetric, so one off-diagonal entry per pair suffices; giving both
orders with different values is an error.  Both rate families are
validated; the model picks the one it reads.  Each line is checked in
file order as it is read, then the config as a whole, so an error names
the first line that is bad on its own.  Every run, simulate's or
sweep's, is a RunConfig that one function, _run_to_csv, writes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import svgplot
from .catalog import (catalog_entry, catalog_states, default_parameters,
                      default_rate_matrix)
from .engine import (EngineKind, EvolutionConfig, Trajectory, closed_form_dephasing,
                     rk4_evolve)
from .environments import EnvironmentModel, EnvironmentSpec
from .metrics import diagnostics, family_of_pair, gme, initial_bell_density, purity
from .register import N_QUBITS, SpinChainParams

ENGINE_DELTA_THRESHOLD = 1e-6
TAU_STAR_LEVEL = 0.5  # tau_star: where the gme bound first drops below this

CSV_HEADER = ("tau", "purity", "gme", *(f"p{m}" for m in range(1, 2 ** N_QUBITS + 1)),
              "coh_abs", "trace_err", "herm_err", "min_eig")

class ConfigError(ValueError):
    """Configuration problem; the message names the offending line when known."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """One parsed scenario.  label names the state in output file names:
    its catalog name, or pair_ij for a pair given by pair_i and pair_j."""

    label: str
    pair: tuple[int, int]
    params: SpinChainParams
    env: EnvironmentSpec
    evolution: EvolutionConfig
    out: str | None = None
    plot: str | None = None

    @property
    def family(self) -> str:
        return family_of_pair(*self.pair)

    @property
    def model(self) -> EnvironmentModel:
        return self.env.model

    @property
    def csv_path(self) -> Path:
        """Where _run_to_csv writes the CSV: out, else <label>_<model>.csv."""
        return Path(self.out or f"{self.label}_{self.model.value}.csv")


# ------------------------------------------------------------- config text

_RATE_KEY = re.compile(rf"^(gamma|Gamma)_([1-{N_QUBITS}])([1-{N_QUBITS}])?$")
# what reads each key's text; a rate key (_RATE_KEY) is read as a float
_KEYS = {"model": EnvironmentModel, "engine": EngineKind, "state": catalog_entry,
         "pair_i": int, "pair_j": int, "omega_1": float, "omega_2": float,
         "omega_3": float, "J": float, "Jp": float, "dt": float, "t_max": float,
         "stride": int, "out": str, "plot": str}


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    One leading byte-order mark (U+FEFF) is dropped.  Each line is checked
    in file order as it is read (malformed, duplicated, unknown key, bad
    value, negative or conflicting rate), then the config as a whole
    (model and state set, the grid, the rates, the plot path), so a
    ConfigError names the first line that is bad on its own, else the
    line of the key at fault in the whole, if any.
    """
    values, lines = {}, {}
    gamma, big_gamma = default_rate_matrix(), default_rate_matrix()
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if key in lines:
            raise ConfigError(f"duplicate key {key!r} (first set on line {lines[key]})", lineno)
        rate_key = _RATE_KEY.match(key)
        if key not in _KEYS and not rate_key:
            raise ConfigError(f"unknown key {key!r}", lineno)
        lines[key] = lineno
        values[key] = _parse_value(key, value, _KEYS.get(key, float), lineno)
        if rate_key:
            rate, (name, a, b) = values[key], rate_key.groups()
            if b is None and rate < 0.0:
                raise ConfigError(f"{key} must be nonnegative, got {rate}", lineno)
            if a == b:
                raise ConfigError(f"{key} repeats a qubit index", lineno)
            mirror = f"{name}_{b}{a}"  # the other key of an off-diagonal rate
            if b and values.get(mirror, rate) != rate:
                raise ConfigError(f"{key} conflicts with value set on line {lines[mirror]}",
                                  lineno)
            target = gamma if name == "gamma" else big_gamma
            i, j = int(a) - 1, int(b or a) - 1
            target[i][j] = target[j][i] = rate

    if "model" not in values:
        raise ConfigError("missing required key 'model'")
    label, pair = _parse_state(values, lines)
    chain = SpinChainParams()
    omegas = tuple(values.get(f"omega_{k}", w) for k, w in enumerate(chain.omegas, start=1))
    params = SpinChainParams(omegas, values.get("J", chain.coupling_j),
                             values.get("Jp", chain.coupling_jp))
    try:
        evolution = EvolutionConfig(
            t_max=values.get("t_max", EvolutionConfig.t_max),
            dt=values.get("dt", EvolutionConfig.dt),
            record_stride=values.get("stride", EvolutionConfig.record_stride),
            engine=values.get("engine", EvolutionConfig.engine))
    except ValueError as exc:
        # the message starts with the field at fault, reported under its
        # config key, as is the stride it may quote; a grid error on a
        # defaulted t_max or dt (whole-number check, step-count overflow)
        # is the other one's line
        field, _, rest = str(exc).partition(" ")
        key, other = {"dt": ("dt", "t_max"), "t_max": ("t_max", "dt"),
                      "record_stride": ("stride", "stride")}.get(field, (field, field))
        rest = rest.replace("record_stride = ", "stride = ")
        raise ConfigError(f"{key} {rest}", lines.get(key) or lines.get(other)) from exc
    model = values["model"]
    try:
        env = EnvironmentSpec(model, gamma if model.dissipative else big_gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(label=label, pair=pair, params=params, env=env, evolution=evolution,
                    out=values.get("out"), plot=values.get("plot"))
    if cfg.plot and svgplot.same_file(cfg.plot, cfg.csv_path):
        raise ConfigError(f"plot {cfg.plot!r} is the CSV output path {str(cfg.csv_path)!r}",
                          lines["plot"])
    return cfg


def _parse_value(key, value, kind, lineno):
    """The text value of key read by kind, its entry of _KEYS; a float
    must be finite (int() takes no inf or nan)."""
    try:
        result = kind(value)
    except KeyError as exc:  # catalog_entry's message lists the states
        raise ConfigError(str(exc.args[0]), lineno) from None
    except ValueError:
        if kind in (int, float):
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {value!r}", lineno) from None
        valid = ", ".join(member.value for member in kind)
        raise ConfigError(f"unknown {key} {value!r}; valid {key}s: {valid}", lineno) from None
    if kind is float and not np.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {value!r}", lineno)
    return result


def _parse_state(values, lines):
    """(label, pair) of the state the config names: a catalog entry's name
    and pair, or pair_ij for an explicit pair."""
    if "state" in values:
        if "pair_i" in values or "pair_j" in values:
            raise ConfigError("give either 'state' or 'pair_i'/'pair_j', not both",
                              lines["state"])
        return values["state"].name, values["state"].pair
    if "pair_i" not in values or "pair_j" not in values:
        raise ConfigError("config must set 'state' or both 'pair_i' and 'pair_j'")
    i, j = values["pair_i"], values["pair_j"]
    pair = (min(i, j), max(i, j))
    try:
        family_of_pair(*pair)
    except ValueError as exc:  # an index out of range is its own key's fault
        indices = range(1, 2 ** N_QUBITS + 1)
        key = "pair_j" if i in indices and j not in indices else "pair_i"
        raise ConfigError(str(exc), lines[key]) from exc
    return f"pair_{pair[0]}{pair[1]}", pair


# -------------------------------------------------------------- execution

def trajectory_table(traj: Trajectory, pair: tuple[int, int]) -> np.ndarray:
    """Per-record CSV rows as one (n_records, 15) float array, columns as in
    CSV_HEADER: tau, purity, gme, populations, tracked coherence
    magnitude, and physicality diagnostics, each from one call on the
    whole (n, 8, 8) record stack.
    """
    rhos = traj.rhos
    return np.column_stack((traj.taus, purity(rhos), gme(rhos, pair),
                            np.diagonal(rhos, axis1=1, axis2=2).real,
                            np.abs(rhos[:, pair[0] - 1, pair[1] - 1]), *diagnostics(rhos)))


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


def run_scenario(cfg: RunConfig) -> Path:
    """Integrate the configured scenario and write its CSV time series.

    Returns the CSV path.  If the config names a plot path, tau, purity
    and gme are drawn there as the CSV's cells read: read_back gives the
    float() of each cell from the rows in memory, so this is the SVG
    `lindchain plot` draws from the CSV.  A cell that is not finite is a
    PlotDataError naming it, and no SVG is written.
    """
    path = cfg.csv_path
    rows = _run_to_csv(cfg)
    if cfg.plot:
        names = CSV_HEADER[:3]  # tau, purity, gme
        table = read_back(rows[:, :3])
        if not np.isfinite(table).all():  # the cell loop names the first bad cell
            svgplot.read_csv_columns(path, names)
        svgplot.emit_svg_plot([(path.stem, dict(zip(names, table.T)))], names[1:], cfg.plot)
    return path


def _run_to_csv(cfg: RunConfig) -> np.ndarray:
    """Integrate cfg's Bell state, write its CSV to cfg.csv_path and return
    the rows (columns as in CSV_HEADER): every run, simulate's or sweep's."""
    traj = rk4_evolve(initial_bell_density(*cfg.pair), cfg.evolution, cfg.params, cfg.env)
    rows = trajectory_table(traj, cfg.pair)
    write_csv(cfg.csv_path, CSV_HEADER, rows)
    return rows


def write_csv(path: str | Path, header: tuple[str, ...], rows) -> None:
    """Write render_csv(header, rows) to path as UTF-8 with LF endings,
    creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(header, rows), encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class EngineComparison:
    max_delta: float
    passed: bool
    n_records: int
    closed_form_delta: float | None = None

    def summary(self) -> str:
        lines = [
            f"max entrywise |delta rho| over {self.n_records} records: {self.max_delta:.3e}",
            f"threshold: {ENGINE_DELTA_THRESHOLD:.1e}",
        ]
        if self.closed_form_delta is not None:
            lines.append(f"closed-form dephasing |delta rho|: {self.closed_form_delta:.3e}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def compare_engines(cfg: RunConfig) -> EngineComparison:
    """Run both engines on the same scenario and compare trajectories.

    For dephasing models the element-wise trajectory is additionally
    compared against the exact closed form.
    """
    rho0 = initial_bell_density(*cfg.pair)
    element = rk4_evolve(rho0, replace(cfg.evolution, engine=EngineKind.ELEMENT_WISE),
                         cfg.params, cfg.env)
    operator = rk4_evolve(rho0, replace(cfg.evolution, engine=EngineKind.OPERATOR_BUILT),
                          cfg.params, cfg.env)
    max_delta = float(np.max(np.abs(element.rhos - operator.rhos)))
    closed_delta = None
    if not cfg.model.dissipative:
        exact = closed_form_dephasing(rho0, element.taus, cfg.env)
        closed_delta = float(np.max(np.abs(element.rhos - exact)))
    return EngineComparison(
        max_delta=max_delta,
        passed=max_delta < ENGINE_DELTA_THRESHOLD,
        n_records=element.n_records,
        closed_form_delta=closed_delta,
    )


# ------------------------------------------------------------------ sweep

def tau_first_below(taus: np.ndarray, values: np.ndarray) -> float:
    """First crossing time below TAU_STAR_LEVEL, linearly interpolated
    between recorded samples; NaN when the series never crosses."""
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    below = np.nonzero(values < TAU_STAR_LEVEL)[0]
    if len(below) == 0:
        return float("nan")
    k = int(below[0])
    if k == 0:
        return float(taus[0])
    v0, v1 = values[k - 1], values[k]  # v0 >= TAU_STAR_LEVEL (or NaN) > v1
    frac = (TAU_STAR_LEVEL - v0) / (v1 - v0)
    return float(taus[k - 1] + frac * (taus[k] - taus[k - 1]))


SWEEP_HEADER = ("state", "family", "pair_i", "pair_j", "model",
                "paper_delta_e", "computed_delta_e", "tau_star")
SWEEP_GRID = EvolutionConfig(t_max=40.0, dt=1e-2, record_stride=10)


def sweep(out_dir: str | Path, t_max: float = SWEEP_GRID.t_max) -> Path:
    """Run all 16 catalog states under all four models.

    Each run is a RunConfig (the catalog entry's name and pair, the
    model's default environment, SWEEP_GRID up to t_max, whose default
    covers every finite tau_star), written as run_scenario writes one, to
    its csv_path under out_dir.  Also writes summary.csv with the
    interpolated time tau_star at which the gme bound first drops below
    0.5 (NaN when it never does, e.g. coherences the correlated dephasing
    model leaves decoherence-free).  Returns the summary path.  out_dir is
    made before any run; where it exists and is not a directory, that is
    a NotADirectoryError naming it.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"{out}: output path is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    params, environments = default_parameters()
    evolution = replace(SWEEP_GRID, t_max=t_max)
    entries = catalog_states(params)
    tau_stars = {}
    # model-major, so that the 16 runs of one model share one cached
    # transfer matrix (engine._propagator keys the spec by identity)
    for model in EnvironmentModel:
        for entry in entries:
            run = RunConfig(entry.name, entry.pair, params, environments[model], evolution)
            rows = _run_to_csv(replace(run, out=str(out / run.csv_path)))
            tau_stars[entry.name, model] = tau_first_below(rows[:, 0], rows[:, 2])
    summary_rows = [
        (entry.name, entry.family, entry.pair[0], entry.pair[1], model.value,
         entry.paper_delta_e, entry.computed_delta_e, tau_stars[entry.name, model])
        for entry in entries for model in EnvironmentModel
    ]
    summary_path = out / "summary.csv"
    write_csv(summary_path, SWEEP_HEADER, summary_rows)
    return summary_path
