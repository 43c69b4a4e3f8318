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
    dt, t_max, stride                                 integration grid
    out      CSV output path
    plot     SVG output path (purity and gme curves)

Omitted numeric keys fall back to the canonical defaults.  Rate matrices
are symmetric, so one off-diagonal entry per pair suffices; giving both
orders with different values is an error.  Both rate families are
validated; the model picks the one it reads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

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
    """Configuration problem, carrying the offending line when known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
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


# ------------------------------------------------------------- config text

_RATE_KEY = re.compile(rf"^(gamma|Gamma)_([1-{N_QUBITS}])([1-{N_QUBITS}])?$")


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated RunConfig.

    Raises ConfigError with a line number for any malformed, unknown,
    duplicated, or out-of-range entry.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first set on line {entries[key][1]})",
                              lineno)
        entries[key] = (value, lineno)

    def take(key):
        return entries.pop(key, None)

    def number(key, default):
        item = take(key)
        return default if item is None else _parse_float(key, item)

    model = _parse_member("model", EnvironmentModel, take("model"))
    if model is None:
        raise ConfigError("missing required key 'model'")
    engine = _parse_member("engine", EngineKind, take("engine")) or EvolutionConfig.engine

    label, pair = _parse_state(take("state"), take("pair_i"), take("pair_j"))

    chain = SpinChainParams()
    omegas = tuple(number(f"omega_{k}", w) for k, w in enumerate(chain.omegas, start=1))
    try:
        params = SpinChainParams(omegas, number("J", chain.coupling_j),
                                 number("Jp", chain.coupling_jp))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    gamma = default_rate_matrix()
    big_gamma = default_rate_matrix()
    rate_lines = {}
    for key in [k for k in entries if _RATE_KEY.match(k)]:
        value, lineno = entries.pop(key)
        name, a, b = _RATE_KEY.match(key).groups()
        target = gamma if name == "gamma" else big_gamma
        rate = _parse_float(key, (value, lineno))
        if b is None:
            if rate < 0.0:
                raise ConfigError(f"{key} must be nonnegative, got {rate}", lineno)
            target[int(a) - 1][int(a) - 1] = rate
        else:
            i, j = sorted((int(a), int(b)))
            if i == j:
                raise ConfigError(f"{key} repeats a qubit index", lineno)
            slot = (name, i, j)
            if slot in rate_lines and rate_lines[slot][0] != rate:
                raise ConfigError(
                    f"{key} conflicts with value set on line {rate_lines[slot][1]}", lineno)
            rate_lines[slot] = (rate, lineno)
            target[i - 1][j - 1] = rate
            target[j - 1][i - 1] = rate

    dt_item, t_max_item, stride_item = take("dt"), take("t_max"), take("stride")
    dt = EvolutionConfig.dt if dt_item is None else _parse_float("dt", dt_item)
    t_max = 50.0 if t_max_item is None else _parse_float("t_max", t_max_item)
    stride = (EvolutionConfig.record_stride if stride_item is None
              else _parse_int("stride", stride_item))

    out = take("out")
    plot = take("plot")

    if entries:
        key = min(entries, key=lambda k: entries[k][1])
        raise ConfigError(f"unknown key {key!r}", entries[key][1])

    try:
        evolution = EvolutionConfig(t_max=t_max, dt=dt, record_stride=stride, engine=engine)
    except ValueError as exc:
        # the message starts with the field at fault, reported under its
        # config key, as is the stride it may quote; a grid error on a
        # defaulted t_max or dt (whole-number check, step-count overflow)
        # is the other one's line
        field, _, rest = str(exc).partition(" ")
        key, item = {"dt": ("dt", dt_item or t_max_item),
                     "t_max": ("t_max", t_max_item or dt_item),
                     "record_stride": ("stride", stride_item)}.get(field, (field, None))
        rest = rest.replace("record_stride = ", "stride = ")
        raise ConfigError(f"{key} {rest}", item and item[1]) from exc
    try:
        env = EnvironmentSpec(model, gamma if model.dissipative else big_gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(label=label, pair=pair, params=params, env=env,
                     evolution=evolution, out=out[0] if out else None,
                     plot=plot[0] if plot else None)


def _parse_member(key, kind, item):
    """The member of the enum kind whose value item names; None when unset."""
    if item is None:
        return None
    value, lineno = item
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(member.value for member in kind)
        raise ConfigError(f"unknown {key} {value!r}; valid {key}s: {valid}", lineno) from None


def _parse_state(state_item, pair_i_item, pair_j_item):
    """(label, pair) of the state the config names: a catalog entry's name
    and pair, or pair_ij for an explicit pair."""
    if state_item is not None and (pair_i_item is not None or pair_j_item is not None):
        raise ConfigError("give either 'state' or 'pair_i'/'pair_j', not both",
                          state_item[1])
    if state_item is not None:
        value, lineno = state_item
        try:
            entry = catalog_entry(value)
        except KeyError as exc:
            raise ConfigError(str(exc.args[0]), lineno) from None
        return entry.name, entry.pair
    if pair_i_item is None or pair_j_item is None:
        raise ConfigError("config must set 'state' or both 'pair_i' and 'pair_j'")
    i = _parse_int("pair_i", pair_i_item)
    j = _parse_int("pair_j", pair_j_item)
    pair = (min(i, j), max(i, j))
    try:
        family_of_pair(*pair)
    except ValueError as exc:
        raise ConfigError(str(exc), pair_i_item[1]) from exc
    return f"pair_{pair[0]}{pair[1]}", pair


def _parse_float(key, item) -> float:
    value, lineno = item
    try:
        result = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from None
    if not np.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {value!r}", lineno)
    return result


def _parse_int(key, item) -> int:
    value, lineno = item
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}", lineno) from None


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

    rows is a sequence of rows or a 2-D array; the cell kinds of the first
    row (str, int but not bool, else float) fix one %-template for all.  An
    array column whose cells all have the same bits is formatted once, into
    the template (bits, not ==: 0.0 and -0.0 print differently).
    """
    lines = [",".join(header)]
    if len(rows):
        first = rows[0].tolist() if isinstance(rows, np.ndarray) else rows[0]
        cells = [_conversion(cell) for cell in first]
        if isinstance(rows, np.ndarray):
            bits = rows.view(f"i{rows.itemsize}") if rows.dtype.kind == "f" else rows
            constant = (bits == bits[0]).all(axis=0)
            for j in np.flatnonzero(constant):
                cells[j] = (cells[j] % first[j]).replace("%", "%%")
            rows = rows[:, ~constant].tolist()  # Python floats format faster than numpy scalars
        template = ",".join(cells)
        lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def _conversion(cell) -> str:
    if isinstance(cell, str):
        return "%s"
    if isinstance(cell, (int, np.integer)) and not isinstance(cell, bool):
        return "%d"
    return "%.11e"


def run_scenario(cfg: RunConfig) -> Path:
    """Integrate the configured scenario and write its CSV time series.

    Returns the CSV path.  If the config names a plot path, an SVG of the
    purity and gme columns is rendered next to it.
    """
    path = Path(cfg.out or f"{cfg.label}_{cfg.model.value}.csv")
    _run_to_csv(path, cfg.pair, cfg.evolution, cfg.params, cfg.env)
    if cfg.plot:
        # imported here, at call time, so that bench/tracing.py's patch of it is what runs
        from .svgplot import emit_svg_plot
        emit_svg_plot([path], ["purity", "gme"], cfg.plot)
    return path


def _run_to_csv(path: Path, pair: tuple[int, int], evolution: EvolutionConfig,
                params: SpinChainParams, env: EnvironmentSpec) -> np.ndarray:
    """Integrate the Bell state of pair, write its CSV to path and return
    the rows (columns as in CSV_HEADER)."""
    traj = rk4_evolve(initial_bell_density(*pair), evolution, params, env)
    rows = trajectory_table(traj, pair)
    write_csv(path, CSV_HEADER, rows)
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


def sweep(out_dir: str | Path, t_max: float = 40.0) -> Path:
    """Run all 16 catalog states under all four models.

    Writes one CSV per run plus summary.csv with the interpolated time
    tau_star at which the gme bound first drops below 0.5 (NaN when it
    never does, e.g. coherences the correlated dephasing model leaves
    decoherence-free).  Returns the summary path.

    Every run steps by dt = 1e-2 and records every 10 steps up to t_max;
    the default t_max covers every finite tau_star.
    """
    out = Path(out_dir)
    params, environments = default_parameters()
    evolution = EvolutionConfig(t_max=t_max, dt=1e-2, record_stride=10)
    entries = catalog_states(params)
    tau_stars = {}
    # model-major, so that the 16 runs of one model share one cached
    # transfer matrix (engine._propagator)
    for model in EnvironmentModel:
        for entry in entries:
            rows = _run_to_csv(out / f"{entry.name}_{model.value}.csv", entry.pair,
                               evolution, params, environments[model])
            tau_stars[entry.name, model] = tau_first_below(rows[:, 0], rows[:, 2])
    summary_rows = [
        (entry.name, entry.family, entry.pair[0], entry.pair[1], model.value,
         entry.paper_delta_e, entry.computed_delta_e, tau_stars[entry.name, model])
        for entry in entries for model in EnvironmentModel
    ]
    summary_path = out / "summary.csv"
    write_csv(summary_path, SWEEP_HEADER, summary_rows)
    return summary_path
