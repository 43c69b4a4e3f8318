"""Workload inputs, passes through the lindchain CLI, and output checks.

A workload is a list of CLI invocations (one operation each) run in
process through `lindchain.cli.main`, one after another by one client.
Every output a pass writes goes to a work directory the benchmark owns;
bundled configs are copied there with their `out`/`plot` keys rewritten,
so nothing in the repository is overwritten.
"""

from __future__ import annotations

import functools
import io
import random
import re
import shutil
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speed import SpeedProbe, timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

WORKLOADS = ("simulate_configs", "sweep", "compare_engines")

# A CSV cell may drift this far from the committed reference figures: the
# CSVs keep 12 significant digits and a reformulated integrator may move the
# last digits by ~1e-13.
REFERENCE_ATOL = 1e-10
# Dephasing rows against the closed-form decay law (same as the acceptance
# criteria); covers RK4 truncation at dt = 1e-2 plus CSV rounding.
ORACLE_ATOL = 1e-8

# `lindchain sweep` defaults, which fix the sweep workload's size.
SWEEP_T_MAX, SWEEP_DT, SWEEP_STRIDE = 40.0, 1e-2, 10
SWEEP_MODELS = ("independent_dissipation", "correlated_dissipation", "dephasing",
                "correlated_dephasing")
DEPHASING_MODELS = ("dephasing", "correlated_dephasing")

# compare_engines: each seed picks one tripartite and one bipartite state,
# the shape of the acceptance suite's runs50 fixture, on a shorter grid.
TRIPARTITE = ("psi_18", "psi_27", "psi_36", "psi_45")
BIPARTITE = ("alpha_17", "alpha_28", "alpha_46", "alpha_35", "beta_14", "beta_58",
             "beta_23", "beta_67", "xi_16", "xi_38", "xi_25", "xi_47")
COMPARE_GRID = {"t_max": 5.0, "dt": 1e-3, "stride": 100}

# --quick: the same invocations on tiny grids (multiples of the record
# spacing, so simulate CSVs are a prefix of the reference figures).
QUICK_SIMULATE_T_MAX = 1.0
QUICK_COMPARE_T_MAX = 0.2
QUICK_SWEEP_T_MAX = 0.4

_DELTA_LINE = re.compile(r"max entrywise \|delta rho\| over (\d+) records: (\S+)")
_CLOSED_LINE = re.compile(r"closed-form dephasing \|delta rho\|: (\S+)")


def n_steps(t_max: float, dt: float) -> int:
    return int(round(t_max / dt))


def n_records(t_max: float, dt: float, stride: int) -> int:
    return len(range(0, n_steps(t_max, dt), stride)) + 1


@dataclass
class Invocation:
    argv: list[str]
    steps: int          # RK4 steps the invocation integrates, over all its runs
    check: object       # check(rc, stdout) -> Outcome


@dataclass
class Outcome:
    ok: bool
    records: int = 0
    exact_err: float | None = None
    engine_delta: float | None = None
    message: str = ""


@dataclass
class Plan:
    invocations: list[Invocation]
    out_dir: Path
    configs: list[Path] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return sum(inv.steps for inv in self.invocations)


@dataclass
class PassResult:
    raw_s: float        # wall seconds, calibration handler excluded
    wall_s: float       # seconds at the reference machine speed (speed.py)
    steps: int
    outcomes: list[Outcome]

    @property
    def speed_factor(self) -> float:
        return self.wall_s / self.raw_s

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def records(self) -> int:
        return sum(o.records for o in self.outcomes)


# ------------------------------------------------------------------ inputs

def _rewrite(text: str, values: dict[str, str]) -> str:
    """Drop the lines that set any key in `values`, then append them."""
    lines = []
    for line in text.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key not in values:
            lines.append(line)
    lines += [f"{k} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def build_plan(workload: str, seed: int, work: Path, quick: bool = False) -> Plan:
    """Write the workload's inputs under `work` and return its invocations."""
    rng = random.Random(seed)
    inputs, out_dir = work / "inputs", work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "simulate_configs":
        return _simulate_plan(rng, inputs, out_dir, quick)
    if workload == "compare_engines":
        return _compare_plan(rng, inputs, out_dir, quick)
    if workload == "sweep":
        t_max = QUICK_SWEEP_T_MAX if quick else SWEEP_T_MAX
        sweep_dir = out_dir / f"sweep-{seed}"
        inv = Invocation(["sweep", "--out", str(sweep_dir)],
                         len(SWEEP_MODELS) * 16 * n_steps(t_max, SWEEP_DT),
                         lambda rc, out: _check_sweep(rc, sweep_dir, t_max))
        return Plan([inv], out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _simulate_plan(rng, inputs: Path, out_dir: Path, quick: bool) -> Plan:
    from lindchain.runner import parse_config
    sources = sorted((ROOT / "configs").glob("*.cfg"))
    if not sources:
        raise FileNotFoundError(f"no configs under {ROOT / 'configs'}")
    rng.shuffle(sources)
    invocations, configs = [], []
    for source in sources:
        text = source.read_text(encoding="utf-8")
        values = {"out": str(out_dir / f"{source.stem}.csv"),
                  "plot": str(out_dir / f"{source.stem}.svg")}
        if quick:
            values["t_max"] = str(QUICK_SIMULATE_T_MAX)
        text = _rewrite(text, values)
        path = inputs / source.name
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the PSD notice for correlated rates
            cfg = parse_config(text)
        check = _simulate_checker(cfg, Path(values["out"]), Path(values["plot"]),
                                  REFERENCE / f"{source.stem}.csv")
        steps = n_steps(cfg.evolution.t_max, cfg.evolution.dt)
        invocations.append(Invocation(["simulate", str(path)], steps, check))
        configs.append(path)
    return Plan(invocations, out_dir, configs)


def _compare_plan(rng, inputs: Path, out_dir: Path, quick: bool) -> Plan:
    states = (rng.choice(TRIPARTITE), rng.choice(BIPARTITE))
    t_max = QUICK_COMPARE_T_MAX if quick else COMPARE_GRID["t_max"]
    dt, stride = COMPARE_GRID["dt"], COMPARE_GRID["stride"]
    records = n_records(t_max, dt, stride)
    invocations, configs = [], []
    for state in states:
        for model in SWEEP_MODELS:
            path = inputs / f"compare_{state}_{model}.cfg"
            path.write_text(f"model = {model}\nstate = {state}\nt_max = {t_max}\n"
                            f"dt = {dt}\nstride = {stride}\n", encoding="utf-8")
            check = functools.partial(_check_compare, model=model, records=records)
            # both engines integrate the full grid
            invocations.append(Invocation(["compare-engines", str(path)],
                                          2 * n_steps(t_max, dt), check))
            configs.append(path)
    return Plan(invocations, out_dir, configs)


# ------------------------------------------------------------------ checks

def _load_csv(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _oracle_error(table: np.ndarray, pair, family, env) -> float:
    from lindchain.metrics import analytic_decay_oracle
    gme, pur = analytic_decay_oracle(family, pair, env, table[:, 0])
    return float(max(np.max(np.abs(table[:, 2] - gme)), np.max(np.abs(table[:, 1] - pur))))


def _simulate_checker(cfg, csv_path: Path, svg_path: Path, reference: Path):
    expected = n_records(cfg.evolution.t_max, cfg.evolution.dt, cfg.evolution.record_stride)
    ref = _load_csv(reference) if reference.is_file() else None

    def check(rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome(False, message=f"simulate exit code {rc}")
        if ref is None:
            return Outcome(False, message=f"no reference CSV {reference.name}")
        table = _load_csv(csv_path)
        outcome = Outcome(True, records=len(table))
        if len(table) != expected or len(table) > len(ref) or table.shape[1] != ref.shape[1]:
            return Outcome(False, len(table), message=f"{csv_path.name}: shape {table.shape}")
        drift = float(np.max(np.abs(table - ref[:len(table)])))
        if drift > REFERENCE_ATOL:
            return Outcome(False, len(table),
                           message=f"{csv_path.name}: {drift:.3e} from reference")
        if not svg_path.read_text(encoding="utf-8").lstrip().startswith(("<?xml", "<svg")):
            return Outcome(False, len(table), message=f"{svg_path.name}: not an SVG")
        if cfg.model.value in DEPHASING_MODELS:
            outcome.exact_err = _oracle_error(table, cfg.pair, cfg.family, cfg.env)
            if not outcome.exact_err <= ORACLE_ATOL:
                outcome.ok = False
                outcome.message = f"{csv_path.name}: {outcome.exact_err:.3e} from oracle"
        return outcome

    return check


def _check_compare(rc: int, stdout: str, model: str, records: int) -> Outcome:
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != "PASS":
        return Outcome(False, message=f"compare-engines exit code {rc}: {stdout.strip()!r}")
    delta = _DELTA_LINE.search(stdout)
    if delta is None or int(delta.group(1)) != records:
        return Outcome(False, message=f"compare-engines report: {stdout.strip()!r}")
    outcome = Outcome(True, engine_delta=float(delta.group(2)))
    if model in DEPHASING_MODELS:
        closed = _CLOSED_LINE.search(stdout)
        if closed is None:
            return Outcome(False, message="no closed-form line for a dephasing model")
        outcome.exact_err = float(closed.group(1))
        if not outcome.exact_err <= ORACLE_ATOL:
            outcome.ok = False
            outcome.message = f"closed-form delta {outcome.exact_err:.3e}"
    return outcome


def _check_sweep(rc: int, sweep_dir: Path, t_max: float) -> Outcome:
    if rc != 0:
        return Outcome(False, message=f"sweep exit code {rc}")
    from lindchain.catalog import catalog_states, default_parameters
    from lindchain.environments import EnvironmentModel
    params, envs = default_parameters()
    expected = n_records(t_max, SWEEP_DT, SWEEP_STRIDE)
    summary = (sweep_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    if len(summary) != 1 + 16 * len(SWEEP_MODELS):
        return Outcome(False, message=f"summary.csv has {len(summary)} lines")
    outcome = Outcome(True, exact_err=0.0)
    for entry in catalog_states(params):
        for model in SWEEP_MODELS:
            path = sweep_dir / f"{entry.name}_{model}.csv"
            table = _load_csv(path)
            outcome.records += len(table)
            if len(table) != expected or abs(table[-1, 0] - t_max) > 1e-9:
                return Outcome(False, outcome.records, message=f"{path.name}: {table.shape}")
            if model in DEPHASING_MODELS:
                err = _oracle_error(table, entry.pair, entry.family,
                                    envs[EnvironmentModel(model)])
                outcome.exact_err = max(outcome.exact_err, err)
                if not err <= ORACLE_ATOL:
                    return Outcome(False, outcome.records, err,
                                   message=f"{path.name}: {err:.3e} from oracle")
    return outcome


# ------------------------------------------------------------------ passes

def invoke(argv: list[str]) -> tuple[int, str, str]:
    """One operation: `lindchain <argv>` in process; (exit code, stdout, stderr)."""
    from lindchain import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_pass(plan: Plan, probe: SpeedProbe | None) -> PassResult:
    """Run every invocation once (timed), then check the outputs (untimed).

    Each invocation is rescaled by the machine speed around it (speed.py)."""
    shutil.rmtree(plan.out_dir, ignore_errors=True)
    plan.out_dir.mkdir(parents=True)
    results = []
    raw = wall = 0.0
    for inv in plan.invocations:
        seconds, factor = timed(lambda: results.append(invoke(inv.argv)), probe)
        raw += seconds
        wall += seconds * factor
    outcomes = []
    for inv, (rc, stdout, stderr) in zip(plan.invocations, results):
        try:
            outcome = inv.check(rc, stdout)
        except (OSError, ValueError, IndexError) as exc:  # missing or malformed output
            outcome = Outcome(False, message=f"{inv.argv[0]}: {exc}")
        if rc != 0 and stderr:
            outcome.message += f" | stderr: {stderr.strip()[-300:]}"
        outcomes.append(outcome)
    return PassResult(raw, wall, plan.steps, outcomes)
