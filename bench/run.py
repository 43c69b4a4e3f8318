#!/usr/bin/env python3
"""lindchain benchmark: the CLI's simulate, sweep and compare-engines paths.

    python3 bench/run.py --workload simulate_configs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --seconds 1 --trace 1 --quick

Workloads (closed loop, one client, in process, single-threaded BLAS):

  simulate_configs  the bundled configs/*.cfg through `lindchain simulate`,
                    CSV and SVG written to a scratch directory; the seed
                    orders them.  Checked against bench/reference/*.csv.
  sweep             `lindchain sweep` at its defaults (16 states x 4 models,
                    64 CSVs plus summary.csv).  The seed names the output
                    directory only.
  compare_engines   `lindchain compare-engines` on 8 generated configs: all
                    four models x one tripartite and one bipartite state
                    picked by the seed.

A pass runs every invocation of the workload once; the benchmark repeats
passes until the next one would overrun --seconds (at least one pass).
Outputs are checked after each pass, outside the timed region.  One CLI
invocation is one operation; it fails on a nonzero exit code or a failed
output check (exit codes, reference CSVs, the dephasing closed form,
compare-engines PASS).

--trace 0 prints the end-to-end metrics:

  wall_s       median seconds per pass, rescaled to the reference machine
               speed by the calibration in speed.py (raw seconds are in
               the report)
  steps_per_s  RK4 steps per pass, sum of round(t_max/dt) over its runs,
               per wall_s second; median over passes
  setup_s      median of 7 fresh interpreters importing lindchain (numpy
               already loaded), parsing the workload's configs and building
               default_parameters(), rescaled likewise
  peak_rss_mb  peak resident memory of this process (ru_maxrss)

--trace 1 spends half the time on plain passes and half on traced ones
(tracing.py), prints the per-layer metrics (medians over traced passes;
trace.overhead_s is traced minus plain wall_s) and fails the run when the
traced counts disagree with the inputs.  --quick runs one pass of each
kind on tiny grids.

The next-to-last stdout line is a JSON report (environment, samples,
checks); the last line is the result.  Both, and the traced spans, are
also written under .bench_out/ at the repository root.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the set-up
# probes that inherit this environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
PREVIOUS_THREAD_ENV = {name: os.environ.get(name) for name in THREAD_VARS}
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7

END_TO_END = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

ENGINES = ("element_wise", "operator_built")
MODELS = ("independent_dissipation", "correlated_dissipation", "dephasing",
          "correlated_dephasing")
RHS_PAIRS = tuple(f"{engine}.{model}" for engine in ENGINES for model in MODELS)

PER_LAYER = {
    "engine.steps": "count",
    "engine.rhs_calls": "count",
    "engine.rhs_s": "s",
    "engine.rhs_us": "us",
    **{f"engine.rhs_us.{pair}": "us" for pair in RHS_PAIRS},
    "engine.rk4_s": "s",
    "engine.rk4_self_s": "s",
    "engine.build_s": "s",
    "engine.build_calls": "count",
    "states.diagnostics_s": "s",
    "states.diagnostics_calls": "count",
    "states.diagnostics_us": "us",
    "metrics.gme_s": "s",
    "metrics.purity_s": "s",
    "metrics.closed_form_s": "s",
    "runner.records": "count",
    "runner.table_s": "s",
    "runner.table_self_s": "s",
    "runner.csv_render_s": "s",
    "runner.csv_bytes": "bytes",
    "runner.io_s": "s",
    "runner.parse_s": "s",
    "svgplot.render_s": "s",
    "svgplot.calls": "count",
    "catalog.default_parameters_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "check.failed_frac": "frac",
    "check.exact_err_max": "abs",
    "check.engine_delta_max": "abs",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate_configs", "sweep", "compare_engines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of each kind on tiny grids (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "lindchain" / "cli.py").is_file():
        print(f"error: lindchain sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        report, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run(args, work: Path) -> tuple[dict, dict]:
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer, instrument

    plan = workloads.build_plan(args.workload, args.seed, work, args.quick)
    restore = _shrink_sweep() if args.quick else None
    try:
        setup = []
        if not args.trace:
            setup = [_measure_setup(plan) for _ in range(1 if args.quick else SETUP_REPEATS)]
        budget = args.seconds / 2 if args.trace else args.seconds
        probe = SpeedProbe()
        plain = _measure(plan, probe, budget, args.quick)
        traced, layers, count_errors = [], [], []
        if args.trace:
            tracer = Tracer()
            instrument(tracer)
            try:
                def observe(p):
                    layers.append(_layer_metrics(tracer, p))
                    count_errors.extend(_count_errors(tracer, p))
                # no speed probe: its handler would be charged to open spans
                traced = _measure(plan, None, budget, args.quick, tracer.reset, observe)
            finally:
                tracer.unpatch()
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        if restore:
            restore()

    passes = plain + traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    outcomes = [o for p in passes for o in p.outcomes]
    checks = {
        "check.failed_frac": failed / attempted,
        "check.exact_err_max": max((o.exact_err for o in outcomes if o.exact_err is not None),
                                   default=0.0),
        "check.engine_delta_max": max((o.engine_delta for o in outcomes
                                       if o.engine_delta is not None), default=0.0),
    }
    plain_walls = [p.wall_s for p in plain]
    if args.trace:
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain_walls)
        values.update(checks)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(plain_walls),
            "steps_per_s": statistics.median(p.steps / p.wall_s for p in plain),
            "setup_s": statistics.median(raw * factor for raw, factor in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "environment": environment(),
        "invocations_per_pass": len(plan.invocations),
        "steps_per_pass": plan.steps,
        "records_per_pass": plain[0].records,
        "wall_s": _summary(plain_walls),
        "raw_wall_s": _summary([p.raw_s for p in plain]),
        "speed_factor": _summary([p.speed_factor for p in plain]),
        "traced_wall_s": _summary([p.wall_s for p in traced]),
        "traced_raw_wall_s": _summary([p.raw_s for p in traced]),
        "setup_s": _summary([raw * factor for raw, factor in setup]),
        "raw_setup_s": _summary([raw for raw, _ in setup]),
        **checks,
        "failures": [o.message for o in outcomes if not o.ok][:10],
        "count_errors": count_errors[:10],
    }
    result = {"correct": failed == 0 and not count_errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def _measure(plan, probe, budget: float, quick: bool, before=None, after=None) -> list:
    """Closed loop of passes: stop once the next pass would overrun budget."""
    from workloads import run_pass
    passes = []
    start = time.perf_counter()
    while True:
        if before:
            before()
        passes.append(run_pass(plan, probe))
        if after:
            after(passes[-1])
        if quick or time.perf_counter() - start + passes[-1].raw_s > budget:
            return passes


def _measure_setup(plan) -> tuple[float, float]:
    """(raw seconds, speed factor) of one set-up in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *map(str, plan.configs)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    raw, factor = probe.stdout.split()[-2:]
    return float(raw), float(factor)


def _shrink_sweep():
    """--quick: run `lindchain sweep` on a tiny grid; returns the undo."""
    import lindchain.cli as cli
    import lindchain.runner as runner
    from workloads import QUICK_SWEEP_T_MAX
    original = cli.sweep
    cli.sweep = functools.partial(runner.sweep, t_max=QUICK_SWEEP_T_MAX)

    def restore():
        cli.sweep = original
    return restore


def _layer_metrics(tracer, p) -> dict:
    dur, self_s, calls = tracer.totals()
    counters = tracer.counters
    rhs_calls = sum(tracer.rhs_calls.values())
    rhs_s = sum(tracer.rhs_time.values())
    diag_calls = calls["states.diagnostics"]
    return {
        "engine.steps": counters["engine.steps"],
        "engine.rhs_calls": rhs_calls,
        "engine.rhs_s": rhs_s,
        "engine.rhs_us": _per_call_us(rhs_s, rhs_calls),
        **{f"engine.rhs_us.{pair}": _per_call_us(tracer.rhs_time[pair],
                                                 tracer.rhs_calls[pair])
           for pair in RHS_PAIRS},
        "engine.rk4_s": dur["engine.rk4"],
        "engine.rk4_self_s": self_s["engine.rk4"],
        "engine.build_s": dur["engine.build"],
        "engine.build_calls": calls["engine.build"],
        "states.diagnostics_s": dur["states.diagnostics"],
        "states.diagnostics_calls": diag_calls,
        "states.diagnostics_us": _per_call_us(dur["states.diagnostics"], diag_calls),
        "metrics.gme_s": dur["metrics.gme"],
        "metrics.purity_s": dur["metrics.purity"],
        "metrics.closed_form_s": dur["metrics.closed_form"],
        "runner.records": counters["runner.records"],
        "runner.table_s": dur["runner.table"],
        "runner.table_self_s": self_s["runner.table"],
        "runner.csv_render_s": dur["runner.csv_render"],
        "runner.csv_bytes": counters["runner.csv_bytes"],
        "runner.io_s": self_s["runner.scenario"] + self_s["runner.sweep"],
        "runner.parse_s": dur["runner.parse"],
        "svgplot.render_s": dur["svgplot.render"],
        "svgplot.calls": calls["svgplot.render"],
        "catalog.default_parameters_s": dur["catalog.default_parameters"],
        "trace.wall_s": p.wall_s,
        "trace.spans": len(tracer.spans),
    }


def _count_errors(tracer, p) -> list[str]:
    """Traced counts must match what the inputs imply, exactly."""
    errors = []
    steps = tracer.counters["engine.steps"]
    if steps != p.steps:
        errors.append(f"engine.steps {steps} != sum of round(t_max/dt) {p.steps}")
    records = tracer.counters["runner.records"]
    if records != p.records:
        errors.append(f"runner.records {records} != rows written {p.records}")
    rhs_calls = sum(tracer.rhs_calls.values())
    # the step loop calls the RHS 4 times a step; an integrator without a
    # per-step loop may call it fewer times than it takes steps
    if not (rhs_calls == 4 * steps or rhs_calls < steps):
        errors.append(f"engine.rhs_calls {rhs_calls} is neither 4 x {steps} steps "
                      f"nor fewer than the steps")
    return errors


def _per_call_us(total_s: float, calls: int) -> float:
    return 1e6 * total_s / calls if calls else 0.0


def _summary(samples: list[float]) -> dict:
    if not samples:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {"n": len(samples), "median": statistics.median(samples), "q1": q1, "q3": q3,
            "min": min(samples), "max": max(samples), "samples": samples}


def environment() -> dict:
    import numpy
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": commit,
        "thread_env": {name: os.environ[name] for name in THREAD_VARS},
        "thread_env_pinned_by_benchmark": True,
        "thread_env_before": PREVIOUS_THREAD_ENV,
    }


if __name__ == "__main__":
    sys.exit(main())
