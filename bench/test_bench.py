"""Self-tests of the benchmark: result schema, layer split and hygiene.

Run from the repository root with `python3 -m pytest -q bench`.  Every
run here uses --quick, so no timing is asserted.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Span, TimedRHS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENVIRONMENT_KEYS = {"python", "numpy", "blas", "nproc", "git_commit", "thread_env",
                    "thread_env_pinned_by_benchmark"}


def quick_run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = quick_run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(results, workload, trace):
    report, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"] + report["count_errors"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)
        if not trace:
            assert value > 0, spec["name"]
    assert ENVIRONMENT_KEYS <= set(report["environment"])
    assert report["environment"]["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_layer_split(results):
    layers = {w: {k: m["value"] for k, m in results[w, 1][1]["metrics"].items()}
              for w in WORKLOADS}
    operator_pairs = [k for k in layers["compare_engines"]
                      if k.startswith("engine.rhs_us.operator_built.")]
    assert len(operator_pairs) == 4
    for workload, values in layers.items():
        steps, rhs_calls = values["engine.steps"], values["engine.rhs_calls"]
        assert rhs_calls == 4 * steps or rhs_calls < steps
        has_operator = any(values[k] > 0 for k in operator_pairs)
        assert has_operator == (workload == "compare_engines")
        assert (values["svgplot.calls"] > 0) == (workload == "simulate_configs")
        assert (values["states.diagnostics_calls"] > 0) == (workload != "compare_engines")
    assert layers["compare_engines"]["check.engine_delta_max"] < 1e-6


def test_tree_unchanged_after_runs():
    figures = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((ROOT / "figures").glob("*"))}
    git = shutil.which("git") and (ROOT / ".git").exists()
    before = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout if git else None
    for workload in WORKLOADS:
        assert quick_run(workload, 0).returncode == 0
    assert figures == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted((ROOT / "figures").glob("*"))}
    if git:
        after = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout
        assert after == before


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = quick_run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timed_rhs_is_transparent():
    class Engine:
        matrix = "A"

        def __call__(self, rho, t):
            return rho + t

    tracer = Tracer()
    rhs = TimedRHS(tracer, "element_wise.dephasing", Engine())
    assert rhs.matrix == "A"
    assert rhs(1.0, 2.0) == 3.0
    assert tracer.rhs_calls["element_wise.dephasing"] == 1


def test_spans_record_parent_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert all(isinstance(s, Span) for s in spans)
    assert spans[0].parent == -1 and spans[1].parent == 0 and spans[2].parent == 0
    children = spans[1].duration + spans[2].duration
    assert spans[0].self_s == pytest.approx(spans[0].duration - children)
