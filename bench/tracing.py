"""In-memory span tracer that wraps lindchain's public functions from outside.

The tracer replaces module attributes with timing wrappers, so the program
itself is unchanged.  Every wrapped call becomes a span (name, start, end,
parent, self time) kept in memory; `dump` writes them out as JSON lines.
Calls into the RHS callable returned by `make_rhs` are too many to keep
one span each (about a million per sweep), so they are summed per
engine x model and charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class TimedRHS:
    """Proxy for an RHS callable: times each call and forwards every other
    attribute, so code that asks the engine for its matrix still works."""

    def __init__(self, tracer: "Tracer", key: str, rhs):
        self._bench_tracer = tracer
        self._bench_key = key
        self._bench_rhs = rhs

    def __call__(self, *args, **kwargs):
        start = perf_counter()
        out = self._bench_rhs(*args, **kwargs)
        elapsed = perf_counter() - start
        tracer = self._bench_tracer
        tracer.rhs_calls[self._bench_key] += 1
        tracer.rhs_time[self._bench_key] += elapsed
        if tracer._child:
            tracer._child[-1] += elapsed
        return out

    def __getattr__(self, name):
        return getattr(self._bench_rhs, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.rhs_calls: defaultdict[str, int] = defaultdict(int)
        self.rhs_time: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(result, args, kwargs) may
        update counters and returns the value handed back to the caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                child = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += end - start
                tracer.spans[index] = Span(name, start, end, parent, end - start - child)
            return result if after is None else after(result, args, kwargs)

        return wrapper

    def patch(self, module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, after))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.rhs_calls.clear()
        self.rhs_time.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """(duration, self time, call count) summed per span name."""
        dur, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for span in self.spans:
            dur[span.name] += span.duration
            self_s[span.name] += span.self_s
            calls[span.name] += 1
        return dur, self_s, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"rhs_calls": dict(self.rhs_calls),
                                     "rhs_s": dict(self.rhs_time),
                                     "counters": dict(self.counters)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent,
                                         span.self_s]) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every lindchain layer at the names
    their callers look them up under."""
    import lindchain.cli as cli
    import lindchain.engine as engine
    import lindchain.runner as runner
    import lindchain.svgplot as svgplot

    make_rhs_args = inspect.signature(engine.make_rhs).bind
    rk4_args = inspect.signature(runner.rk4_evolve).bind

    def timed_rhs(rhs, args, kwargs):
        bound = make_rhs_args(*args, **kwargs).arguments
        key = f"{bound['kind'].value}.{bound['env'].model.value}"
        return TimedRHS(tracer, key, rhs)

    def count_steps(traj, args, kwargs):
        dt = rk4_args(*args, **kwargs).arguments["cfg"].dt
        tracer.counters["engine.steps"] += round(float(traj.taus[-1]) / dt)
        return traj

    def count_records(rows, args, kwargs):
        tracer.counters["runner.records"] += len(rows)
        return rows

    def count_bytes(text, args, kwargs):
        tracer.counters["runner.csv_bytes"] += len(text.encode("utf-8"))
        return text

    tracer.patch(engine, "make_rhs", "engine.build", timed_rhs)
    tracer.patch(runner, "rk4_evolve", "engine.rk4", count_steps)
    tracer.patch(runner, "diagnostics", "states.diagnostics")
    tracer.patch(runner, "purity", "metrics.purity")
    tracer.patch(runner, "gme", "metrics.gme")
    tracer.patch(runner, "closed_form_dephasing", "metrics.closed_form")
    tracer.patch(runner, "default_parameters", "catalog.default_parameters")
    tracer.patch(runner, "trajectory_table", "runner.table", count_records)
    tracer.patch(runner, "render_csv", "runner.csv_render", count_bytes)
    tracer.patch(svgplot, "emit_svg_plot", "svgplot.render")
    tracer.patch(cli, "parse_config", "runner.parse")
    tracer.patch(cli, "run_scenario", "runner.scenario")
    tracer.patch(cli, "sweep", "runner.sweep")
    tracer.patch(cli, "compare_engines", "runner.compare")
