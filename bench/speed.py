"""Machine-speed calibration sampled while the timed work runs.

The benchmark shares a 2-vCPU machine whose cores slow down by up to ~1.6x
for tens of seconds at a time when a neighbour loads the sibling core.  CPU
time rises with wall time in those phases, so neither clock can tell them
apart from a slower program.  A fixed calibration kernel can: while a pass
runs, SIGALRM interrupts it every INTERVAL_S seconds to time one kernel
slice.  The handler's own time is taken out of the pass, and the pass time
is rescaled by REFERENCE_SLICE_S / (kernel time), averaged over the pass:

    normalised seconds = raw seconds x mean(REFERENCE_SLICE_S / slice_s)

which is the time the pass would have taken at the reference speed.  The
kernel mixes interpreter work with small complex numpy operations, as the
program does, and never calls lindchain, so a change to the program cannot
move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

perf_counter = time.perf_counter

INTERVAL_S = 0.1
# One kernel slice on an idle core of the machine the bounds were set on
# (2.1 GHz vCPU, Python 3.11, numpy 2.4): normalised seconds are roughly
# seconds on that machine with no neighbour load.
REFERENCE_SLICE_S = 0.0011

_rng = np.random.default_rng(20150312)
_MAT = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_VEC = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)
_FREQ = _rng.standard_normal(64)


def kernel_slice() -> float:
    """Time one fixed slice of interpreter and small-array work."""
    start = perf_counter()
    vec = _VEC
    acc = 0.0
    for i in range(120):
        vec = _MAT @ (vec * np.exp(_FREQ * (1j * 1e-3 * i)))
        vec = vec / np.abs(vec).max()
        for j in range(25):
            acc += j * 0.5
    return perf_counter() - start


class SpeedProbe:
    """Context manager that samples kernel slices on a wall-clock timer.

    `overhead_s` is the time spent in the handler; `slices` holds every
    slice time.  Both accumulate across uses; callers take differences.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.slices: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter()
        self.slices.append(kernel_slice())
        self.overhead_s += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed_factor(slices: list[float]) -> float:
    """Mean of REFERENCE_SLICE_S / slice over the slices, dropping the
    fastest and slowest tenth (timer interrupts, cache refills)."""
    ratios = sorted(REFERENCE_SLICE_S / s for s in slices)
    cut = len(ratios) // 10
    return statistics.fmean(ratios[cut:len(ratios) - cut])


def timed(fn, probe: SpeedProbe | None) -> tuple[float, float]:
    """Run fn: (seconds without the handler, speed factor).

    With a probe the factor comes from slices sampled while fn ran (one
    slice afterwards if the timer never fired).  Without one, as in traced
    passes where a handler would be charged to the open spans, it comes
    from slices just before and after fn."""
    if probe is None:
        before = [kernel_slice() for _ in range(3)]
        start = perf_counter()
        fn()
        raw = perf_counter() - start
        return raw, speed_factor(before + [kernel_slice() for _ in range(3)])
    n0, overhead0 = len(probe.slices), probe.overhead_s
    with probe:
        start = perf_counter()
        fn()
        raw = perf_counter() - start
    raw -= probe.overhead_s - overhead0
    return raw, speed_factor(probe.slices[n0:] or [kernel_slice()])
