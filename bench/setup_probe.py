"""Time lindchain's set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR [CONFIG ...]

Set-up is the `lindchain` import, parsing each config the workload will
run, and building the default parameters the sweep uses.  numpy is
imported first, outside the timed region: the calibration kernel needs it
and its import is not lindchain's cost.  Prints the raw seconds and the
speed factor from kernel slices taken just before and after (speed.py).
"""

import sys
import time
import warnings

import speed

before = [speed.kernel_slice() for _ in range(5)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import lindchain  # noqa: E402

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the PSD notice for correlated rates
    for path in sys.argv[2:]:
        with open(path, encoding="utf-8") as handle:
            lindchain.parse_config(handle.read())
    lindchain.default_parameters()
raw = time.perf_counter() - start
after = [speed.kernel_slice() for _ in range(5)]
print(raw, speed.speed_factor(before + after))
