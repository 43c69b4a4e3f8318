#!/usr/bin/env python3
"""Regenerate figures/ by running `lindchain` commands.

`lindchain simulate` runs each config in configs/, and each writes its own
CSV and SVG under figures/ (the paths are set inside the config files).
`lindchain plot` then overlays three of the psi_18 runs into two charts,
so three environments can be read off one pair of axes.  Last,
`lindchain sweep` runs into a temporary directory, and its summary (the
64 tau* values of the 16-state x 4-environment decay table) is copied to
figures/sweep_summary.csv.  Paths are relative to the working directory.

Each command prints its own output, warning and error lines.  The first
command that exits nonzero ends the script with its exit code.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from lindchain.cli import main as lindchain

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
OVERLAID = ("psi18_correlated_dephasing", "psi18_dephasing", "psi18_independent")


def main(argv=None) -> int:
    # no options; the parser gives --help its description
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    commands = [["simulate", str(path)] for path in sorted(CONFIGS.glob("*.cfg"))]
    csvs = [f"figures/{stem}.csv" for stem in OVERLAID]
    commands += [["plot", *csvs, "--columns", column, "--out", f"figures/overlay_{column}.svg"]
                 for column in ("gme", "purity")]
    with tempfile.TemporaryDirectory() as tmp:
        for command in commands + [["sweep", "--out", tmp]]:
            code = lindchain(command)
            if code:
                return code
        print(shutil.copyfile(Path(tmp) / "summary.csv", "figures/sweep_summary.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
