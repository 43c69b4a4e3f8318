#!/usr/bin/env python3
"""Run the bundled example scenarios and render overlay figures.

Each config in configs/ writes its own CSV and SVG under figures/ (paths
are set inside the config files).  On top of those, this script overlays
the psi_18 runs into two comparison charts so the four environments can
be read off a single axis pair, and runs the default `lindchain sweep`
into a temporary directory, keeping its summary (the 64 tau* values of
the 16-state x 4-environment decay table) as figures/sweep_summary.csv.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from lindchain.runner import parse_config, run_scenario, sweep
from lindchain.svgplot import plot_csvs

REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    # no options; the parser gives --help its description
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    csv_paths = []
    for path in sorted((REPO / "configs").glob("*.cfg")):
        cfg = parse_config(path.read_text(encoding="utf-8"))
        out = run_scenario(cfg)
        print(f"{path.name:<34} -> {out}")
        csv_paths.append(out)

    overlays = [p for p in csv_paths if p.stem != "psi18_big_dissipation"]
    if overlays:
        figures = overlays[0].parent
        for column in ("gme", "purity"):
            out = plot_csvs(overlays, [column], figures / f"overlay_{column}.svg")
            print(f"{'overlay':<34} -> {out}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path("figures") / "sweep_summary.csv"  # next to the configs' outputs
        shutil.copyfile(sweep(tmp), out)
        print(f"{'sweep':<34} -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
