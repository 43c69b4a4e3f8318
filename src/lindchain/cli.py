"""Command-line front end.

Subcommands:

    simulate <config>             run a scenario, write its CSV (and SVG)
    compare-engines <config>      cross-validate the two generators
    sweep [--out DIR]             all 16 states x 4 models + summary
    plot <csv...> --columns a,b --out file.svg
    catalog [--csv PATH]          print the 16-state table

Exit codes: 0 success, 1 configuration error, 2 numerical or I/O failure,
3 engine-comparison failure.  A warning raised under a subcommand prints
as one stderr line, `warning: <message>`, before any error line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .catalog import catalog_states
from .engine import IntegrationDivergedError
from .runner import (ConfigError, compare_engines, parse_config, run_scenario, sweep,
                     write_csv)
from .csvio import PlotDataError
from .svgplot import plot_csvs, same_file

CATALOG_HEADER = ("state", "family", "pair_i", "pair_j", "paper_delta_e",
                  "computed_delta_e")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.handler(args)
        except (ConfigError, PlotDataError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except IntegrationDivergedError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"failure: {exc}", file=sys.stderr)
            return 2


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a warning as one line, without the library source it came from."""
    print(f"warning: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindchain",
        description="Decoherence of entangled states in an Ising nuclear-spin chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write its CSV")
    p.add_argument("config", help="path to a key = value config file")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compare-engines",
                       help="run both generators on one scenario and compare")
    p.add_argument("config", help="path to a key = value config file")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sweep", help="run all catalog states under all models")
    p.add_argument("--out", default="sweep_out", help="output directory")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("plot", help="render CSV columns as an SVG line chart")
    p.add_argument("csv", nargs="+", help="input CSV paths sharing a tau column")
    p.add_argument("--columns", required=True,
                   help="comma-separated column names, e.g. purity,gme")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(handler=_cmd_plot)

    p = sub.add_parser("catalog", help="print the entangled-state table")
    p.add_argument("--csv", help="also write the table to this CSV path")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _cmd_simulate(args) -> int:
    cfg = parse_config(_read_config(args.config))
    for key, output in (("out", cfg.csv_path), ("plot", cfg.plot)):
        if output is not None and same_file(output, args.config):
            raise ConfigError(f"{key} {str(output)!r} is the config file {args.config!r}")
    path = run_scenario(cfg)
    print(path)
    return 0


def _cmd_compare(args) -> int:
    cfg = parse_config(_read_config(args.config))
    report = compare_engines(cfg)
    print(report.summary())
    return 0 if report.passed else 3


def _cmd_sweep(args) -> int:
    summary = sweep(args.out)
    print(summary)
    return 0


def _cmd_plot(args) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        raise PlotDataError("--columns must name at least one column")
    out = plot_csvs(args.csv, columns, args.out)
    print(out)
    return 0


def _cmd_catalog(args) -> int:
    rows = [(e.name, e.family, e.pair[0], e.pair[1],
             e.paper_delta_e, e.computed_delta_e) for e in catalog_states()]
    print(f"{'state':<10} {'family':<7} {'pair':<7} {'quoted dE':>10} {'computed dE':>12}")
    for name, family, i, j, quoted, computed in rows:
        print(f"{name:<10} {family:<7} ({i},{j})   {quoted:>10.4g} {computed:>12.4g}")
    if args.csv:
        write_csv(args.csv, CATALOG_HEADER, rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
