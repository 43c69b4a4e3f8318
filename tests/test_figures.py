"""The bundled configs and the default sweep still reproduce the committed
figures/ CSVs, byte for byte, and those CSVs the committed SVGs."""

import dataclasses
from pathlib import Path

import pytest

from lindchain.runner import parse_config, run_scenario, sweep
from lindchain.svgplot import plot_csvs

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_committed_figure(config, tmp_path):
    cfg = parse_config(config.read_text(encoding="utf-8"))
    cfg = dataclasses.replace(cfg, out=str(tmp_path / f"{config.stem}.csv"),
                              plot=str(tmp_path / f"{config.stem}.svg"))
    out = run_scenario(cfg)
    for path in (out, Path(cfg.plot)):
        assert path.read_bytes() == (REPO / "figures" / path.name).read_bytes()


def test_default_sweep_reproduces_committed_summary(tmp_path):
    summary = sweep(tmp_path)
    assert summary.read_bytes() == (REPO / "figures" / "sweep_summary.csv").read_bytes()


OVERLAID = ("psi18_correlated_dephasing", "psi18_dephasing", "psi18_independent")
REDRAWS = [pytest.param(f"{config.stem}.svg", [config.stem], ["purity", "gme"], id=config.stem)
           for config in CONFIGS]
REDRAWS += [pytest.param(f"overlay_{column}.svg", OVERLAID, [column], id=f"overlay_{column}")
            for column in ("gme", "purity")]


@pytest.mark.parametrize("svg, stems, columns", REDRAWS)
def test_committed_csvs_redraw_committed_svg(svg, stems, columns, tmp_path):
    """What CI's `lindchain plot` step redraws, byte for byte."""
    csvs = [REPO / "figures" / f"{stem}.csv" for stem in stems]
    out = plot_csvs(csvs, columns, tmp_path / svg)
    assert out.read_bytes() == (REPO / "figures" / svg).read_bytes()
