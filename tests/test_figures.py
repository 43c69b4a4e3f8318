"""The bundled configs still reproduce the committed figures/ CSVs, and
those CSVs the committed SVGs."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lindchain.runner import parse_config, run_scenario
from lindchain.svgplot import emit_svg_plot

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))
# CSVs keep 12 significant digits; the same bound the benchmark holds its
# reference figures to
ATOL = 1e-10


def _read(path: Path):
    with path.open(newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, np.array(rows, dtype=float)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_committed_figure(config, tmp_path):
    cfg = parse_config(config.read_text(encoding="utf-8"))
    cfg = dataclasses.replace(cfg, out=str(tmp_path / f"{config.stem}.csv"),
                              plot=str(tmp_path / f"{config.stem}.svg"))
    header, values = _read(run_scenario(cfg))
    ref_header, ref_values = _read(REPO / "figures" / f"{config.stem}.csv")
    assert header == ref_header
    assert values.shape == ref_values.shape
    np.testing.assert_allclose(values, ref_values, rtol=0.0, atol=ATOL)


OVERLAID = ("psi18_correlated_dephasing", "psi18_dephasing", "psi18_independent")
REDRAWS = [pytest.param(f"{config.stem}.svg", [config.stem], ["purity", "gme"], id=config.stem)
           for config in CONFIGS]
REDRAWS += [pytest.param(f"overlay_{column}.svg", OVERLAID, [column], id=f"overlay_{column}")
            for column in ("gme", "purity")]


@pytest.mark.parametrize("svg, stems, columns", REDRAWS)
def test_committed_csvs_redraw_committed_svg(svg, stems, columns, tmp_path):
    """What CI's `lindchain plot` step redraws, byte for byte."""
    csvs = [REPO / "figures" / f"{stem}.csv" for stem in stems]
    out = emit_svg_plot(csvs, columns, tmp_path / svg)
    assert out.read_bytes() == (REPO / "figures" / svg).read_bytes()
