"""The bundled configs still reproduce the committed figures/ CSVs."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lindchain.runner import parse_config, run_scenario

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
