"""The bundled configs and the default sweep still reproduce the committed
figures/ CSVs, byte for byte, and those CSVs the committed SVGs."""

import dataclasses
import importlib.util
import re
import shutil
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


def _figure_script():
    spec = importlib.util.spec_from_file_location("run_figures",
                                                  REPO / "scripts" / "run_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# CI's psd pattern: the one warning the bundled runs may print
PSD = re.compile(r"warning: rate matrix for [a-z_]* is not positive semidefinite "
                 r"\(min eigenvalue [-+.e0-9]*\); the map may not be completely positive")


@pytest.mark.filterwarnings("default::UserWarning")  # as a plain `python` run shows them
def test_figure_script_regenerates_figures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _figure_script().main([]) == 0
    committed = sorted((REPO / "figures").iterdir())
    assert len(committed) == 11
    assert sorted(p.name for p in (tmp_path / "figures").iterdir()) == [p.name for p in committed]
    for path in committed:
        assert (tmp_path / "figures" / path.name).read_bytes() == path.read_bytes(), path.name
    # one line per warning: the correlated dephasing config, then the
    # sweep's two correlated models
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all(PSD.fullmatch(line) for line in err), err


def test_figure_script_stops_at_the_first_failing_command(tmp_path, monkeypatch, capsys):
    configs = tmp_path / "configs"
    shutil.copytree(REPO / "configs", configs)
    (configs / "psi18_dephasing.cfg").write_text("model = nope\n", encoding="utf-8")
    script = _figure_script()
    monkeypatch.setattr(script, "CONFIGS", configs)
    monkeypatch.chdir(tmp_path)
    assert script.main([]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if not PSD.fullmatch(line)]
    assert len(errors) == 1 and errors[0].startswith("error: "), errors
    # the two configs sorted before it ran; nothing after it did
    assert sorted(p.name for p in (tmp_path / "figures").iterdir()) == [
        "psi18_big_dissipation.csv", "psi18_big_dissipation.svg",
        "psi18_correlated_dephasing.csv", "psi18_correlated_dephasing.svg"]
