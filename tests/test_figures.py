"""The figure script regenerates the committed figures/ files, byte for
byte, and `lindchain plot` redraws each run's committed SVG from its CSV."""

import importlib.util
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from lindchain import EnvironmentModel, catalog_states, cli, runner

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_committed_csvs_redraw_committed_svg(config, tmp_path):
    """`lindchain plot` of a run's committed CSV gives its committed SVG,
    byte for byte.  simulate draws from the rows in memory, read as
    float() reads their printed cells (runner.read_back), lindchain plot
    from csv.reader and float(): both must give the committed SVGs.  (The
    overlays are `lindchain plot` already, in the figure script's test.)"""
    svg = tmp_path / f"{config.stem}.svg"
    assert cli.main(["plot", str(REPO / "figures" / f"{config.stem}.csv"),
                     "--columns", "purity,gme", "--out", str(svg)]) == 0
    assert svg.read_bytes() == (REPO / "figures" / svg.name).read_bytes()


def test_simulate_and_plot_draw_the_same_svg_on_fresh_runs(tmp_path, monkeypatch):
    """For every catalog state under every model, the SVG simulate writes
    is `lindchain plot` of its CSV, byte for byte.  The grid reaches
    negative gme, clamped for display, and cells read_back passes to
    float()."""
    drawn = []
    read_back = runner.read_back
    monkeypatch.setattr(runner, "read_back", lambda cells: drawn.append(cells) or read_back(cells))
    csv, svg, replot = tmp_path / "run.csv", tmp_path / "run.svg", tmp_path / "replot.svg"
    config = tmp_path / "run.cfg"
    for model in EnvironmentModel:
        for entry in catalog_states():
            config.write_text(f"model = {model.value}\nstate = {entry.name}\nt_max = 20\n"
                              f"dt = 0.01\nstride = 100\nout = {csv}\nplot = {svg}\n",
                              encoding="utf-8")
            assert cli.main(["simulate", str(config)]) == 0
            assert cli.main(["plot", str(csv), "--columns", "purity,gme",
                             "--out", str(replot)]) == 0
            assert replot.read_bytes() == svg.read_bytes(), (entry.name, model.value)
    cells = np.concatenate(drawn)
    assert len(drawn) == 64 and (cells[:, 2] < 0).any()
    sure = runner._digit_split(cells)[2]
    assert not sure[cells != 0].all()


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
