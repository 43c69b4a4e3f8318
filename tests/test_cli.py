import csv
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import lindchain.cli as cli
from lindchain.runner import EngineComparison

REPO = Path(__file__).resolve().parent.parent


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def quick_config(tmp_path):
    out = tmp_path / "run.csv"
    cfg = write(tmp_path / "run.cfg",
                "model = dephasing\nstate = psi_18\n"
                f"t_max = 1\ndt = 0.01\nstride = 10\nout = {out}\n")
    return cfg, out


def test_simulate_success(quick_config, capsys):
    cfg, out = quick_config
    assert cli.main(["simulate", cfg]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert out.exists()
    with out.open(newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 11


def test_simulate_bad_model_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "model = warp\nstate = psi_18\n")
    assert cli.main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "warp" in err


def test_simulate_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["simulate", str(tmp_path / "nope.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_config_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"model = dephasing\nstate = psi_18\n# caf\xe9\n")
    assert cli.main(["simulate", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read config {str(cfg)!r}: 'utf-8' codec can't decode byte 0xe9 "
        "in position 38: invalid continuation byte\n")


def test_simulate_config_with_bom_matches_without(tmp_path, capsys):
    text = "model = dephasing\nstate = psi_18\nt_max = 1\ndt = 0.01\nstride = 10\n"
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(bom + f"{text}out = {tmp_path / name}.csv\n".encode())
        assert cli.main(["simulate", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_simulate_grid_missing_t_max_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "grid.cfg",
                "model = dephasing\nstate = psi_18\nt_max = 1\ndt = 0.3\n"
                f"out = {tmp_path}/x.csv\n")
    assert cli.main(["simulate", cfg]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_too_many_records_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "long.cfg", "model = dephasing\nstate = psi_18\nt_max = 1e12\n")
    assert cli.main(["simulate", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: line 3: t_max = 1e+12 at dt = 0.001 and stride = 100 gives "
        "10000000000001 records, more than 1048576\n")


def test_simulate_divergence_exits_2(tmp_path, capsys):
    # rate far beyond the fixed-step stability limit
    cfg = write(tmp_path / "stiff.cfg",
                "model = independent_dissipation\nstate = psi_18\n"
                "gamma_1 = 5000\ngamma_2 = 5000\ngamma_3 = 5000\n"
                f"t_max = 2\ndt = 0.001\nstride = 100\nout = {tmp_path}/x.csv\n")
    assert cli.main(["simulate", cfg]) == 2
    assert capsys.readouterr().err == (
        "warning: dt = 0.001 lies outside the RK4 stability region: the one-step "
        "transfer matrix has spectral radius 1645.38 > 1\n"
        "numerical failure: state became non-finite at step 96 (tau = 0.096)\n")


def test_simulate_overflowing_rate_warns_once_and_exits_2(tmp_path, capsys):
    # Gamma dt = 1e198 overflows the transfer matrix: the stability warning
    # and the divergence report say so, numpy's own warnings stay silent
    cfg = write(tmp_path / "huge.cfg",
                "model = dephasing\nstate = psi_18\nGamma_1 = 1e200\n"
                f"t_max = 1\ndt = 0.01\nstride = 10\nout = {tmp_path}/x.csv\n")
    assert cli.main(["simulate", cfg]) == 2
    assert capsys.readouterr().err == (
        "warning: dt = 0.01 lies outside the RK4 stability region: the one-step "
        "transfer matrix has spectral radius inf > 1\n"
        "numerical failure: state became non-finite at step 1 (tau = 0.01)\n")


def test_simulate_huge_cross_rate_of_uncorrelated_model_is_dropped(tmp_path, capsys):
    plain = write(tmp_path / "plain.cfg",
                  "model = dephasing\nstate = psi_18\nt_max = 1\ndt = 0.01\n"
                  f"stride = 10\nout = {tmp_path}/plain.csv\n")
    huge = write(tmp_path / "huge.cfg",
                 "model = dephasing\nstate = psi_18\nGamma_12 = 1e308\nt_max = 1\n"
                 f"dt = 0.01\nstride = 10\nout = {tmp_path}/huge.csv\n")
    assert cli.main(["simulate", plain]) == 0
    assert cli.main(["simulate", huge]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def _run_cli(*args, **run_kwargs):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lindchain", *args],
                          cwd=REPO, env=env, capture_output=True, text=True, check=False,
                          **run_kwargs)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("values, code", [
    (("1e16", "1.0000000000000004e16"), 0),  # two ulps apart: ticks below the spacing
    (("1e16", "1e16"), 0),  # flat: 1e16 +- 0.5 is 1e16
    (("1.7e308", "-1.7e308"), 1),  # the range overflows
], ids=["ulp_apart", "flat_huge", "overflowing_range"])
def test_plot_extreme_finite_columns(tmp_path, values, code):
    csv_path = write(tmp_path / "x.csv",
                     "tau,y\n" + "".join(f"{t},{v}\n" for t, v in enumerate(values)))
    svg = tmp_path / "x.svg"
    # in a child with a timeout and a memory cap: an unbounded tick loop
    # must fail this test, not hang or exhaust the machine
    done = _run_cli("plot", csv_path, "--columns", "y", "--out", str(svg),
                    timeout=10, preexec_fn=_cap_memory)
    assert done.returncode == code, done.stderr
    if code:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert not svg.exists()
        return
    assert done.stderr == ""
    text = svg.read_text()
    numbers = re.findall(r'\s(?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', text)
    numbers += " ".join(re.findall(r'points="([^"]+)"', text)).replace(",", " ").split()
    assert all(math.isfinite(float(n)) for n in numbers)
    assert "nan" not in text and "inf" not in text
    assert text.count("<text") <= 2 * 6 + 2  # ticks on two axes, axis title, legend
    for axis in ('text-anchor="middle"', 'text-anchor="end"'):  # x ticks, y ticks
        ticks = re.findall(rf'<text x="([^"]+)" y="([^"]+)" font-size="11" {axis}>([^<]+)<',
                           text)
        assert ticks
        positions = [(x, y) for x, y, _ in ticks]
        labels = [label for _, _, label in ticks]
        assert len(set(positions)) == len(positions)
        assert len(set(labels)) == len(labels)


def test_cli_warning_is_one_line_without_source():
    done = _run_cli("compare-engines", "configs/psi18_correlated_dephasing.cfg")
    assert done.returncode == 0
    assert done.stdout == ("max entrywise |delta rho| over 501 records: 0.000e+00\n"
                           "threshold: 1.0e-06\n"
                           "closed-form dephasing |delta rho|: 4.091e-14\n"
                           "PASS\n")
    assert done.stderr == ("warning: rate matrix for correlated_dephasing is not positive "
                           "semidefinite (min eigenvalue -1.743e-03); the map may not be "
                           "completely positive\n")


def test_compare_engines_success(quick_config, capsys):
    cfg, _ = quick_config
    assert cli.main(["compare-engines", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "closed-form" in out  # dephasing scenarios also check the exact law


def test_compare_engines_failure_exits_3(quick_config, capsys, monkeypatch):
    cfg, _ = quick_config
    monkeypatch.setattr(cli, "compare_engines", lambda _cfg: EngineComparison(
        max_delta=1.0, passed=False, n_records=3))
    assert cli.main(["compare-engines", cfg]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_sweep_dispatch(tmp_path, capsys, monkeypatch):
    calls = {}

    def fake_sweep(out_dir):
        calls["out"] = out_dir
        return tmp_path / "summary.csv"

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    assert cli.main(["sweep", "--out", str(tmp_path)]) == 0
    assert calls["out"] == str(tmp_path)
    assert capsys.readouterr().out.strip().endswith("summary.csv")


def test_plot_roundtrip(quick_config, tmp_path, capsys):
    cfg, out = quick_config
    cli.main(["simulate", cfg])
    svg = tmp_path / "fig.svg"
    assert cli.main(["plot", str(out), "--columns", "purity,gme",
                     "--out", str(svg)]) == 0
    assert str(svg) in capsys.readouterr().out
    text = svg.read_text()
    assert "<svg" in text and "<polyline" in text


def test_plot_missing_column_exits_1(quick_config, tmp_path, capsys):
    cfg, out = quick_config
    cli.main(["simulate", cfg])
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--columns", "nope",
                     "--out", str(tmp_path / "f.svg")]) == 1
    assert "nope" in capsys.readouterr().err


def test_plot_empty_columns_exits_1(quick_config, tmp_path, capsys):
    cfg, out = quick_config
    cli.main(["simulate", cfg])
    capsys.readouterr()
    assert cli.main(["plot", str(out), "--columns", " , ",
                     "--out", str(tmp_path / "f.svg")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("last_row", ["1", "1,inf", "1,nan", "1,abc"])
def test_plot_bad_cell_exits_1(tmp_path, capsys, last_row):
    csv_path = write(tmp_path / "bad.csv", f"tau,purity\n0,1\n{last_row}\n")
    assert cli.main(["plot", csv_path, "--columns", "purity",
                     "--out", str(tmp_path / "f.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: line 3, column 'purity': ")
    assert not (tmp_path / "f.svg").exists()


def test_plot_csv_not_utf8_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"tau,y\n0,1\n1,2\n# caf\xe9\n")
    assert cli.main(["plot", str(csv_path), "--columns", "y",
                     "--out", str(tmp_path / "x.svg")]) == 1
    assert capsys.readouterr().err == f"error: {csv_path}: not UTF-8 text\n"
    assert not (tmp_path / "x.svg").exists()


def test_plot_csv_with_bom_matches_without(tmp_path, capsys):
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        # one file name in both directories, since the legend shows it
        csv_path = tmp_path / name / "run.csv"
        csv_path.write_bytes(bom + b"tau,y\n0,1\n1,2\n")
        assert cli.main(["plot", str(csv_path), "--columns", "y",
                         "--out", str(tmp_path / name / "run.svg")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "bom" / "run.svg").read_bytes() == (
        tmp_path / "plain" / "run.svg").read_bytes()


def test_catalog_prints_all_states(capsys):
    assert cli.main(["catalog"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17  # header + 16 states
    assert lines[0].split()[0] == "state"
    assert any(line.startswith("psi_18") for line in lines)
    assert any(line.startswith("xi_47") for line in lines)


def test_catalog_csv_output(tmp_path, capsys):
    path = tmp_path / "new" / "catalog.csv"  # the directory is created
    assert cli.main(["catalog", "--csv", str(path)]) == 0
    assert capsys.readouterr().err == ""
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    psi18 = next(r for r in rows if r["state"] == "psi_18")
    assert float(psi18["paper_delta_e"]) == 700.0
    assert float(psi18["computed_delta_e"]) == 700.0


def test_catalog_csv_family_matches_name_prefix(tmp_path, capsys):
    path = tmp_path / "catalog.csv"
    assert cli.main(["catalog", "--csv", str(path)]) == 0
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    prefix_family = {"psi": "ABC", "alpha": "AB", "beta": "BC", "xi": "AC"}
    assert sorted(r["state"].split("_")[0] for r in rows) == sorted(
        prefix for prefix in prefix_family for _ in range(4))
    for row in rows:
        assert row["family"] == prefix_family[row["state"].split("_")[0]], row


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
    capsys.readouterr()
