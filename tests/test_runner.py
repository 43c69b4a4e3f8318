import csv
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import lindchain as lc
from lindchain import EngineKind, EnvironmentModel
from lindchain.runner import (CSV_HEADER, ConfigError, compare_engines,
                              parse_config, render_csv, run_scenario, sweep,
                              tau_first_below)

MINIMAL = "model = dephasing\nstate = psi_18\nt_max = 50\n"


# ------------------------------------------------------------------ parsing

def test_minimal_config_takes_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model is EnvironmentModel.DEPHASING
    assert cfg.evolution.engine is EngineKind.ELEMENT_WISE
    assert cfg.label == "psi_18"
    assert cfg.pair == (1, 8)
    assert cfg.family == "ABC"
    assert cfg.params == lc.SpinChainParams()
    assert cfg.evolution.t_max == 50.0
    assert cfg.evolution.dt == 1e-3
    assert cfg.evolution.record_stride == 100
    assert cfg.out is None and cfg.plot is None
    # canonical rates survive untouched
    assert np.array_equal(cfg.env.rates, 0.05 * np.eye(3))


def test_comments_blank_lines_and_overrides():
    text = """
    # scenario with overridden physics
    model = correlated_dephasing
    state = psi_45   # tracked pair (4, 5)
    omega_2 = 150
    J = 12
    Jp = 0.5
    Gamma_23 = 0.03
    dt = 0.01
    t_max = 5
    stride = 10
    out = run.csv
    """
    cfg = parse_config(text)
    assert cfg.params.omegas == (400.0, 150.0, 100.0)
    assert cfg.params.coupling_j == 12.0
    assert cfg.params.coupling_jp == 0.5
    assert cfg.env.rates[1, 2] == 0.03
    assert cfg.env.rates[2, 1] == 0.03  # auto-mirrored
    assert cfg.env.rates[0, 1] == 0.05  # untouched default
    assert cfg.out == "run.csv"


def test_unknown_model_names_line_and_choices():
    with pytest.raises(ConfigError, match=r"line 1.*warp.*independent_dissipation"):
        parse_config("model = warp\nstate = psi_18\n")
    with pytest.raises(ConfigError) as err:
        parse_config("model = dephasing\nengine = turbo\nstate = psi_18\n")
    assert str(err.value) == ("line 2: unknown engine 'turbo'; "
                              "valid engines: element_wise, operator_built")


def test_model_is_the_environment_model(tmp_path, monkeypatch):
    cfg = parse_config("model = dephasing\nstate = psi_18\nt_max = 0.1\ndt = 0.01\n")
    env = lc.EnvironmentSpec(EnvironmentModel.INDEPENDENT_DISSIPATION, 0.05 * np.eye(3))
    moved = replace(cfg, env=env)
    assert moved.model is EnvironmentModel.INDEPENDENT_DISSIPATION
    assert cfg.model is EnvironmentModel.DEPHASING
    # the default CSV is named after the model that was integrated
    monkeypatch.chdir(tmp_path)
    assert run_scenario(moved).name == "psi_18_independent_dissipation.csv"
    for stale in ({"model": EnvironmentModel.DEPHASING},
                  {"engine": EngineKind.OPERATOR_BUILT}):
        with pytest.raises(TypeError):
            replace(cfg, **stale)


def test_error_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("model = dephasing\nstate = psi_18\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 4"):
        parse_config("model = dephasing\nstate = psi_18\nt_max = 5\nt_max = 6\n")
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config("model = dephasing\nbogus = 3\nstate = psi_18\n")
    with pytest.raises(ConfigError, match="line 2.*number"):
        parse_config("model = dephasing\ndt = fast\nstate = psi_18\n")
    with pytest.raises(ConfigError, match="line 2.*psi_18"):
        parse_config("model = dephasing\nstate = psi_99\n")


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="model"):
        parse_config("state = psi_18\n")
    with pytest.raises(ConfigError, match="state"):
        parse_config("model = dephasing\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config("model = dephasing\nstate = psi_18\npair_i = 1\npair_j = 8\n")
    with pytest.raises(ConfigError, match="pair_j"):
        parse_config("model = dephasing\npair_i = 1\n")


def test_explicit_pair():
    cfg = parse_config("model = dephasing\npair_i = 2\npair_j = 5\n")
    assert cfg.pair == (2, 5)
    assert cfg.family == "AC"
    assert cfg.label == "pair_25"
    with pytest.raises(ConfigError, match="single qubit"):
        parse_config("model = dephasing\npair_i = 1\npair_j = 2\n")


def test_explicit_pair_runs_as_the_catalog_state(tmp_path):
    grid = "model = correlated_dissipation\nt_max = 2\ndt = 0.01\nstride = 10\n"
    by_pair = run_scenario(replace(parse_config(grid + "pair_i = 2\npair_j = 5\n"),
                                   out=str(tmp_path / "pair.csv")))
    by_name = run_scenario(replace(parse_config(grid + "state = xi_25\n"),
                                   out=str(tmp_path / "name.csv")))
    assert by_pair.read_bytes() == by_name.read_bytes()


def test_rate_validation():
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config("model = dephasing\nstate = psi_18\nGamma_2 = -0.1\n")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("model = dephasing\nstate = psi_18\n"
                     "Gamma_12 = 0.1\nGamma_21 = 0.2\n")
    # agreeing mirror entries are fine
    cfg = parse_config("model = dephasing\nstate = psi_18\n"
                       "Gamma_12 = 0.1\nGamma_21 = 0.1\n")
    assert cfg.env.rates[0, 1] == 0.0  # uncorrelated model drops it
    with pytest.raises(ConfigError, match="dt"):
        parse_config("model = dephasing\nstate = psi_18\ndt = -1\n")
    # keys of the family a model does not read are still checked, with their line
    with pytest.raises(ConfigError, match="^line 3: Gamma_2 must be nonnegative"):
        parse_config("model = independent_dissipation\nstate = psi_18\nGamma_2 = -0.1\n")
    with pytest.raises(ConfigError, match="^line 4: Gamma_21 conflicts .* line 3"):
        parse_config("model = independent_dissipation\nstate = psi_18\n"
                     "Gamma_12 = 0.1\nGamma_21 = 0.2\n")
    with pytest.raises(ConfigError, match="^line 4: gamma_21 conflicts .* line 3"):
        parse_config("model = dephasing\nstate = psi_18\n"
                     "gamma_12 = 0.1\ngamma_21 = 0.2\n")
    # the environment holds the matrix of the model's own family
    rates = "gamma_1 = 0.2\nGamma_1 = 0.3\ngamma_12 = 0.01\nGamma_12 = 0.02\n"
    for model, diagonal, cross in (("independent_dissipation", 0.2, 0.0),
                                   ("correlated_dissipation", 0.2, 0.01),
                                   ("dephasing", 0.3, 0.0),
                                   ("correlated_dephasing", 0.3, 0.02)):
        env = parse_config(f"model = {model}\nstate = psi_18\n" + rates).env
        assert env.rates[0, 0] == diagonal
        assert env.rates[0, 1] == env.rates[1, 0] == cross


def test_grid_must_reach_t_max():
    # 1 / 0.3 is not a whole number of steps: the run would stop at 0.9
    with pytest.raises(ConfigError, match="whole number"):
        parse_config("model = dephasing\nstate = psi_18\nt_max = 1\ndt = 0.3\n")
    cfg = parse_config("model = dephasing\nstate = psi_18\nt_max = 0.9\ndt = 0.3\n")
    assert cfg.evolution.t_max == 0.9


@pytest.mark.parametrize("grid, line", [
    ("dt = -1\nt_max = 5\n", 3),
    ("t_max = -5\n", 3),
    ("t_max = 5\nstride = 0\n", 4),
    ("dt = 0.3\nt_max = 1\n", 4),
    ("dt = 0.3\n", 3),  # t_max defaulted to 50: the dt line
    ("dt = 1e-320\n", 3),  # t_max / dt overflows to inf
    ("t_max = 1e300\ndt = 1e-10\n", 4),
    ("t_max = 1e308\n", 3),  # dt defaulted to 1e-3: the t_max line
    ("t_max = 1e12\n", 3),  # 1e13 records
    ("t_max = 1e-10\n", 3),  # far below one dt = 1e-3 step: zero steps
], ids=["dt", "t_max", "stride", "whole_number", "whole_number_default_t_max",
        "step_count_overflow", "step_count_overflow_both_set",
        "step_count_overflow_default_dt", "too_many_records", "below_one_step"])
def test_grid_errors_name_their_line(grid, line):
    with pytest.raises(ConfigError, match=f"^line {line}: "):
        parse_config("model = dephasing\nstate = psi_18\n" + grid)


def test_too_many_records_names_the_stride_key():
    with pytest.raises(ConfigError) as info:
        parse_config("model = dephasing\nstate = psi_18\nt_max = 1e12\n")
    assert str(info.value) == ("line 3: t_max = 1e+12 at dt = 0.001 and stride = 100 gives "
                               "10000000000001 records, more than 1048576")


@pytest.mark.parametrize("stride, message", [
    ("0", "stride must be a positive integer, got 0"),
    ("2.5", "stride must be an integer, got '2.5'"),
])
def test_stride_errors_name_the_config_key(stride, message):
    with pytest.raises(ConfigError) as info:
        parse_config(f"model = dephasing\nstate = psi_18\nt_max = 5\nstride = {stride}\n")
    assert str(info.value) == f"line 4: {message}"


# -------------------------------------------------------------------- CSV

def test_render_csv_format():
    text = render_csv(("a", "b"), [(1.0, 0.5), (2.0, 1.0 / 3.0)])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1.00000000000e+00,5.00000000000e-01"
    assert lines[2] == "2.00000000000e+00,3.33333333333e-01"
    assert text.endswith("\n") and "\r" not in text
    # every numeric cell carries 12 significant digits
    for cell in lines[1].split(","):
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2}", cell)


def _format_cell_reference(cell) -> str:
    """The per-cell formatter the row template must reproduce."""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer)) and not isinstance(cell, bool):
        return str(int(cell))
    return f"{float(cell):.11e}"


def test_render_csv_array_matches_tuples():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(6, 4)) * np.array([1e-17, 1.0, 1e5, -3e12])
    rows[2, 1] = np.nan
    header = ("a", "b", "c", "d")
    text = render_csv(header, rows)
    assert text.encode() == render_csv(header, [tuple(r) for r in rows.tolist()]).encode()
    expected = [",".join(header)] + [",".join(_format_cell_reference(c) for c in row)
                                     for row in rows]
    assert text == "\n".join(expected) + "\n"


def test_render_csv_constant_columns_match_per_row_template():
    rng = np.random.default_rng(5)
    rows = np.column_stack([
        np.full(5, 0.125),                 # constant: formatted once
        [0.0, -0.0, 0.0, -0.0, 0.0],       # equal under ==, but not in bits
        np.full(5, np.nan),                # constant although nan != nan
        rng.normal(size=5),                # varying
        np.full(5, -0.0),                  # constant negative zero
    ])
    integers = np.array([[3, -7, 12], [3, 0, 12], [3, 5, 12]])
    for table in (rows, integers, rows[:1]):
        header = tuple("abcde"[:table.shape[1]])
        text = render_csv(header, table)
        assert text.encode() == render_csv(header, [tuple(r) for r in table.tolist()]).encode()
        expected = [",".join(header)] + [",".join(_format_cell_reference(c) for c in row)
                                         for row in table.tolist()]
        assert text == "\n".join(expected) + "\n"
    lines = render_csv(tuple("abcde"), rows).split("\n")
    assert [line.split(",")[1] for line in lines[1:3]] == ["0.00000000000e+00",
                                                           "-0.00000000000e+00"]
    assert lines[1].split(",")[2] == "nan" and lines[1].split(",")[4] == "-0.00000000000e+00"
    assert render_csv(("a", "b", "c"), integers).split("\n")[2] == "3,0,12"


def test_render_csv_mixed_cell_kinds():
    rows = [("psi_18", 3, np.int64(-7), True, 0.25, float("nan"), np.float64(-1e-300)),
            ("xi_47", 12, np.int64(0), False, -2.0, float("inf"), np.float64(5.0))]
    text = render_csv(tuple("abcdefg"), rows)
    lines = text.split("\n")
    assert lines[1] == ("psi_18,3,-7,1.00000000000e+00,2.50000000000e-01,nan,"
                        "-1.00000000000e-300")
    assert lines[1:3] == [",".join(_format_cell_reference(c) for c in row) for row in rows]
    assert lines[3] == ""


def test_render_csv_empty_rows_give_header_only():
    assert render_csv(("a", "b"), []) == "a,b\n"
    assert render_csv(("a", "b"), np.empty((0, 2))) == "a,b\n"


def test_run_scenario_writes_expected_csv(tmp_path):
    cfg = parse_config("model = dephasing\nstate = psi_18\nt_max = 10\n"
                       "dt = 0.001\nstride = 1000\n")
    path = run_scenario(replace(cfg, out=str(tmp_path / "dep.csv")))
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(CSV_HEADER)
    assert len(rows) == 11
    first, last = rows[0], rows[-1]
    assert float(first["tau"]) == 0.0
    assert float(first["purity"]) == 1.0
    assert float(first["gme"]) == 1.0
    assert float(first["p1"]) == 0.5 and float(first["p8"]) == 0.5
    assert float(last["tau"]) == 10.0
    assert float(last["purity"]) == pytest.approx(0.5 * (1 + math.exp(-3.0)), abs=1e-8)
    assert float(last["gme"]) == pytest.approx(math.exp(-1.5), abs=1e-8)
    assert float(last["coh_abs"]) == pytest.approx(0.5 * math.exp(-1.5), abs=1e-8)
    assert abs(float(last["trace_err"])) < 1e-12
    assert abs(float(last["min_eig"])) < 1e-10


def test_run_scenario_is_byte_deterministic(tmp_path):
    cfg = parse_config("model = independent_dissipation\nstate = psi_18\n"
                       "t_max = 2\ndt = 0.001\nstride = 200\n")
    a = run_scenario(replace(cfg, out=str(tmp_path / "a.csv")))
    b = run_scenario(replace(cfg, out=str(tmp_path / "b.csv")))
    assert a.read_bytes() == b.read_bytes()


def test_run_scenario_writes_plot(tmp_path):
    cfg = parse_config("model = dephasing\nstate = psi_18\nt_max = 1\n"
                       f"dt = 0.01\nstride = 10\nout = {tmp_path}/r.csv\n"
                       f"plot = {tmp_path}/r.svg\n")
    run_scenario(cfg)
    svg = (tmp_path / "r.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<polyline" in svg


# ------------------------------------------------------------- comparisons

def test_compare_engines_passes_on_default_scenario():
    cfg = parse_config("model = correlated_dissipation\nstate = psi_18\n"
                       "t_max = 2\ndt = 0.001\nstride = 100\n")
    report = compare_engines(cfg)
    assert report.passed
    assert report.max_delta < 1e-9
    assert report.closed_form_delta is None
    assert "PASS" in report.summary()


def test_compare_engines_zero_rates_agree_exactly():
    cfg = parse_config("model = independent_dissipation\nstate = psi_18\n"
                       "gamma_1 = 0\ngamma_2 = 0\ngamma_3 = 0\n"
                       "t_max = 1\ndt = 0.01\nstride = 10\n")
    report = compare_engines(cfg)
    assert report.max_delta == 0.0


def test_compare_engines_checks_dephasing_closed_form():
    cfg = parse_config("model = dephasing\nstate = psi_18\n"
                       "t_max = 2\ndt = 0.001\nstride = 100\n")
    report = compare_engines(cfg)
    assert report.passed
    assert report.closed_form_delta is not None
    assert report.closed_form_delta < 1e-10


# ---------------------------------------------------------- tau* and sweep

def test_tau_first_below():
    taus = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([1.0, 0.8, 0.4, 0.2])
    # linear interpolation between the samples that bracket 0.5
    assert tau_first_below(taus, values) == pytest.approx(1.75)
    assert math.isnan(tau_first_below(taus, np.array([1.0, 0.9, 0.8, 0.7])))
    assert tau_first_below(taus, np.array([0.3, 0.2, 0.1, 0.0])) == 0.0


def test_sweep(tmp_path, monkeypatch, propagator_cache):
    builds = []
    make_rhs = lc.engine.make_rhs

    def counted_make_rhs(*args):
        builds.append(args[1].model)
        return make_rhs(*args)

    monkeypatch.setattr(lc.engine, "make_rhs", counted_make_rhs)
    summary = sweep(tmp_path, t_max=10.0)
    assert builds == list(EnvironmentModel)  # one transfer matrix per model
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 65  # 16 states x 4 models + summary
    with summary.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["state"], r["model"]) for r in rows] == [
        (entry.name, model.value)
        for entry in lc.catalog_states(lc.SpinChainParams()) for model in EnvironmentModel]
    for row in rows:
        with (tmp_path / f"{row['state']}_{row['model']}.csv").open(newline="") as fh:
            table = np.array([[float(r["tau"]), float(r["gme"])] for r in csv.DictReader(fh)])
        # the run's CSV holds its gme to 12 significant digits
        assert float(row["tau_star"]) == pytest.approx(
            tau_first_below(table[:, 0], table[:, 1]), abs=1e-9, nan_ok=True)

    by_run = {(r["state"], r["model"]): r for r in rows}
    energies = lc.all_energies(lc.SpinChainParams())
    for row in rows:
        computed = float(row["computed_delta_e"])
        i, j = int(row["pair_i"]), int(row["pair_j"])
        assert computed == pytest.approx(energies[j - 1] - energies[i - 1], abs=1e-12)

    # under uniform dephasing every member of a family shares one decay curve
    abc = [float(by_run[(s, "dephasing")]["tau_star"])
           for s in ("psi_18", "psi_27", "psi_36", "psi_45")]
    assert max(abc) - min(abc) < 1e-9
    assert abc[0] == pytest.approx(math.log(2) / 0.15, abs=5e-3)
    for family_states in (("alpha_17", "alpha_28", "alpha_46", "alpha_35"),
                          ("beta_14", "beta_58", "beta_23", "beta_67"),
                          ("xi_16", "xi_38", "xi_25", "xi_47")):
        stars = [float(by_run[(s, "dephasing")]["tau_star"]) for s in family_states]
        assert max(stars) - min(stars) < 1e-9
        assert stars[0] == pytest.approx(math.log(2) / 0.1, abs=5e-3)

    # correlated dephasing protects the alpha_35 coherence outright
    assert math.isnan(float(by_run[("alpha_35", "correlated_dephasing")]["tau_star"]))

    # the two dissipation models barely differ on the tripartite state
    # (threshold is an artifact choice; the claim is qualitative)
    def gme_column(name):
        with (tmp_path / name).open(newline="") as fh:
            return np.array([float(r["gme"]) for r in csv.DictReader(fh)])

    delta = np.abs(gme_column("psi_18_independent_dissipation.csv")
                   - gme_column("psi_18_correlated_dissipation.csv"))
    assert float(delta.max()) < 1e-3
