import csv
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindchain as lc
from lindchain import EngineKind, EnvironmentModel, cli, runner
from lindchain.runner import (CSV_HEADER, ConfigError, compare_engines,
                              parse_config, read_back, render_csv, run_scenario,
                              sweep, tau_first_below)

REPO = Path(__file__).resolve().parent.parent
MINIMAL = "model = dephasing\nstate = psi_18\n"  # every other key defaulted


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
    assert cfg.evolution == lc.EvolutionConfig()  # the grid defaults are the class's
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


def test_leading_bom_is_dropped():
    """A config saved with a byte-order mark parses as the same text
    without it, and its errors name the same lines."""
    text = ("# saved with a byte-order mark\nmodel = correlated_dissipation\n"
            "state = xi_47\nJ = 12\ngamma_13 = 0.02\nt_max = 5\n")
    plain, marked = parse_config(text), parse_config("\ufeff" + text)
    assert replace(marked, env=None) == replace(plain, env=None)
    assert marked.model is plain.model
    assert np.array_equal(marked.env.rates, plain.env.rates)
    for bad in ("# a comment\nmodel = dephasing\nnot a pair\n",
                "bogus\nmodel = dephasing\n",
                "# a comment\nmodel = dephasing\nstate = psi_18\nt_max = 5\nt_max = 6\n"):
        messages = []
        for prefix in ("", "\ufeff"):
            with pytest.raises(ConfigError) as caught:
                parse_config(prefix + bad)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert re.match(r"line [0-9]+: ", messages[0])


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


@pytest.mark.parametrize("pairs, lineno", [
    ("pair_j = 9\npair_i = 1\n", 2),  # pair_j out of range: its own line
    ("pair_j = 1\npair_i = 0\n", 3),
    ("pair_i = 3\npair_j = 0\n", 3),
    ("pair_j = 9\npair_i = 0\n", 3),  # both out of range: pair_i's line
    ("pair_j = 2\npair_i = 1\n", 3),  # the pair as a whole: pair_i's line
    ("pair_j = 4\npair_i = 4\n", 3),
], ids=["j_high", "i_low", "j_low", "both", "single_qubit", "equal"])
def test_pair_error_names_the_line_at_fault(pairs, lineno):
    with pytest.raises(ConfigError, match=rf"^line {lineno}: pair \("):
        parse_config("model = dephasing\n" + pairs)


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


@pytest.mark.parametrize("text, message", [
    ("model = dephasing\nt_max = x\nstate = psi_18\nt_max = 5\n",
     "line 2: t_max must be a number, got 'x'"),  # not the duplicate below it
    ("state = psi_18\npair_j = x\nmodel = dephasing\n",
     "line 2: pair_j must be an integer, got 'x'"),  # not the state/pair clash
    ("J = x\nstate = psi_18\n", "line 1: J must be a number, got 'x'"),  # not the model
    ("bogus = 1\nmodel = warp\nstate = psi_18\n", "line 1: unknown key 'bogus'"),
], ids=["value_before_duplicate", "value_before_state_clash", "value_before_missing_model",
        "unknown_key_before_bad_model"])
def test_first_line_bad_on_its_own_is_reported(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


FUZZ_KEYS = ("model", "engine", "state", "pair_i", "pair_j", "omega_1", "J", "Jp", "dt",
             "t_max", "stride", "out", "plot", "gamma_1", "gamma_21", "Gamma_12", "Gamma_33",
             "gamma_4", "bogus")
FUZZ_VALUES = ("0x10", "1_0", "nan", "inf", "5e-324", "psi_99", "warp", "", "= 3", "junk",
               "0", "-1", "2.5", "8", "1e12", "psi_27", "dephasing", "operator_built", "out.csv")
LINE_LESS = ("missing required key 'model'",
             "config must set 'state' or both 'pair_i' and 'pair_j'")


def test_parse_fuzz_raises_only_config_errors_with_a_line_in_the_text():
    """Seeded mutants of the bundled configs (1-3 edits each: set a key,
    repeat a line, delete a line, add a line without '=') either parse or
    raise a ConfigError naming a line of the text, or one of the two
    messages of a config as a whole that name none."""
    rng = random.Random(35)
    bases = [path.read_text(encoding="utf-8").splitlines()
             for path in sorted(REPO.joinpath("configs").glob("*.cfg"))]
    outcomes = {"parsed": 0, "line": 0, "line-less": 0}
    for _ in range(300):
        lines = list(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            edit, at = rng.randrange(4), rng.randrange(len(lines) + 1)
            if edit == 0:
                lines.insert(at, f"{rng.choice(FUZZ_KEYS)} = {rng.choice(FUZZ_VALUES)}")
            elif edit == 1 and lines:
                lines.insert(at, rng.choice(lines))
            elif edit == 2 and lines:
                del lines[min(at, len(lines) - 1)]
            else:
                lines.insert(at, rng.choice(FUZZ_VALUES) or "junk")
        text = "\n".join(lines) + "\n"
        try:
            parse_config(text)
            outcomes["parsed"] += 1
        except ConfigError as exc:
            numbered = re.match(r"line ([0-9]+): ", str(exc))
            if numbered:
                assert 1 <= int(numbered[1]) <= len(lines), (text, exc)
                outcomes["line"] += 1
            else:
                assert str(exc) in LINE_LESS, (text, exc)
                outcomes["line-less"] += 1
    assert min(outcomes.values()) > 0, outcomes  # the pool reaches every outcome


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
    """The text of one cell, stated apart from runner: '%.11e' for a float
    (numpy's float64 is one), str() for anything else."""
    if isinstance(cell, float):
        return f"{cell:.11e}"
    return str(cell)


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
    assert lines[1] == "psi_18,3,-7,True,2.50000000000e-01,nan,-1.00000000000e-300"
    assert lines[2] == "xi_47,12,0,False,-2.00000000000e+00,inf,5.00000000000e+00"
    assert lines[1:3] == [",".join(_format_cell_reference(c) for c in row) for row in rows]
    assert lines[3] == ""


def test_render_csv_empty_rows_give_header_only():
    assert render_csv(("a", "b"), []) == "a,b\n"
    assert render_csv(("a", "b"), np.empty((0, 2))) == "a,b\n"


def test_render_csv_writes_each_cell_by_its_own_kind():
    # no column-wide format: an int and a str, or an int and a float, share a column
    assert render_csv(("a",), [(1,), ("x",)]) == "a\n1\nx\n"
    assert render_csv(("a", "b"), [("x", 1), ("y", 2.7)]) == "a,b\nx,1\ny,2.70000000000e+00\n"
    assert render_csv(("a",), [(1,), (True,)]) == "a\n1\nTrue\n"
    assert render_csv(("a",), [(1,), (np.int64(-2),)]) == "a\n1\n-2\n"


def _percent_lines(values) -> str:
    """The CSV lines '%.11e' writes for a 2-D float array, cell by cell."""
    n_rows, width = values.shape
    return ((",".join(["%.11e"] * width) + "\n") * n_rows) % tuple(values.ravel().tolist())


def _float_cases() -> np.ndarray:
    """Cells at the edges of the byte formatter: every power of two,
    10**k and its float neighbours, 12-digit ties and their neighbours,
    carries to the next power of ten, the 1e+-280 cut, signed zeros and
    nans, infinities and subnormals."""
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    rng = np.random.default_rng(20)  # decimal 13-digit ties: the float lies just off them
    ties = [float(f"{m}5e{k}") for m, k in zip(rng.integers(10 ** 11, 10 ** 12, 300),
                                                rng.integers(-300, 280, 300))]
    ties += [100000000000.5, 100000000001.5, 999999999999.5, 123456789012.5, 0.5, 2.5,
             1.25e-3, 6.103515625e-05]
    carries = np.array([9.999999999995e-5, 9.9999999999995e-1, 9.999999999995e22,
                        9.9999999999949e-5, 0.99999999999949])
    cut = np.array([1e-280, 1e280, 2.5e-280, 9.99e279])
    special = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                        5e-324, 2.2250738585072014e-308, 2.225073858507201e-308])
    cells = np.concatenate([powers_of_two, powers_of_ten, ties, carries, cut])
    cells = np.concatenate([cells, np.nextafter(cells, 0.0), np.nextafter(cells, np.inf)])
    return np.concatenate([cells, -cells, special, -special])


def test_render_csv_float_table_matches_percent_format():
    cells = _float_cases()
    for width in (1, 3, 8):
        table = np.resize(cells, (-(-len(cells) // width), width))
        text = render_csv(tuple("abcdefgh"[:width]), table)
        assert text.split("\n", 1)[1] == _percent_lines(table)
    # constant columns, at the edges and between varying ones, keep their text
    table = np.column_stack([np.full(len(cells), -0.0), cells, np.full(len(cells), np.nan),
                             cells[::-1], np.full(len(cells), 1e-300)])
    assert render_csv(tuple("abcde"), table).split("\n", 1)[1] == _percent_lines(table)


def test_render_csv_fallback_cells_fill_their_own_slots():
    # rows holding several cells left to '%.11e', in the first and the last
    # varying column, between constant columns; -1.5e-308 prints 19 bytes
    fallback = np.array([np.nan, -np.inf, 5e-324, -1.5e-308, 1e300])
    ordinary = np.linspace(-2.5, 7.25, len(fallback))
    table = np.column_stack([np.full(len(fallback), 0.5), fallback, ordinary, fallback[::-1],
                             np.full(len(fallback), -3.0)])
    text = render_csv(tuple("abcde"), table)
    assert ",-1.50000000000e-308," in text
    assert text.split("\n", 1)[1] == _percent_lines(table)


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_render_csv_float_table_survives_an_exponent_off_by_one(monkeypatch, shift):
    # where log10 misses the decimal exponent, the scaled value leaves
    # [1e11, 1e12) and the cell goes to %
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    table = _float_cases().reshape(-1, 1)
    assert render_csv(("a",), table).split("\n", 1)[1] == _percent_lines(table)


@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_render_csv_floats_match_percent_format(cells, width):
    table = np.resize(np.array(cells), (-(-len(cells) // width), width))
    assert render_csv(tuple("abcd"[:width]), table) == (
        ",".join("abcd"[:width]) + "\n" + _percent_lines(table))


@given(cells=st.lists(st.floats(), min_size=1, max_size=24))
@example(cells=[5e-324, -0.0, 1.7e308, 1.0, -1.7e308, 0.0, -5e-324, 2.0])
# the carry, then cells with |e| > 11: powers of ten up to 1e22 are exact, beyond go to float()
@example(cells=[9.999999999995e-5, -9.999999999995e-5, 1.23456789012e-11, 9.87654321098e-12,
                -1.5e-13, 1.5e33, -9.99999999999e33, 1.5e34, 3.25e-200, 6.02214076e23])
@settings(max_examples=200, deadline=None)
def test_csv_reads_back_as_float_of_each_cell(cells):
    """run_scenario draws its SVG from read_back of the rows it wrote, and
    `lindchain plot` from float() of each cell: both read the same bits."""
    table = np.resize(np.array(cells), (-(-len(cells) // 4), 4))
    lines = render_csv(CSV_HEADER[:4], table).splitlines()[1:]
    floats = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    assert read_back(table).tobytes() == floats.tobytes()


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


def test_compare_engines_passes_only_below_the_threshold(monkeypatch):
    """A difference of exactly ENGINE_DELTA_THRESHOLD fails; the float just
    below it passes.  Stub trajectories of one record stand in for both
    engines on a dissipative model, so no closed-form line is involved."""
    cfg = parse_config("model = independent_dissipation\nstate = psi_18\n")
    threshold = runner.ENGINE_DELTA_THRESHOLD
    for delta, passed in ((threshold, False), (np.nextafter(threshold, 0.0), True)):
        def stub_rk4(rho0, evolution, params, env, delta=delta):
            rhos = np.zeros((1, 8, 8), dtype=complex)
            if evolution.engine is EngineKind.OPERATOR_BUILT:
                rhos[0, 0, 0] = delta
            return lc.Trajectory(taus=np.zeros(1), rhos=rhos)

        monkeypatch.setattr(runner, "rk4_evolve", stub_rk4)
        report = compare_engines(cfg)
        assert report.max_delta == delta
        assert report.passed is passed
        assert report.closed_form_delta is None


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
    tables = []
    render = runner.render_csv

    def kept_render(header, rows):
        tables.append(rows)
        return render(header, rows)

    monkeypatch.setattr(runner, "render_csv", kept_render)
    summary = sweep(tmp_path, t_max=10.0)
    assert builds == list(EnvironmentModel)  # one transfer matrix per model
    # every run table renders as '%.11e' writes each cell
    assert len(tables) == 65 and all(isinstance(rows, np.ndarray) for rows in tables[:64])
    for rows in tables[:64]:
        assert render(CSV_HEADER, rows).split("\n", 1)[1] == _percent_lines(rows)
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


def test_sweep_run_reproduces_through_simulate(tmp_path):
    """`lindchain simulate` of a config on the sweep's grid writes the
    sweep's CSV byte for byte: both go through one metrics path."""
    sweep(tmp_path / "sweep", t_max=1.0)
    for model in EnvironmentModel:
        out = tmp_path / f"{model.value}.csv"
        config = tmp_path / f"{model.value}.cfg"
        config.write_text(f"model = {model.value}\nstate = alpha_46\nt_max = 1\n"
                          f"dt = 0.01\nstride = 10\nout = {out}\n", encoding="utf-8")
        assert cli.main(["simulate", str(config)]) == 0
        swept = tmp_path / "sweep" / f"alpha_46_{model.value}.csv"
        assert out.read_bytes() == swept.read_bytes()
