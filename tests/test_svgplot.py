import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindchain.svgplot import (HEIGHT, PlotDataError, _points, emit_svg_plot, plot_csvs,
                               read_csv_columns)


def make_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def polyline_points(svg_text):
    return re.findall(r'<polyline points="([^"]+)"', svg_text)


def column_lists(path, names):
    """read_csv_columns with each column as a list of floats: == and repr
    compare lists exactly, where repr of an array hides digits."""
    return {name: column.tolist() for name, column in read_csv_columns(path, names).items()}


def test_read_csv_columns(tmp_path):
    path = make_csv(tmp_path / "t.csv", ("tau", "purity"), [(0.0, 1.0), (1.0, 0.5)])
    cols = column_lists(path, ["tau", "purity"])
    assert cols == {"tau": [0.0, 1.0], "purity": [1.0, 0.5]}
    assert read_csv_columns(path, ["tau"])["tau"].dtype == float


def test_read_csv_columns_parses_only_the_named_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("tau,purity,note\n0,1,abc\n\n1,0.5,\n", encoding="utf-8")
    assert column_lists(path, ["purity", "tau", "purity"]) == {
        "purity": [1.0, 0.5], "tau": [0.0, 1.0]}
    out = plot_csvs([path], ["purity"], tmp_path / "fig.svg")
    assert len(polyline_points(out.read_text())) == 1
    with pytest.raises(PlotDataError, match="line 2, column 'note'"):
        read_csv_columns(path, ["tau", "note"])
    path.write_text("purity,tau\n1\n", encoding="utf-8")
    with pytest.raises(PlotDataError, match="line 2, column 'tau': missing value"):
        read_csv_columns(path, ["tau"])


TAU_PURITY = ["tau", "purity"]
TWO_ROWS = {"tau": [0.0, 1.0], "purity": [1.0, 0.5]}


# what csv.reader and float() make of each file, cell by cell: odd but
# valid cells read as numbers, and an error names the first bad cell
@pytest.mark.parametrize("text, names, expected", [
    ("tau,purity\r\n0,1\r\n1,0.5\r\n", TAU_PURITY, TWO_ROWS),
    ("tau,purity\r0,1\r1,0.5\r", TAU_PURITY, TWO_ROWS),
    ("tau,purity\n0,1\n1,0.5", TAU_PURITY, TWO_ROWS),
    ('tau,purity\n"0","1"\n1,"0.5"\n', TAU_PURITY, TWO_ROWS),
    ('tau,note,purity\n0,"a,1",1\n1,b,0.5\n', TAU_PURITY, TWO_ROWS),
    ("tau,purity\n 0 , 1 \n1,\t0.5\n", TAU_PURITY, TWO_ROWS),
    ("tau,purity\n0,1_0\n", TAU_PURITY, {"tau": [0.0], "purity": [10.0]}),
    ("tau,purity\n\f0,1\n1,0.5\n", TAU_PURITY, TWO_ROWS),
    ("tau,purity\n0,1\f1,0.5\n", TAU_PURITY,
     "line 2, column 'purity': '1\\x0c1' is not a finite number"),
    ("tau,purity\n0,1,2,3\n1,0.5,\n", TAU_PURITY, TWO_ROWS),
    ("tau,purity,note\n0,1\n1,0.5,x\n", TAU_PURITY, TWO_ROWS),
    ("tau,purity\n0,1\n1\n", TAU_PURITY, "line 3, column 'purity': missing value"),
    ("tau,purity\n\n0,1\r\n\r\n1,0.5\n\n", TAU_PURITY, TWO_ROWS),
    ("tau,purity\r\n\r\n0,1\r\n1,x\r\n", TAU_PURITY,
     "line 4, column 'purity': 'x' is not a finite number"),
    ("tau,purity\n0,1\n \n", TAU_PURITY, "line 3, column 'tau': ' ' is not a finite number"),
    ("\ufefftau,purity\n0,1\n", TAU_PURITY, {"tau": [0.0], "purity": [1.0]}),
    ("tau,purity\n0,nan\n", TAU_PURITY, "line 2, column 'purity': 'nan' is not a finite number"),
    ("tau,purity\n0,1\n1,1e400\n", TAU_PURITY,
     "line 3, column 'purity': '1e400' is not a finite number"),
    ("tau,purity\n0,1 # c\n", TAU_PURITY,
     "line 2, column 'purity': '1 # c' is not a finite number"),
    ("tau,purity\n0,1\x1c\n", TAU_PURITY,
     "line 2, column 'purity': '1\\x1c' is not a finite number"),
    ("tau,purity\n-0,-0.0\n", TAU_PURITY, {"tau": [-0.0], "purity": [-0.0]}),
    ("tau,purity\n\n\r\n", TAU_PURITY, "no data rows"),
    ("tau,purity\n0,1\n", [], "no data rows"),
], ids=["crlf", "cr", "no_final_newline", "quoted_cells", "quoted_comma_elsewhere",
        "spaces_around_cell", "underscore", "form_feed_before_row", "form_feed_inside_row",
        "extra_trailing_cells", "missing_other_cells", "missing_wanted_cell", "blank_lines",
        "blank_lines_then_bad_cell", "whitespace_line", "bom", "nan", "1e400", "hash",
        "info_separator", "negative_zero", "only_blank_rows", "no_names"])
def test_read_csv_columns_odd_inputs(tmp_path, text, names, expected):
    path = tmp_path / "odd.csv"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, str):
        with pytest.raises(PlotDataError) as err:
            read_csv_columns(path, names)
        assert str(err.value) == f"{path}: {expected}"
    else:  # repr tells -0.0 from 0.0
        assert repr(column_lists(path, names)) == repr(expected)


def test_two_files_two_columns(tmp_path):
    a = make_csv(tmp_path / "a.csv", ("tau", "purity", "gme"),
                 [(0, 1.0, 1.0), (1, 0.8, 0.6), (2, 0.6, 0.3)])
    b = make_csv(tmp_path / "b.csv", ("tau", "purity", "gme"),
                 [(0, 1.0, 1.0), (1, 0.7, 0.5), (2, 0.55, 0.2)])
    out = plot_csvs([a, b], ["purity", "gme"], tmp_path / "fig.svg")
    text = out.read_text()
    assert text.startswith("<?xml")
    assert text.rstrip().endswith("</svg>")
    assert len(polyline_points(text)) == 4
    # legend carries file stem and column name
    assert "a:purity" in text and "b:gme" in text


def test_drawer_takes_tables_in_memory(tmp_path):
    table = {"tau": np.array([0.0, 1.0, 2.0]), "purity": np.array([1.0, 0.7, 0.55]),
             "gme": np.array([1.0, 0.5, -0.2])}
    path = make_csv(tmp_path / "run.csv", tuple(table),
                    zip(*(column.tolist() for column in table.values())))
    drawn = emit_svg_plot([("run", table)], ["purity", "gme"], tmp_path / "drawn.svg")
    assert "run:gme" in drawn.read_text()
    read = plot_csvs([path], ["purity", "gme"], tmp_path / "read.svg")
    assert drawn.read_bytes() == read.read_bytes()


def test_single_point_series_becomes_circle(tmp_path):
    path = make_csv(tmp_path / "one.csv", ("tau", "purity"), [(0.0, 1.0)])
    out = plot_csvs([path], ["purity"], tmp_path / "fig.svg")
    text = out.read_text()
    assert "<circle" in text
    assert not polyline_points(text)


def test_negative_gme_clamped_for_display_only(tmp_path):
    # "mirror" column holds the clamp applied by hand; the rendered gme
    # polyline must coincide with it point for point
    rows = [(0.0, 1.0, 1.0), (1.0, 0.2, 0.2), (2.0, -0.4, 0.0), (3.0, -0.9, 0.0)]
    path = make_csv(tmp_path / "g.csv", ("tau", "gme", "mirror"), rows)
    out = plot_csvs([path], ["gme", "mirror"], tmp_path / "fig.svg")
    gme_pts, mirror_pts = polyline_points(out.read_text())
    assert gme_pts == mirror_pts


def test_missing_column_lists_available(tmp_path):
    path = make_csv(tmp_path / "t.csv", ("tau", "purity"), [(0, 1), (1, 0.5)])
    with pytest.raises(PlotDataError, match=r"missing column 'nope'.*purity"):
        plot_csvs([path], ["nope"], tmp_path / "fig.svg")


def test_missing_tau_column(tmp_path):
    path = make_csv(tmp_path / "t.csv", ("time", "purity"), [(0, 1), (1, 0.5)])
    with pytest.raises(PlotDataError, match="'tau'"):
        plot_csvs([path], ["purity"], tmp_path / "fig.svg")


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(PlotDataError, match="empty"):
        plot_csvs([path], ["purity"], tmp_path / "fig.svg")


def test_header_only_csv_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("tau,purity\n", encoding="utf-8")
    with pytest.raises(PlotDataError, match="no data rows"):
        plot_csvs([path], ["purity"], tmp_path / "fig.svg")


def test_legend_labels_are_escaped(tmp_path):
    path = make_csv(tmp_path / "a&b.csv", ("tau", "purity"), [(0, 1), (1, 0.5)])
    out = plot_csvs([path], ["purity"], tmp_path / "fig.svg")
    text = out.read_text()
    assert "a&amp;b:purity" in text
    assert "a&b:purity" not in text


def test_flat_series_still_renders(tmp_path):
    path = make_csv(tmp_path / "flat.csv", ("tau", "purity"),
                    [(0, 1.0), (1, 1.0), (2, 1.0)])
    out = plot_csvs([path], ["purity"], tmp_path / "fig.svg")
    pts = polyline_points(out.read_text())
    assert len(pts) == 1
    ys = {pair.split(",")[1] for pair in pts[0].split()}
    assert len(ys) == 1  # horizontal line at a finite pixel row


@pytest.mark.parametrize("last_row, found", [
    ("1", "missing value"),
    ("1,inf", "'inf' is not a finite number"),
    ("1,nan", "'nan' is not a finite number"),
    ("1,abc", "'abc' is not a finite number"),
], ids=["short_row", "inf", "nan", "not_a_number"])
def test_bad_cell_names_file_line_and_column(tmp_path, last_row, found):
    path = tmp_path / "bad.csv"
    path.write_text(f"tau,purity\n0,1\n{last_row}\n", encoding="utf-8")
    with pytest.raises(PlotDataError) as err:
        plot_csvs([path], ["purity"], tmp_path / "fig.svg")
    assert str(err.value) == f"{path}: line 3, column 'purity': {found}"
    assert not (tmp_path / "fig.svg").exists()


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_any_finite_column_draws_or_fails_cleanly(tmp_path_factory, rows):
    path = make_csv(tmp_path_factory.mktemp("plot") / "x.csv", ("tau", "y"),
                    [(repr(t), repr(y)) for t, y in rows])
    try:
        out = plot_csvs([path], ["y"], path.with_suffix(".svg"))
    except PlotDataError as err:
        assert "span more than a float axis holds" in str(err)
        return
    text = out.read_text()
    coords = re.findall(r'\s(?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', text)
    coords += " ".join(polyline_points(text)).replace(",", " ").split()
    assert all(math.isfinite(float(c)) for c in coords)
    assert text.count("<text") <= 2 * 6 + 2  # ticks on two axes, axis title, legend


# coordinates near whole cents, half-cent ties among them (k / 200)
_coordinates = st.one_of(_finite, st.floats(0.0, 1.1e4), st.integers(0, 2_200_000).map(lambda k: k / 200))


@given(st.lists(st.tuples(_coordinates, _coordinates), min_size=1, max_size=40))
@example([(60.005, 0.125), (123.455, -0.0), (-1.5, -0.004), (-60.005, -123.455),
          (1e4, 9999.995), (9999.999, 12345.678), (1e300, -1e300), (0.0, 5e-324)])
@settings(max_examples=200, deadline=None)
def test_points_match_percent_template(points):
    xs, ys = np.array(points).T
    expected = " ".join(["%.2f,%.2f"] * len(points)) % tuple(x for point in points for x in point)
    assert _points(xs, ys) == expected


def test_legend_labels_lie_inside_the_viewbox(tmp_path):
    # 32 CSVs x 2 columns: 64 legend entries, 42 of them below HEIGHT
    paths = [make_csv(tmp_path / f"run{k:02d}.csv", ("tau", "purity", "gme"),
                      [(0, 1.0, 1.0), (1, 0.5 + k / 100, 0.25)]) for k in range(32)]
    text = plot_csvs(paths, ["purity", "gme"], tmp_path / "fig.svg").read_text()
    width, height = map(int, re.search(r'viewBox="0 0 (\d+) (\d+)"', text).groups())
    assert f'width="{width}" height="{height}"' in text
    legend = [float(y) for y in re.findall(r'<text x="[^"]+" y="([^"]+)" font-size="11">run', text)]
    assert len(legend) == 64 and max(legend) > HEIGHT
    assert all(0 < y <= height - 3 for y in legend)  # 3 px for the descent of 11 px text
    # the plot area keeps its place: the axes and their labels are those of one curve
    one = plot_csvs(paths[:1], ["purity", "gme"], tmp_path / "one.svg").read_text()
    axes = re.compile(r'<line x1="[^"]+" y1="[^"]+" x2="[^"]+" y2="[^"]+" stroke="black".*|'
                      r'<text [^>]*text-anchor.*')
    assert axes.findall(text) == axes.findall(one)
