import re

import pytest

from lindchain.svgplot import PlotDataError, emit_svg_plot, read_csv_columns


def make_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def polyline_points(svg_text):
    return re.findall(r'<polyline points="([^"]+)"', svg_text)


def test_read_csv_columns(tmp_path):
    path = make_csv(tmp_path / "t.csv", ("tau", "purity"), [(0.0, 1.0), (1.0, 0.5)])
    cols = read_csv_columns(path, ["tau", "purity"])
    assert cols == {"tau": [0.0, 1.0], "purity": [1.0, 0.5]}


def test_read_csv_columns_parses_only_the_named_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("tau,purity,note\n0,1,abc\n\n1,0.5,\n", encoding="utf-8")
    assert read_csv_columns(path, ["purity", "tau", "purity"]) == {
        "purity": [1.0, 0.5], "tau": [0.0, 1.0]}
    out = emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")
    assert len(polyline_points(out.read_text())) == 1
    with pytest.raises(PlotDataError, match="line 2, column 'note'"):
        read_csv_columns(path, ["tau", "note"])
    path.write_text("purity,tau\n1\n", encoding="utf-8")
    with pytest.raises(PlotDataError, match="line 2, column 'tau': missing value"):
        read_csv_columns(path, ["tau"])


def test_two_files_two_columns(tmp_path):
    a = make_csv(tmp_path / "a.csv", ("tau", "purity", "gme"),
                 [(0, 1.0, 1.0), (1, 0.8, 0.6), (2, 0.6, 0.3)])
    b = make_csv(tmp_path / "b.csv", ("tau", "purity", "gme"),
                 [(0, 1.0, 1.0), (1, 0.7, 0.5), (2, 0.55, 0.2)])
    out = emit_svg_plot([a, b], ["purity", "gme"], tmp_path / "fig.svg")
    text = out.read_text()
    assert text.startswith("<?xml")
    assert text.rstrip().endswith("</svg>")
    assert len(polyline_points(text)) == 4
    # legend carries file stem and column name
    assert "a:purity" in text and "b:gme" in text


def test_single_point_series_becomes_circle(tmp_path):
    path = make_csv(tmp_path / "one.csv", ("tau", "purity"), [(0.0, 1.0)])
    out = emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")
    text = out.read_text()
    assert "<circle" in text
    assert not polyline_points(text)


def test_negative_gme_clamped_for_display_only(tmp_path):
    # "mirror" column holds the clamp applied by hand; the rendered gme
    # polyline must coincide with it point for point
    rows = [(0.0, 1.0, 1.0), (1.0, 0.2, 0.2), (2.0, -0.4, 0.0), (3.0, -0.9, 0.0)]
    path = make_csv(tmp_path / "g.csv", ("tau", "gme", "mirror"), rows)
    out = emit_svg_plot([path], ["gme", "mirror"], tmp_path / "fig.svg")
    gme_pts, mirror_pts = polyline_points(out.read_text())
    assert gme_pts == mirror_pts


def test_missing_column_lists_available(tmp_path):
    path = make_csv(tmp_path / "t.csv", ("tau", "purity"), [(0, 1), (1, 0.5)])
    with pytest.raises(PlotDataError, match=r"missing column 'nope'.*purity"):
        emit_svg_plot([path], ["nope"], tmp_path / "fig.svg")


def test_missing_tau_column(tmp_path):
    path = make_csv(tmp_path / "t.csv", ("time", "purity"), [(0, 1), (1, 0.5)])
    with pytest.raises(PlotDataError, match="'tau'"):
        emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(PlotDataError, match="empty"):
        emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")


def test_header_only_csv_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("tau,purity\n", encoding="utf-8")
    with pytest.raises(PlotDataError, match="no data rows"):
        emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")


def test_legend_labels_are_escaped(tmp_path):
    path = make_csv(tmp_path / "a&b.csv", ("tau", "purity"), [(0, 1), (1, 0.5)])
    out = emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")
    text = out.read_text()
    assert "a&amp;b:purity" in text
    assert "a&b:purity" not in text


def test_flat_series_still_renders(tmp_path):
    path = make_csv(tmp_path / "flat.csv", ("tau", "purity"),
                    [(0, 1.0), (1, 1.0), (2, 1.0)])
    out = emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")
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
        emit_svg_plot([path], ["purity"], tmp_path / "fig.svg")
    assert str(err.value) == f"{path}: line 3, column 'purity': {found}"
    assert not (tmp_path / "fig.svg").exists()
