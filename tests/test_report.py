import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfext.algebroid import AlgebroidSpec, quotient
from hopfext.cli import _source_cells, main
from hopfext.report import (
    Arrow,
    ChartSpec,
    Dot,
    emit_svg,
    parse_overlay,
    render_svg,
    render_text,
    with_overlay,
)
from hopfext.transfer import ext_dim

RED = AlgebroidSpec("reduced")


def _bockstein_dump(path, k, page, s_max, t_max):
    assert main(["bockstein", "--k", str(k), "--page", str(page),
                 "--smax", str(s_max), "--tmax", str(t_max),
                 "--out", str(path)]) == 0
    return path / "bockstein.json"


def test_stable_page_chart_matches_cohomology(tmp_path):
    # the chart source cells of the collapsed page of the a2 tower
    # reproduce the mod-I1 cohomology dimensions cell by cell
    dump = _bockstein_dump(tmp_path, 2, 3, 3, 104)
    cells = _source_cells(json.loads(dump.read_text(encoding="utf-8")))
    spec = quotient(RED, 1)
    for s in range(0, 4):
        for t in range(0, 105, 8):
            assert cells.get((s, t), 0) == ext_dim(spec, s, t), (s, t)


def test_chart_never_invents_or_drops_classes(tmp_path):
    # the text grid that `hopfext chart` draws from a page dump counts
    # every class of the page once
    dump = _bockstein_dump(tmp_path, 3, 1, 2, 80)
    entries = json.loads(dump.read_text(encoding="utf-8"))["entries"]
    assert main(["chart", "--source", str(dump), "--out", str(tmp_path)]) == 0
    grid = [row.split("|", 1)[1].split()
            for row in (tmp_path / "chart.txt").read_text(
                encoding="utf-8").splitlines() if row.startswith("s=")]
    drawn = sum(int(m) for row in grid for m in row if m != ".")
    assert drawn == sum(e["dim"] for e in entries) > 0


def test_window_validation():
    with pytest.raises(ValueError):
        ChartSpec(1, 8, dots=(Dot(2, 0, 1),))
    with pytest.raises(ValueError):
        ChartSpec(1, 8, dots=(Dot(0, 4, 1),))


def test_parse_overlay():
    text = "# comment\n\nd 9 (0,160) -> (9,152) ab^4\n"
    arrows = parse_overlay(text)
    assert arrows == (Arrow(9, (0, 160), (9, 152), "ab^4"),)
    with pytest.raises(ValueError):
        parse_overlay("d 2 (0,8) -> (1,0) wrong-page\n")
    with pytest.raises(ValueError):
        parse_overlay("dx 1 nonsense\n")


@pytest.mark.parametrize("line", [
    "d 1 (0,8) -> (1,-800) x",
    "d 1 (0,-8) -> (1,8) x",
    "d 1 (0,8) -> (1,12) x",
    "d 1 (0,4) -> (1,8) x",
    "d 0 (0,8) -> (0,8) x",
], ids=["negative-end-t", "negative-start-t", "end-off-grid",
        "start-off-grid", "page-zero"])
def test_overlay_outside_the_chart_grid_is_rejected(tmp_path, capsys, line):
    with pytest.raises(ValueError, match="overlay line 2"):
        parse_overlay("# header\n" + line + "\n")
    source = tmp_path / "ext.json"
    source.write_text(json.dumps({"entries": [{"s": 0, "t": 8, "dim": 1}]}),
                      encoding="utf-8")
    overlay = tmp_path / "overlay.txt"
    overlay.write_text(line + "\n", encoding="utf-8")
    assert main(["chart", "--source", str(source), "--overlay", str(overlay),
                 "--out", str(tmp_path)]) == 2
    assert "overlay line 1" in capsys.readouterr().err
    assert not (tmp_path / "chart.svg").exists()


def test_chart_window_covers_arrow_ends(tmp_path):
    # an arrow ending right of every cell and of its own start widens the
    # grid to its end, in the SVG axis and the text fallback alike
    source = tmp_path / "ext.json"
    source.write_text(json.dumps({"entries": [{"s": 0, "t": 8, "dim": 1}]}),
                      encoding="utf-8")
    overlay = tmp_path / "overlay.txt"
    overlay.write_text("d 1 (0,8) -> (1,40) x\n", encoding="utf-8")
    assert main(["chart", "--source", str(source), "--overlay", str(overlay),
                 "--out", str(tmp_path)]) == 0
    txt = (tmp_path / "chart.txt").read_text(encoding="utf-8")
    assert txt.splitlines()[-3].split() == ["t/8", "0", "1", "2", "3", "4", "5"]
    svg = (tmp_path / "chart.svg").read_text(encoding="utf-8")
    assert f'width="{2 * 40 + 5 * 28}"' in svg


def test_svg_deterministic(tmp_path):
    chart = ChartSpec(2, 16, dots=(Dot(0, 0, 1), Dot(2, 16, 2)))
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    doc1 = emit_svg(chart, str(p1))
    doc2 = emit_svg(chart, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert doc1 == doc2
    assert (tmp_path / "a.txt").exists()


def test_single_origin_dot_svg():
    chart = ChartSpec(0, 0, dots=(Dot(0, 0, 1),))
    doc = render_svg(chart)
    assert doc.count("<circle") == 1


def test_overlay_rendered():
    chart = with_overlay(
        ChartSpec(9, 160, dots=(Dot(0, 160, 1), Dot(9, 152, 1))),
        [Arrow(9, (0, 160), (9, 152), "ab^4")])
    doc = render_svg(chart)
    assert "d9 ab^4" in doc and 'stroke="red"' in doc
    txt = render_text(chart)
    assert "d9: (0, 160) -> (9, 152)  ab^4" in txt


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 10),
                          st.integers(1, 3)), max_size=8))
def test_text_grid_counts_every_dot(cells):
    merged = {}
    for s, n, m in cells:
        merged[(s, 8 * n)] = merged.get((s, 8 * n), 0) + m
    chart = ChartSpec(5, 80, dots=tuple(
        sorted(Dot(s, t, m) for (s, t), m in merged.items())))
    txt = render_text(chart)
    for (s, t), m in merged.items():
        row = next(r for r in txt.splitlines() if r.startswith(f"s={s} "))
        assert f"{m:2d}" in row
    assert render_text(chart) == txt
