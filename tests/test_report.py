import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfext.algebroid import AlgebroidSpec, quotient
from hopfext.bockstein import FiltrationSpec, page_dimensions
from hopfext.cobar import cohomology, parse_cobar
from hopfext.report import (
    Arrow,
    ChartSpec,
    Dot,
    build_chart,
    emit_svg,
    parse_overlay,
    render_svg,
    render_text,
    with_overlay,
)
from hopfext.transfer import ext_dim

RED = AlgebroidSpec("reduced")


def test_top_quotient_chart():
    spec = quotient(RED, 4)
    groups = [cohomology(spec, s, t)
              for s in range(0, 5) for t in range(0, 81, 8)]
    a = parse_cobar(spec, 1, "[r]")
    chart = build_chart(groups, [("a-mult", a)], s_max=5, t_max=80)
    assert [(d.s, d.t, d.multiplicity) for d in chart.dots] == \
        [(0, 0, 1), (1, 8, 1), (2, 40, 1), (3, 48, 1), (4, 80, 1)]
    # the exterior class multiplies onto the even cells and then dies
    assert [(l.start, l.end) for l in chart.lines] == \
        [((0, 0), (1, 8)), ((2, 40), (3, 48))]


def test_empty_groups_empty_chart():
    chart = build_chart([])
    assert chart.dots == () and chart.lines == ()


def test_stable_page_chart_matches_cohomology():
    # chart of the collapsed page of the a2 tower reproduces the mod-I1
    # cohomology dimensions cell by cell
    entries = page_dimensions(FiltrationSpec(2), 3, 3, 104)
    chart = build_chart(entries, s_max=3, t_max=104)
    spec = quotient(RED, 1)
    for s in range(0, 4):
        for t in range(0, 105, 8):
            assert chart.cell(s, t) == ext_dim(spec, s, t), (s, t)


def test_chart_never_invents_or_drops_classes():
    entries = page_dimensions(FiltrationSpec(3), 1, 2, 80)
    chart = build_chart(entries)
    total = sum(d.multiplicity for d in chart.dots)
    assert total == sum(e.dim for e in entries)


def test_window_validation():
    with pytest.raises(ValueError):
        ChartSpec(1, 8, dots=(Dot(2, 0, 1),))
    with pytest.raises(ValueError):
        ChartSpec(1, 8, dots=(Dot(0, 4, 1),))
    with pytest.raises(ValueError):
        ChartSpec(1, 8, dots=(Dot(0, 0, 1, "sparkle"),))


def test_parse_overlay():
    text = "# comment\n\nd 9 (0,160) -> (9,152) ab^4\n"
    arrows = parse_overlay(text)
    assert arrows == (Arrow(9, (0, 160), (9, 152), "ab^4"),)
    with pytest.raises(ValueError):
        parse_overlay("d 2 (0,8) -> (1,0) wrong-page\n")
    with pytest.raises(ValueError):
        parse_overlay("dx 1 nonsense\n")


def test_svg_deterministic(tmp_path):
    chart = ChartSpec(2, 16, dots=(Dot(0, 0, 1), Dot(2, 16, 2, "open-circle")),
                      lines=())
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
        ChartSpec(9, 160, dots=(Dot(0, 160, 1, "box"), Dot(9, 152, 1))),
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
