"""End-to-end acceptance suite.

Every paper claim in `hopfext.claims.CLAIMS`, computed from scratch
through the public API, with one test id per claim tag; plus the chart
overlay of imported differentials, which `verify` does not run.
"""

import os

import pytest

from hopfext.claims import CLAIMS
from hopfext.report import ChartSpec, Dot, parse_overlay, render_svg, \
    with_overlay
from hopfext.v1algebra import presented_dim


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.tag for c in CLAIMS])
def test_claim(claim):
    claim.check()


# --- 11. imported differentials as a chart overlay --------------------------

OVERLAY_PATH = os.path.join(os.path.dirname(__file__), "data", "overlay_d9.txt")


def test_criterion_11_overlay_lands_on_nonzero_cells(tmp_path):
    with open(OVERLAY_PATH, "r", encoding="utf-8") as fh:
        arrows = parse_overlay(fh.read())
    assert arrows, "fixture should carry at least one differential"
    dots = []
    for s in range(0, 10):
        for t in range(0, 401, 8):
            dim = presented_dim(s, t, completed=True)
            if dim:
                dots.append(Dot(s, t, dim))
    chart = with_overlay(ChartSpec(9, 400, tuple(sorted(dots))), arrows)
    for arrow in chart.overlays:
        assert chart.cell(*arrow.start) > 0, arrow
        assert chart.cell(*arrow.end) > 0, arrow
    doc = render_svg(chart)
    assert doc.count("red") >= len(arrows)
