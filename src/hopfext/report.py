"""Chart rendering for cohomology tables and spectral sequence pages.

Charts follow a fixed visual idiom: the horizontal axis is t/8, the
vertical axis is s, one dot per basis class.  Differential arrows are
never computed here; they come from a user-supplied overlay file.

Output is deterministic: identical inputs give byte-identical SVG and
text documents.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Tuple


class IoFailure(OSError):
    """A chart document could not be written."""


class Dot(NamedTuple):
    s: int
    t: int
    multiplicity: int


class Arrow(NamedTuple):
    page: int
    start: Tuple[int, int]
    end: Tuple[int, int]
    label: str = ""


class _ChartSpec(NamedTuple):
    s_max: int
    t_max: int
    dots: Tuple[Dot, ...] = ()
    overlays: Tuple[Arrow, ...] = ()


class ChartSpec(_ChartSpec):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for d in self.dots:
            if not (0 <= d.s <= self.s_max and 0 <= d.t <= self.t_max):
                raise ValueError(f"dot ({d.s},{d.t}) outside window")
            if d.t % 8:
                raise ValueError("internal degrees must be multiples of 8")
        return self

    def cell(self, s: int, t: int) -> int:
        """Total multiplicity drawn at (s, t)."""
        return sum(d.multiplicity for d in self.dots if (d.s, d.t) == (s, t))


# --- overlay files ----------------------------------------------------------

_OVERLAY = (
    r"^d\s+(\d+)\s+\((\d+)\s*,\s*(\d+)\)\s*->\s*\((\d+)\s*,\s*(\d+)\)\s*(.*)$")


def parse_overlay(text: str) -> Tuple[Arrow, ...]:
    """Arrows from lines of the form "d <page> (s,t) -> (s',t') <label>",
    with page >= 1 and both t nonnegative multiples of 8."""
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(_OVERLAY, line)
        if not m:
            raise ValueError(f"overlay line {lineno} is malformed: {raw!r}")
        page, s1, t1, s2, t2 = (int(m.group(i)) for i in range(1, 6))
        if page < 1:
            raise ValueError(f"overlay line {lineno}: pages start at d1")
        if t1 % 8 or t2 % 8:
            raise ValueError(
                f"overlay line {lineno}: internal degrees must be multiples of 8")
        if s2 != s1 + page:
            raise ValueError(
                f"overlay line {lineno}: a page-{page} arrow must raise s by {page}")
        arrows.append(Arrow(page, (s1, t1), (s2, t2), m.group(6).strip()))
    return tuple(arrows)


def with_overlay(chart: ChartSpec, arrows: Iterable[Arrow]) -> ChartSpec:
    return ChartSpec(chart.s_max, chart.t_max, chart.dots, tuple(sorted(arrows)))


# --- rendering --------------------------------------------------------------

_CELL = 28
_MARGIN = 40
_GLYPH_R = 4


def _xy(chart: ChartSpec, s: int, t: int) -> Tuple[int, int]:
    x = _MARGIN + (t // 8) * _CELL
    y = _MARGIN + (chart.s_max - s) * _CELL
    return x, y


def render_svg(chart: ChartSpec) -> str:
    """Deterministic SVG 1.1 document for the chart."""
    width = _MARGIN * 2 + (chart.t_max // 8) * _CELL
    height = _MARGIN * 2 + chart.s_max * _CELL
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:monospace}</style>',
    ]
    # axes
    x0, y0 = _xy(chart, 0, 0)
    x1, _ = _xy(chart, 0, chart.t_max)
    _, y1 = _xy(chart, chart.s_max, 0)
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
               'stroke="gray" stroke-width="0.5"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
               'stroke="gray" stroke-width="0.5"/>')
    for n in range(0, chart.t_max // 8 + 1, 5):
        x, _ = _xy(chart, 0, 8 * n)
        out.append(f'<text x="{x}" y="{y0 + 14}" font-size="8" '
                   f'text-anchor="middle">{n}</text>')
    for s in range(0, chart.s_max + 1):
        _, y = _xy(chart, s, 0)
        out.append(f'<text x="{x0 - 12}" y="{y + 3}" font-size="8" '
                   f'text-anchor="middle">{s}</text>')
    for d in sorted(chart.dots):
        x, y = _xy(chart, d.s, d.t)
        for i in range(d.multiplicity):
            out.append(f'<circle cx="{x + i * (2 * _GLYPH_R + 2)}" cy="{y}"'
                       f' r="{_GLYPH_R}" fill="black"/>')
    for ar in sorted(chart.overlays):
        ax, ay = _xy(chart, *ar.start)
        bx, by = _xy(chart, *ar.end)
        out.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                   'stroke="red" stroke-width="1" stroke-dasharray="6,2"/>')
        label = f"d{ar.page}" + (f" {ar.label}" if ar.label else "")
        mx, my = (ax + bx) // 2, (ay + by) // 2
        out.append(f'<text x="{mx + 4}" y="{my}" font-size="8" '
                   f'fill="red">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_text(chart: ChartSpec) -> str:
    """Aligned text grid: rows are s (top-down), columns are t/8."""
    ncols = chart.t_max // 8 + 1
    rows = []
    for s in range(chart.s_max, -1, -1):
        cells = []
        for n in range(ncols):
            m = chart.cell(s, 8 * n)
            cells.append(f"{m:2d}" if m else " .")
        rows.append(f"s={s:<2d} |" + " ".join(cells))
    rows.append("     +" + "-" * (3 * ncols))
    rows.append("t/8   " + " ".join(f"{n:2d}" for n in range(ncols)))
    if chart.overlays:
        rows.append("")
        for ar in sorted(chart.overlays):
            rows.append(f"d{ar.page}: {ar.start} -> {ar.end}"
                        + (f"  {ar.label}" if ar.label else ""))
    return "\n".join(rows) + "\n"


def emit_svg(chart: ChartSpec, path: str) -> str:
    """Write the SVG document plus a text fallback alongside it.

    The fallback replaces the final extension with .txt.  Returns the
    SVG text.
    """
    doc = render_svg(chart)
    txt_path = re.sub(r"\.[^./]*$", "", path) + ".txt"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(render_text(chart))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return doc
