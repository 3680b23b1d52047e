"""Deterministic SVG rendering of meshes and their interior segments."""

from __future__ import annotations

from fractions import Fraction

from .errors import CoordinateOutOfRange
from .segments import analyze_segments

_STYLE = (
    ".cell{fill:#f7f7f2;stroke:none}"
    ".edge{stroke:#444;stroke-width:0.02}"
    ".boundary{stroke:#000;stroke-width:0.035}"
    ".mis{stroke:#c22;stroke-width:0.06;stroke-linecap:round}"
    ".crossing{fill:#000}"
    ".t-vertex{fill:#c22}"
    ".corner{fill:#000}"
    ".boundary-vertex{fill:#888}"
)


def _fmt(value):
    return f"{float(value):g}"


def render_svg(mesh):
    """SVG picture: cells, edges (interior vs boundary), highlighted interior
    segments, and vertices marked by kind.  Output is byte-deterministic; a
    number beyond float range raises CoordinateOutOfRange."""
    try:
        return _render(mesh)
    except OverflowError:
        raise CoordinateOutOfRange(f"coordinate {max(mesh.bbox, key=abs)} is beyond float range") from None


def _render(mesh):
    analysis = analyze_segments(mesh)
    x0, y0, x1, y1 = mesh.bbox
    margin = max(x1 - x0, y1 - y0) * Fraction(1, 20)
    flip = y0 + y1  # mirror so the y axis points up

    def pt(x, y):
        return _fmt(x), _fmt(flip - y)

    vx0, vy0 = _fmt(x0 - margin), _fmt(y0 - margin)
    vw, vh = _fmt(x1 - x0 + 2 * margin), _fmt(y1 - y0 + 2 * margin)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vx0} {vy0} {vw} {vh}" width="640" height="640">',
        f"<style>{_STYLE}</style>",
        '<g id="cells">',
    ]
    for c in mesh.cells:
        x, y = pt(c.x0, c.y1)
        parts.append(
            f'<rect class="cell" x="{x}" y="{y}" '
            f'width="{_fmt(c.x1 - c.x0)}" height="{_fmt(c.y1 - c.y0)}"/>'
        )
    parts.append("</g>")

    parts.append('<g id="edges">')
    for e in mesh.edges:
        v1, v2 = mesh.vertices[e.start], mesh.vertices[e.end]
        (ax, ay), (bx, by) = pt(v1.x, v1.y), pt(v2.x, v2.y)
        cls = "edge" if e.interior else "boundary"
        parts.append(f'<line class="{cls}" x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
    parts.append("</g>")

    parts.append('<g id="mis">')
    for sid in analysis.mis:
        seg = analysis.segments[sid]
        if seg.horizontal:
            (ax, ay), (bx, by) = pt(seg.lo, seg.coord), pt(seg.hi, seg.coord)
        else:
            (ax, ay), (bx, by) = pt(seg.coord, seg.lo), pt(seg.coord, seg.hi)
        parts.append(f'<line class="mis" x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}"/>')
    parts.append("</g>")

    parts.append('<g id="vertices">')
    for v in mesh.vertices:
        cls = v.kind if v.kind != "boundary" else "boundary-vertex"
        x, y = pt(v.x, v.y)
        parts.append(f'<circle class="{cls}" cx="{x}" cy="{y}" r="0.06"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
