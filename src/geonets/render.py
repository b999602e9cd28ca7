"""Deterministic SVG rendering of nets."""

from __future__ import annotations

from html import escape
from typing import Iterable, List, Sequence

from .net import Net, VertexKind, edge_key

_EDGE_STROKE = "#222222"
_EDGE_WIDTH = 1.5
_HIGHLIGHT_STROKE = "#c0392b"
_HIGHLIGHT_WIDTH = 3.0
_BALANCED_FILL = "#2980b9"
_BALANCED_R = 3.0
_UNBALANCED_FILL = "#333333"
_UNBALANCED_R = 6.0
_MARGIN_FRAC = 0.05


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(
    net: Net,
    *,
    width: int = 800,
    show_labels: bool = False,
    highlight: Iterable[Sequence[str]] = (),
) -> str:
    """Render the net to SVG text.

    Edges are line elements (the highlight subset in a distinct stroke),
    unbalanced vertices larger filled circles than balanced ones, and the
    viewport fits the drawing with a 5% margin. Output is deterministic
    for a given net and options.
    """
    marked = {edge_key(*e) for e in highlight}
    xs = [v.pos.x for v in net.vertices] or [0.0]
    ys = [v.pos.y for v in net.vertices] or [0.0]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-6)
    pad = _MARGIN_FRAC * span
    world_w = (max_x - min_x) + 2.0 * pad
    world_h = (max_y - min_y) + 2.0 * pad
    scale = width / world_w
    height = max(1, round(world_h * scale))

    def sx(x: float) -> float:
        return (x - (min_x - pad)) * scale

    def sy(y: float) -> float:
        return ((max_y + pad) - y) * scale

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    for e in net.edges:
        p = net.by_id[e[0]].pos
        q = net.by_id[e[1]].pos
        if e in marked:
            stroke, sw = _HIGHLIGHT_STROKE, _HIGHLIGHT_WIDTH
        else:
            stroke, sw = _EDGE_STROKE, _EDGE_WIDTH
        out.append(
            f'  <line x1="{_fmt(sx(p.x))}" y1="{_fmt(sy(p.y))}" '
            f'x2="{_fmt(sx(q.x))}" y2="{_fmt(sy(q.y))}" '
            f'stroke="{stroke}" stroke-width="{sw}"/>'
        )
    for v in net.vertices:
        if v.kind is VertexKind.UNBALANCED:
            r, fill = _UNBALANCED_R, _UNBALANCED_FILL
        else:
            r, fill = _BALANCED_R, _BALANCED_FILL
        out.append(
            f'  <circle cx="{_fmt(sx(v.pos.x))}" cy="{_fmt(sy(v.pos.y))}" '
            f'r="{r}" fill="{fill}"/>'
        )
    if show_labels:
        for v in net.vertices:
            r = _UNBALANCED_R if v.kind is VertexKind.UNBALANCED else _BALANCED_R
            text = v.label if v.label is not None else v.id
            out.append(
                f'  <text x="{_fmt(sx(v.pos.x) + r + 2.0)}" '
                f'y="{_fmt(sy(v.pos.y) - r - 2.0)}" '
                f'font-family="monospace" font-size="11">{escape(text, quote=False)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
