"""Deterministic SVG rendering of nets."""

from __future__ import annotations

from html import escape
from typing import Iterable, List, Sequence

from .net import Net, _check_int, _edge_row

_EDGE_STYLE = 'stroke="#222222" stroke-width="1.5"'
_HIGHLIGHT_STYLE = 'stroke="#c0392b" stroke-width="3.0"'
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
    for a given net and options. Raises ValueError unless width is an int
    >= 1 (a bool is refused), InvariantViolation if a highlight row is not
    a pair of vertex ids.
    """
    _check_int("width", width, 1)
    # the rows of the highlighted edges; None stands for one not in the net
    marked = {net.edge_index.get(e) for e in map(_edge_row, highlight)}
    (xs, ys), balanced = net.pos.T.tolist(), net.balanced.tolist()
    min_x, max_x = min(xs, default=0.0), max(xs, default=0.0)
    min_y, max_y = min(ys, default=0.0), max(ys, default=0.0)
    span = max(max_x - min_x, max_y - min_y, 1e-6)
    pad = _MARGIN_FRAC * span
    world_w = (max_x - min_x) + 2.0 * pad
    world_h = (max_y - min_y) + 2.0 * pad
    scale = width / world_w
    height = max(1, round(world_h * scale))
    left, top = min_x - pad, max_y + pad
    # each vertex's place on the canvas, and its text, computed once
    cx = [(x - left) * scale for x in xs]
    cy = [(top - y) * scale for y in ys]
    tx, ty = list(map(_fmt, cx)), list(map(_fmt, cy))

    out: List[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    for k, (i, j) in enumerate(net.ends.tolist()):
        style = _HIGHLIGHT_STYLE if k in marked else _EDGE_STYLE
        out.append(f'  <line x1="{tx[i]}" y1="{ty[i]}" x2="{tx[j]}" y2="{ty[j]}" {style}/>')
    for x, y, b in zip(tx, ty, balanced):
        r, fill = (_BALANCED_R, _BALANCED_FILL) if b else (_UNBALANCED_R, _UNBALANCED_FILL)
        out.append(f'  <circle cx="{x}" cy="{y}" r="{r}" fill="{fill}"/>')
    if show_labels:
        for vid, x, y, b, label in zip(net.ids, cx, cy, balanced, net.labels):
            r = _BALANCED_R if b else _UNBALANCED_R
            text = label if label is not None else vid
            out.append(
                f'  <text x="{_fmt(x + r + 2.0)}" '
                f'y="{_fmt(y - r - 2.0)}" '
                f'font-family="monospace" font-size="11">{escape(text, quote=False)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
