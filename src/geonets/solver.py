"""Total length, its gradient, and length-decreasing relaxation.

The total edge length of a net, viewed as a function of the balanced
vertex positions with pins held fixed, has gradient equal to minus the
balance residual at each balanced vertex. Relaxation runs gradient
descent with Barzilai-Borwein step lengths under a monotone backtracking
line search, so critical points are exactly the balanced configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import _kernels
from .geom import COINCIDENCE_EPS, Point, Vec
from .net import DEFAULT_TOL, CoincidentVertices, Net, Vertex, _check_tol

_ARMIJO_C = 1e-4


class VertexCollision(RuntimeError):
    """Relaxation drove two vertices together; the net degenerated."""


@dataclass(frozen=True)
class RelaxResult:
    net: Net
    final_residual: float
    iterations: int
    converged: bool
    length_trace: Tuple[float, ...]
    stop_reason: str  # "converged", "stalled" or "max_iter"
    halvings: int  # backtracking halvings over the whole descent


def total_length(net: Net) -> float:
    a = net.arrays
    return float(_kernels.net_length(a.pos, a.edges))


def length_gradient(net: Net) -> Dict[str, Vec]:
    """Gradient of total_length with respect to each balanced vertex.

    Equals the negated balance residual; isolated balanced vertices get a
    zero gradient.
    """
    a = net.arrays
    res = a.residuals
    return {a.ids[k]: (-float(res[k, 0]), -float(res[k, 1])) for k in a.free}


def moved(net: Net, vid: str, pos: Point) -> Net:
    """Copy of net with one vertex repositioned."""
    net.vertex(vid)
    verts = [
        Vertex(v.id, pos if v.id == vid else v.pos, v.kind, v.label)
        for v in net.vertices
    ]
    return Net(verts, net.edges)


def relax(
    net: Net,
    *,
    step: float = 0.1,
    tol: float = DEFAULT_TOL,
    max_iter: int = 100_000,
) -> RelaxResult:
    """Gradient descent on total length over the balanced vertices.

    Each iteration moves all balanced vertices along their residuals. The
    trial step is the Barzilai-Borwein step s.s / s.y from the last
    accepted move (s the change in positions, y the change in gradient);
    `step` is the trial step on the first iteration, whenever s.y <= 0,
    and as a fallback when backtracking from the BB step fails. The step
    is halved until the Armijo sufficient-decrease test holds.

    Stops when the largest residual is at most tol ("converged"), when no
    acceptable step exists from `step` or an accepted step is too small
    to change any position ("stalled"; that step is not counted), or
    after max_iter accepted steps ("max_iter"); the reason is the result's
    stop_reason. Each length trace entry is the previous one minus the
    decrease the Armijo test accepted, so the trace never rises. Raises
    VertexCollision if the descent path collapses an edge, and ValueError
    unless step is finite and positive and tol finite and nonnegative.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    _check_tol(tol)
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")

    a = net.arrays
    out_pos, accepted, trace, stop, halvings = _kernels.descend(
        a.pos, a.free, a.edges, float(step), float(tol), _ARMIJO_C, int(max_iter), COINCIDENCE_EPS
    )
    if stop == "collided":
        raise VertexCollision(
            f"an edge collapsed below {COINCIDENCE_EPS} after {accepted} steps"
        )

    verts = [
        Vertex(v.id, Point(float(out_pos[k, 0]), float(out_pos[k, 1])), v.kind, v.label)
        for k, v in enumerate(net.vertices)
    ]
    try:
        result_net = Net(verts, net.edges)
    except CoincidentVertices as exc:
        u, v = exc.ids
        raise VertexCollision(f"vertices {u} and {v} collided") from None

    res = _kernels.residuals(out_pos, a.edges)[a.free]
    final = float(np.hypot(res[:, 0], res[:, 1]).max(initial=0.0))
    return RelaxResult(
        net=result_net,
        final_residual=final,
        iterations=int(accepted),
        converged=stop == "converged",
        length_trace=tuple(trace),
        stop_reason=stop,
        halvings=int(halvings),
    )
