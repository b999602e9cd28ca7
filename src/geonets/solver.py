"""Total length, its gradient, and length-decreasing relaxation.

The total edge length of a net, viewed as a function of the balanced
vertex positions with pins held fixed, has gradient equal to minus the
balance residual at each balanced vertex, so critical points are exactly
the balanced configurations. Total length is a sum of norms of affine
maps of those positions, so it is convex, and its Hessian H is positive
semidefinite. Relaxation descends along damped Newton directions
(H + mu L_w)^-1 r, with r the residual, L_w the weighted graph Laplacian
(edge weights 1/length, pins as Dirichlet rows) and mu the largest
residual norm: the regularized Newton method of Li, Fukushima, Qi and
Yamashita (2004, Comput. Optim. Appl. 28), which converges quadratically
even where H is singular. Step lengths are short Barzilai-Borwein steps
in that metric (Molina & Raydan 1996) under a monotone backtracking line
search. Nets with more free vertices than a measured ceiling, or with a
free vertex that no path joins to a pin, take the identity metric: plain
gradient descent with the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from . import _kernels
from .geom import COINCIDENCE_EPS, Point, Vec
from .net import DEFAULT_TOL, CoincidentVertices, Net, _check_int, _check_tol, _named


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
    refreshes: int  # builds of the damped Newton metric H + mu L_w, one per iterate


def total_length(net: Net) -> float:
    return float(_kernels.net_length(net.pos, net.ends))


def length_gradient(net: Net) -> Dict[str, Vec]:
    """Gradient of total_length with respect to each balanced vertex.

    Equals the negated balance residual; isolated balanced vertices get a
    zero gradient.
    """
    res = net.residuals
    return {net.ids[k]: (-float(res[k, 0]), -float(res[k, 1])) for k in net.free.tolist()}


def moved(net: Net, vid: str, pos: Point) -> Net:
    """Copy of net with one vertex repositioned."""
    xy = net.pos.copy()
    xy[net._row(vid)] = (pos.x, pos.y)
    return net._with_pos(xy)


def relax(
    net: Net,
    *,
    step: float = 0.1,
    tol: float = DEFAULT_TOL,
    max_iter: int = 100_000,
) -> RelaxResult:
    """Descent on total length over the balanced vertices.

    Each iteration moves all balanced vertices along p = M^-1 r, where r
    holds their residuals and M = H + mu L_w over their coordinates: H is
    the Hessian of total length, positive semidefinite since the length is
    convex; L_w is the weighted graph Laplacian over them, with weight
    1/length on each edge and the pins as Dirichlet rows; and mu is the
    largest residual norm, which the convergence test has just found above
    tol. M is then positive definite, so p is a descent direction; mu L_w
    keeps short edges stiff far from balance, and as mu -> 0 the step
    becomes Newton's. M is built densely, only once the first convergence
    test fails, and afresh on every iteration; the result's refreshes
    counts these builds. Nets with more balanced vertices than
    _kernels._METRIC_MAX_FREE, or with one that no path joins to a pin
    (L_w is then singular), take the identity metric, p = r, and
    refreshes is 0. A balanced vertex with no edge stays put and does not
    veto the metric.

    The trial step is the short Barzilai-Borwein step in this metric,
    s.y / y.M^-1 y, from the last accepted move (s the change in
    positions, y the change in gradient). `step` is the first trial step
    in the metric: the trial step on the first iteration and whenever
    s.y <= 0, and the fallback when backtracking from the BB step fails.
    The step is halved until the Armijo sufficient-decrease test, along
    p, holds.

    Stops when the largest residual norm is at most tol ("converged"),
    when no acceptable step exists from `step`, the metric is singular in
    floating point (the residual is down at rounding level), or an
    accepted step is too small to change any position ("stalled"; that
    step is not counted), or after max_iter accepted steps ("max_iter");
    the reason is the result's stop_reason. final_residual is the norm
    the convergence test last read, at the returned net. Each length trace
    entry is the previous one minus the decrease the Armijo test accepted,
    so the trace never rises. Raises VertexCollision, naming the shortest
    edge, if the descent path collapses an edge, and ValueError unless
    step is finite and positive, tol finite and nonnegative and max_iter
    an int >= 0 (a bool or a float is refused).
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    _check_tol(tol)
    _check_int("max_iter", max_iter, 0)

    # An edgeless balanced vertex never moves, and no path joins it to a pin.
    free = net.free[net._degrees[net.free] > 0]
    out_pos, accepted, trace, stop, halvings, final, refreshes = _kernels.descend(
        net.pos, free, net.ends, float(step), float(tol), max_iter
    )
    if stop == "collided":
        lengths = _kernels._edge_vectors(out_pos, net.ends)[1]
        (shortest,) = _named(net.ids, net.ends, [lengths.argmin()])
        raise VertexCollision(
            f"edge {shortest} collapsed below {COINCIDENCE_EPS} after {accepted} steps"
        )

    try:
        result_net = net._with_pos(out_pos)
    except CoincidentVertices as exc:
        u, v = exc.ids
        raise VertexCollision(f"vertices {u} and {v} collided") from None
    return RelaxResult(
        net=result_net,
        final_residual=final,
        iterations=int(accepted),
        converged=stop == "converged",
        length_trace=tuple(trace),
        stop_reason=stop,
        halvings=int(halvings),
        refreshes=int(refreshes),
    )
