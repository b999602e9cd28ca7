"""Numeric kernels: balance residuals, total length, gradient descent and
balanced-subset enumeration, vectorized with numpy.

A net enters as a (V, 2) float64 position array and an (E, 2) int64 array
of vertex-index pairs, as held by `Net.arrays`.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_MAX_HALVINGS = 60


def unit_vectors(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Unit vector of each edge, from its first endpoint toward its second."""
    d = pos[edges[:, 1]] - pos[edges[:, 0]]
    ln = np.sqrt((d * d).sum(axis=1))
    return d / ln[:, None]


def residuals(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sum of the unit vectors along the edges leaving each vertex."""
    out = np.zeros_like(pos)
    if edges.shape[0] == 0:
        return out
    u = unit_vectors(pos, edges)
    np.add.at(out, edges[:, 0], u)
    np.add.at(out, edges[:, 1], -u)
    return out


def net_length(pos: np.ndarray, edges: np.ndarray) -> float:
    if edges.shape[0] == 0:
        return 0.0
    d = pos[edges[:, 1]] - pos[edges[:, 0]]
    return float(np.sqrt((d * d).sum(axis=1)).sum())


def _min_edge(pos: np.ndarray, edges: np.ndarray) -> float:
    if edges.shape[0] == 0:
        return np.inf
    d = pos[edges[:, 1]] - pos[edges[:, 0]]
    return float(np.sqrt((d * d).sum(axis=1)).min())


def _decrease(pos: np.ndarray, delta: np.ndarray, edges: np.ndarray) -> float:
    # total_length(pos) - total_length(pos + delta), summed per edge in a
    # cancellation-free form. With a the old edge vector and w the change
    # (difference of endpoint displacements), |b|^2 = |a|^2 + 2 a.w + |w|^2,
    # so the per-edge drop is -(2 a.w + |w|^2) / (|a| + |b|). Forming w from
    # delta instead of b - a keeps the error relative to |w|, which resolves
    # decreases far below the fp resolution of the total length itself.
    if edges.shape[0] == 0:
        return 0.0
    a = pos[edges[:, 1]] - pos[edges[:, 0]]
    w = delta[edges[:, 1]] - delta[edges[:, 0]]
    la = np.sqrt((a * a).sum(axis=1))
    lb = np.sqrt(((a + w) ** 2).sum(axis=1))
    num = -(2.0 * (a * w).sum(axis=1) + (w * w).sum(axis=1))
    return float((num / (la + lb)).sum())


def _backtrack(pos, free, edges, rf, gnorm2, step, c_armijo):
    """Halve step until the Armijo sufficient-decrease test holds.

    Returns (displacement or None, failed tests), None after _MAX_HALVINGS
    failures.
    """
    delta = np.zeros_like(pos)
    for failed in range(_MAX_HALVINGS):
        delta[free] = step * rf
        if _decrease(pos, delta, edges) >= c_armijo * step * gnorm2:
            return delta, failed
        step *= 0.5
    return None, _MAX_HALVINGS


def descend(pos, free, edges, step0, tol, c_armijo, max_iter, min_sep):
    """Gradient descent on total length over the rows in free, with
    Barzilai-Borwein trial steps under a monotone Armijo test.

    The trial step is BB1, s.s / s.y, with s the last accepted displacement
    of the free rows and y the change in the gradient (minus the residual)
    over it; step0 on the first iteration and whenever s.y <= 0. The Armijo
    test backtracks from the trial step by halving; if every halving fails
    from a BB step, the ladder is tried once more from step0. The length
    trace over accepted iterates is therefore non-increasing.

    Returns (positions, accepted steps, converged, length trace, collided,
    stop reason, halvings). The stop reason is "converged" (largest free
    residual at most tol), "stalled" (no acceptable step from step0),
    "max_iter" or "collided" (an edge got shorter than min_sep); halvings
    counts every failed Armijo test.
    """
    pos = pos.copy()
    trace = [net_length(pos, edges)]
    accepted = halvings = 0
    s = r_prev = None
    while True:
        rf = residuals(pos, edges)[free]
        if rf.size == 0 or float(np.sqrt((rf * rf).sum(axis=1)).max()) <= tol:
            stop = "converged"
            break
        if accepted >= max_iter:
            stop = "max_iter"
            break
        trial = step0
        if s is not None:
            sy = float((s * (r_prev - rf)).sum())
            if sy > 0.0:
                trial = float((s * s).sum()) / sy
        gnorm2 = float((rf * rf).sum())
        delta, failed = _backtrack(pos, free, edges, rf, gnorm2, trial, c_armijo)
        halvings += failed
        if delta is None and trial != step0:
            delta, failed = _backtrack(pos, free, edges, rf, gnorm2, step0, c_armijo)
            halvings += failed
        if delta is None:
            stop = "stalled"
            break
        pos = pos + delta
        s, r_prev = delta[free], rf
        accepted += 1
        trace.append(net_length(pos, edges))
        if _min_edge(pos, edges) < min_sep:
            stop = "collided"
            break
    return pos, accepted, stop == "converged", trace, stop == "collided", stop, halvings


def subset_sums(masks: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Sum of the rows of vecs selected by each bit mask, one row per mask."""
    bits = np.int64(1) << np.arange(vecs.shape[0], dtype=np.int64)
    sel = (masks[:, None] & bits[None, :]) != 0
    return sel.astype(np.float64) @ vecs


def balanced_masks(vecs: np.ndarray, tol: float) -> np.ndarray:
    """Bit masks of the subsets of the rows of vecs that sum to within tol
    of zero, in ascending order."""
    total = 1 << vecs.shape[0]
    chunk = min(total, 1 << 18)
    hits = []
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sums = subset_sums(masks, vecs)
        ok = (sums * sums).sum(axis=1) <= tol * tol
        hits.append(masks[ok])
    return np.concatenate(hits)
