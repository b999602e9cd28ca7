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


def descend(pos, free, edges, step0, tol, c_armijo, max_iter, min_sep):
    """Armijo gradient descent on total length over the rows in free.

    Returns (positions, accepted steps, converged, length trace, collided).
    """
    pos = pos.copy()
    trace = np.empty(max_iter + 1, dtype=np.float64)
    trace[0] = net_length(pos, edges)
    accepted = 0
    converged = False
    collided = False
    while accepted < max_iter:
        r = residuals(pos, edges)
        rf = r[free]
        if rf.size == 0:
            converged = True
            break
        res_inf = float(np.sqrt((rf * rf).sum(axis=1)).max())
        if res_inf <= tol:
            converged = True
            break
        gnorm2 = float((rf * rf).sum())
        step = step0
        took = False
        delta = np.zeros_like(pos)
        for _ in range(_MAX_HALVINGS):
            delta[free] = step * rf
            if _decrease(pos, delta, edges) >= c_armijo * step * gnorm2:
                took = True
                break
            step *= 0.5
        if not took:
            break
        pos = pos + delta
        accepted += 1
        trace[accepted] = net_length(pos, edges)
        if _min_edge(pos, edges) < min_sep:
            collided = True
            break
    return pos, accepted, converged, trace[: accepted + 1], collided


def balanced_masks(vecs: np.ndarray, tol: float) -> np.ndarray:
    """Bit masks of the subsets of the rows of vecs that sum to within tol
    of zero, in ascending order."""
    d = vecs.shape[0]
    total = 1 << d
    bits = np.int64(1) << np.arange(d, dtype=np.int64)
    chunk = min(total, 1 << 18)
    hits = []
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sel = (masks[:, None] & bits[None, :]) != 0
        sums = sel.astype(np.float64) @ vecs
        ok = (sums * sums).sum(axis=1) <= tol * tol
        hits.append(masks[ok])
    return np.concatenate(hits)
