"""Numeric kernels, vectorized with numpy: balance residuals, total length,
gradient descent and balanced-subset enumeration; and reaches_all, the one
graph search, for verify's connectivity and descent's pin reachability.

A net enters as a (V, 2) float64 position array and an (E, 2) int64 array
of vertex-index pairs, as held by `Net.arrays`.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_MAX_HALVINGS = 60


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of v: the one
    formula for every length, residual and subset-sum norm."""
    return np.sqrt((v * v).sum(axis=-1))


def _edge_vectors(pos: np.ndarray, edges: np.ndarray):
    """Vector of each edge, from its first endpoint to its second, and its
    length."""
    d = pos[edges[:, 1]] - pos[edges[:, 0]]
    return d, norms(d)


def unit_vectors(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Unit vector of each edge, from its first endpoint toward its second."""
    d, ln = _edge_vectors(pos, edges)
    return d / ln[:, None]


def _unit_sums(n: int, edges: np.ndarray, d: np.ndarray, ln: np.ndarray) -> np.ndarray:
    # One scatter-add over (vertex, coordinate) slots: +u at each edge's
    # first endpoint, then -u at its second, each in edge order.
    u = d / ln[:, None]
    slots = 2 * edges.T.reshape(-1, 1) + (0, 1)
    sums = np.bincount(slots.ravel(), np.concatenate((u, -u)).ravel(), minlength=2 * n)
    return sums.reshape(n, 2)


def residuals(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sum of the unit vectors along the edges leaving each vertex."""
    return _unit_sums(pos.shape[0], edges, *_edge_vectors(pos, edges))


def net_length(pos: np.ndarray, edges: np.ndarray) -> float:
    return float(_edge_vectors(pos, edges)[1].sum())


def _decrease(a: np.ndarray, la: np.ndarray, delta: np.ndarray, edges: np.ndarray) -> float:
    # total_length(pos) - total_length(pos + delta), summed per edge in a
    # cancellation-free form. With a the old edge vector and w the change
    # (difference of endpoint displacements), |b|^2 = |a|^2 + 2 a.w + |w|^2,
    # so the per-edge drop is -(2 a.w + |w|^2) / (|a| + |b|). Forming w from
    # delta instead of b - a keeps the error relative to |w|, which resolves
    # decreases far below the fp resolution of the total length itself.
    w = delta[edges[:, 1]] - delta[edges[:, 0]]
    lb = norms(a + w)
    num = -(2.0 * (a * w).sum(axis=1) + (w * w).sum(axis=1))
    return float((num / (la + lb)).sum())


def _backtrack(pos, free, edges, a, la, p, rp, step, c_armijo):
    """Halve step until the Armijo sufficient-decrease test holds along the
    direction p of the free rows, with rp the residual's inner product
    with p; a and la are the edge vectors and lengths at pos.

    Returns (displacement, decrease in total length, failed tests); the
    displacement is None after _MAX_HALVINGS failures.
    """
    delta = np.zeros_like(pos)
    for failed in range(_MAX_HALVINGS):
        delta[free] = step * p
        dec = _decrease(a, la, delta, edges)
        if dec >= c_armijo * step * rp:
            return delta, dec, failed
        step *= 0.5
    return None, 0.0, _MAX_HALVINGS


# The most free rows for which descent takes its step in the weighted
# Laplacian metric. Each refresh inverts a dense (free x free) matrix and
# each iterate multiplies by it, so the metric's cost grows as free^3 while
# the iterations it saves do not. Relaxing perturbed honeycombs (+-0.05,
# seeds 0-3, 2-vCPU VM), the metric took 0.56x BB2's time at 120 free
# rows, 0.86x at 270, 1.01-1.03x at 304-340 and 1.32x at 396. Larger nets
# take the identity metric.
_METRIC_MAX_FREE = 350


def reaches_all(n: int, sources, edges: np.ndarray) -> bool:
    """Whether a path of edges joins each of the n vertices to one of
    sources: an iterative depth-first search over the rows of edges."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    stack = list(sources)
    seen = set(stack)
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _metric_inverse(n: int, free: np.ndarray, edges: np.ndarray, la: np.ndarray) -> np.ndarray:
    """Inverse of the weighted graph Laplacian L_w over the free rows, with
    edge weights 1/la: row i holds the weights of i's edges on its diagonal
    and minus each weight at the free row across that edge. Pins are
    Dirichlet rows, so an edge to a pin adds only its diagonal term."""
    m = free.size
    row = np.full(n, -1, dtype=np.int64)
    row[free] = np.arange(m)
    i, j = row[edges[:, 0]], row[edges[:, 1]]
    w = 1.0 / la
    ii, jj = np.concatenate((i, j, i, j)), np.concatenate((i, j, j, i))
    keep = (ii >= 0) & (jj >= 0)
    lap = np.bincount(ii[keep] * m + jj[keep], np.concatenate((w, w, -w, -w))[keep], minlength=m * m)
    return np.linalg.inv(lap.reshape(m, m))


def descend(pos, free, edges, step0, tol, c_armijo, max_iter, min_sep):
    """Descent on total length over the rows in free, in the metric of the
    weighted graph Laplacian L_w, with Barzilai-Borwein trial steps under a
    monotone Armijo test.

    The direction is p = L_w^-1 r, with r the residual (minus the gradient)
    of the free rows and L_w the Laplacian over them with edge weights
    1/length and the pins as Dirichlet rows. A step of 1 along p minimizes
    the quadratic sum over edges of |x_u - x_v|^2 / (2 length), which
    majorizes the total length: the network form of the Weiszfeld step.
    L_w^-1 is built from the edge lengths when the first convergence test
    fails, so a net that converges at once never builds it, and refreshed
    only after an iterate whose trial step needed a halving. The metric is
    the identity (p = r, plain gradient descent) when there are more than
    _METRIC_MAX_FREE free rows, or when some free row has no path to a pin
    (then L_w is singular).

    The trial step is BB2 in this metric, s.y / y.L_w^-1 y, with s the last
    accepted displacement of the free rows and y the change in the
    gradient over it; step0 on the first iteration and whenever s.y <= 0.
    BB2 is the shorter Barzilai-Borwein step, which the Armijo test
    rejects less often. The Armijo test, decrease >= c_armijo * step * r.p,
    backtracks from the trial step by halving; if every halving fails from
    a BB step, the ladder is tried once more from step0. Each trace entry
    is the previous one minus the decrease the Armijo test accepted, so
    the length trace over accepted iterates never rises. The edge vectors
    and lengths are evaluated once per iterate and serve the collision
    test, the residual, the metric and every Armijo test.

    Returns (positions, accepted steps, length trace, stop reason,
    halvings, residual, refreshes). Each iterate is tested in this order:
    "collided" (an edge is shorter than min_sep), "converged" (largest
    free residual norm at most tol), "max_iter", and "stalled" (no
    acceptable step from step0, or an accepted step too small to change
    any position, which is not counted); halvings counts every failed
    Armijo test. residual is the largest free residual norm the
    convergence test last read (inf if the first iterate collided), and
    refreshes counts the inversions of L_w (0 with the identity metric).
    """
    pos = pos.copy()
    trace = [net_length(pos, edges)]
    accepted = halvings = refreshes = 0
    s = r_prev = None
    residual = np.inf
    metric = None  # None until the first direction; then True or False
    inverse = None
    while True:
        a, la = _edge_vectors(pos, edges)
        if la.min(initial=np.inf) < min_sep:
            stop = "collided"
            break
        rf = _unit_sums(pos.shape[0], edges, a, la)[free]
        residual = float(norms(rf).max(initial=0.0))
        if residual <= tol:
            stop = "converged"
            break
        if accepted >= max_iter:
            stop = "max_iter"
            break
        if metric is None:
            pinned = np.ones(pos.shape[0], dtype=bool)
            pinned[free] = False
            metric = free.size <= _METRIC_MAX_FREE and reaches_all(
                pos.shape[0], np.flatnonzero(pinned).tolist(), edges)
        if metric and inverse is None:
            inverse = _metric_inverse(pos.shape[0], free, edges, la)
            refreshes += 1
        p = rf if inverse is None else inverse @ rf
        trial = step0
        if s is not None:
            y = r_prev - rf
            sy = float((s * y).sum())
            if sy > 0.0:
                hy = y if inverse is None else inverse @ y
                trial = sy / float((y * hy).sum())
        rp = float((rf * p).sum())
        delta, dec, failed = _backtrack(pos, free, edges, a, la, p, rp, trial, c_armijo)
        halved = failed
        if delta is None and trial != step0:
            delta, dec, failed = _backtrack(pos, free, edges, a, la, p, rp, step0, c_armijo)
            halved += failed
        halvings += halved
        moved = None if delta is None else pos + delta
        if moved is None or np.array_equal(moved, pos):
            stop = "stalled"
            break
        pos = moved
        s, r_prev = delta[free], rf
        accepted += 1
        trace.append(trace[-1] - dec)
        if halved:
            inverse = None
    return pos, accepted, trace, stop, halvings, residual, refreshes


# The most subset rows any array in star_subsets holds at once.
_MAX_ROWS = 1 << 18


def star_subsets(vecs: np.ndarray, tol: float):
    """The subsets of each star's legs whose unit vectors sum to within tol
    of zero, and the least norm of the others.

    vecs is (stars, d, 2): the unit vectors of the d legs of each star.
    A subset is accepted when the norm of its sum is at most tol. Returns
    three flat arrays over the accepted subsets: the star's index, the
    subset's bit mask over the legs (bit i for leg i) and the norm of its
    sum, ordered by star and then by ascending mask. The fourth value is
    the least norm of a rejected subset over all the stars, inf when every
    subset is accepted.

    The stars go in groups of _MAX_ROWS // rows, and each group runs
    through its masks in chunks of rows = min(2^d, _MAX_ROWS), so no array
    holds more than _MAX_ROWS subset rows. Every chunk of a star's sums
    thus comes from one (rows x d) @ (d x 2) product with rows >= 2 for
    d >= 1, however the stars are grouped; numpy rounds a one-row product
    differently.
    """
    total = 1 << vecs.shape[1]
    chunk = min(total, _MAX_ROWS)
    per = _MAX_ROWS // chunk
    bits = np.int64(1) << np.arange(vecs.shape[1], dtype=np.int64)
    found = []
    rejected = np.inf
    for first in range(0, vecs.shape[0], per):
        for start in range(0, total, chunk):
            masks = np.arange(start, start + chunk, dtype=np.int64)
            sel = ((masks[:, None] & bits[None, :]) != 0).astype(np.float64)
            sums = sel @ vecs[first:first + per]
            norm = norms(sums)
            ok = norm <= tol
            star, row = np.nonzero(ok)
            found.append((star + first, masks[row], norm[star, row]))
            rejected = float(norm[~ok].min(initial=rejected))
    star, mask, norm = (np.concatenate(parts) for parts in zip(*found))
    return star, mask, norm, rejected


def balanced_masks(vecs: np.ndarray, tol: float) -> np.ndarray:
    """Bit masks of the subsets of the rows of vecs that sum to within tol
    of zero, in ascending order: star_subsets of the one star vecs."""
    return star_subsets(vecs[None], tol)[1]
