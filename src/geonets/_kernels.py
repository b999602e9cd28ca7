"""Numeric kernels, vectorized with numpy: balance residuals, total length,
gradient descent and balanced-subset enumeration; and unions, the one
union-find, for verify's connectivity, descent's pin reachability and the
subnet search's edge classes.

A net enters as a (V, 2) float64 position array and an (E, 2) int64 array
of vertex-index pairs, as held by `Net.pos` and `Net.ends`.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

_MAX_HALVINGS = 60
_ARMIJO_C = 1e-4
_MIN_SEP = 1e-9  # geom.COINCIDENCE_EPS, which _kernels cannot import


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


def _backtrack(pos, free, edges, a, la, p, rp, step):
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
        if dec >= _ARMIJO_C * step * rp:
            return delta, dec, failed
        step *= 0.5
    return None, 0.0, _MAX_HALVINGS


# The most free rows for which descent takes its step in the damped Newton
# metric. Each iterate builds and solves a dense (2 free x 2 free) system,
# whose cost grows as free^3, while the iterations it saves do not.
# Relaxing perturbed honeycombs (+-0.05, seeds 0-3, 2-vCPU VM, ms), the
# Laplacian metric this one replaced, then this metric, then the identity:
#
#   free rows   Laplacian   damped Newton   identity
#          56        8-10             4-5      14-20
#          90       12-15           10-12      18-30
#         132       16-18           23-30      23-43
#         182       23-35           43-46      36-62
#         240       36-54           71-75      35-58
#         270      45-136          92-104      34-69
#         306       42-56         124-135      45-65
#         340       60-75         142-161      46-80
#
# Tripod overlays (+-0.01, seeds 0-3) take the metric or do not converge:
# plain BB2 stops at 20,000 iterations on overlay(6, 0) and overlay(7, 0)
# (seed 0; residuals 6.3e-7 and 3.9e-8). Overlay(6, 0), 129 free rows,
# took 432-515 ms with the Laplacian metric and 48-52 ms with this one;
# overlay(7, 0), 347 free rows, 1,692-2,852 ms and 349-488 ms. So the
# ceiling keeps overlay(7, 0) in the metric, at the cost of the honeycombs
# between about 200 and 350 free rows, where the identity is faster.
# Larger nets take the identity metric.
_METRIC_MAX_FREE = 350


def unions(n: int, a, b):
    """Union-find over the items 0..n-1 with path halving (Tarjan 1975),
    written out: calls to find, min and max took as long again as the
    rest on a honeycomb. Joins a[i] and b[i] for each i in turn, rooting
    each set at its lowest item. Returns (joined, root): the ascending
    indices i whose pair joined two sets, and each item's root (int64)."""
    parent = list(range(n))
    joined = []
    for i, x, y in zip(range(len(a)), a, b):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            parent[x if x > y else y] = y if x > y else x
            joined.append(i)
    root = np.array(parent, dtype=np.int64)
    for _ in range(n.bit_length()):
        root = root[root]
    return joined, root


def _metric_index(n: int, free: np.ndarray, edges: np.ndarray):
    """Where the entries of each edge's 2x2 block land in the dense
    (2m x 2m) metric over the free coordinates, coordinate c of free row i
    at 2i + c. Each edge (u, v) adds its block at the row pairs (u, u) and
    (v, v) and subtracts it at (u, v) and (v, u); pairs that meet a pin
    are dropped. Returns (slots, edge, sign, size): for each kept pair,
    its edge and sign, and slots holding the flat positions of block
    entries xx, xy, yx and yy in turn. It depends only on free and edges.
    """
    m = free.size
    row = np.full(n, -1, dtype=np.int64)
    row[free] = np.arange(m)
    i, j = row[edges[:, 0]], row[edges[:, 1]]
    ii, jj = np.concatenate((i, j, i, j)), np.concatenate((i, j, j, i))
    keep = np.flatnonzero((ii >= 0) & (jj >= 0))
    ii, jj = ii[keep], jj[keep]
    slots = [(2 * ii + c) * (2 * m) + 2 * jj + d for c, d in ((0, 0), (0, 1), (1, 0), (1, 1))]
    edge = keep % edges.shape[0]
    sign = np.where(keep < 2 * edges.shape[0], 1.0, -1.0)
    return np.concatenate(slots), edge, sign, 2 * m


def _metric(index, a: np.ndarray, la: np.ndarray, mu: float) -> np.ndarray:
    """M = H + mu * L_w over the free coordinates, from the edge vectors a,
    the lengths la and the slot index of _metric_index. H, the Hessian of
    total length, has the block (I - u u^T) / length for an edge of unit
    vector u, written as n n^T / length with n = (-u_y, u_x) so that no
    cancellation in 1 - u_x^2 makes a diagonal entry negative; L_w, the
    weighted graph Laplacian, has I / length. The damping is its own term,
    mu / length, so that it survives however small mu is beside 1."""
    slots, edge, sign, size = index
    ln = la[edge]
    w = sign / ln
    ux, uy = a[edge, 0] / ln, a[edge, 1] / ln
    xy = -ux * uy * w
    vals = np.concatenate((uy * uy * w + mu * w, xy, xy, ux * ux * w + mu * w))
    return np.bincount(slots, vals, minlength=size * size).reshape(size, size)


def descend(pos, free, edges, step0, tol, max_iter):
    """Descent on total length over the rows in free, along damped Newton
    directions, with Barzilai-Borwein trial steps under a monotone Armijo
    test.

    Total length is a sum of norms of affine maps of the free positions,
    so it is convex: its Hessian H, with the block (I - u u^T) / length
    for each edge of unit vector u, is positive semidefinite. The
    direction is p = M^-1 r, with r the residual (minus the gradient) of
    the free rows and M = H + mu * L_w over their 2m coordinates, where
    L_w is the weighted graph Laplacian with edge weights 1/length and the
    pins as Dirichlet rows, and mu is the largest free residual norm, the
    value the convergence test has just read (the regularized Newton
    method of Li, Fukushima, Qi and Yamashita 2004). M is built only when
    that test fails, so mu > tol >= 0; L_w is positive definite when every
    free row reaches a pin, so M is too and p is a descent direction. Far
    from a critical point mu * L_w keeps a stiffness 1/length along short
    edges, where H alone has none along the edge; as mu -> 0 the step
    becomes Newton's, which converges quadratically. M is rebuilt on every
    iterate, from slot positions computed once per call. The metric is
    the identity (p = r, plain gradient descent) when there are more than
    _METRIC_MAX_FREE free rows, or when some free row has no path to a pin
    (then L_w is singular).

    The trial step is BB2 in this metric, s.y / y.M^-1 y, with s the last
    accepted displacement of the free rows and y the change in the
    gradient over it; one solve with M gives both p and M^-1 y. It is
    step0 on the first iteration and whenever s.y <= 0. BB2 is the
    shorter Barzilai-Borwein step, which the Armijo test rejects less
    often. The Armijo test, decrease >= _ARMIJO_C * step * r.p, backtracks
    from the trial step by halving; if every halving fails from a BB step,
    the ladder is tried once more from step0. Each trace entry is the
    previous one minus the decrease the Armijo test accepted, so the
    length trace over accepted iterates never rises. The edge vectors and
    lengths are evaluated once per iterate and serve the collision test,
    the residual, the metric and every Armijo test.

    Returns (positions, accepted steps, length trace, stop reason,
    halvings, residual, refreshes). Each iterate is tested in this order:
    "collided" (an edge is shorter than _MIN_SEP), "converged" (largest
    free residual norm at most tol), "max_iter", and "stalled" (no
    acceptable step from step0, M singular in floating point, or an
    accepted step too small to change any position, which is not
    counted); halvings counts every failed Armijo test. residual is the
    largest free residual norm the convergence test last read (inf if the
    first iterate collided), and refreshes counts the builds of M (0 with
    the identity metric).
    """
    pos = pos.copy()
    trace = [net_length(pos, edges)]
    accepted = halvings = refreshes = 0
    s = r_prev = None
    residual = np.inf
    index = None  # the metric's slot index, once descent takes the metric
    metric = None  # None until the first direction; then True or False
    while True:
        a, la = _edge_vectors(pos, edges)
        if la.min(initial=np.inf) < _MIN_SEP:
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
            metric = free.size <= _METRIC_MAX_FREE
            if metric:
                # pins in each set, counted at its root: its size less its free rows
                root = unions(pos.shape[0], *edges.T.tolist())[1]
                pins = np.bincount(root, minlength=pos.shape[0]) - np.bincount(root[free], minlength=pos.shape[0])
                metric = bool(pins[root[free]].all())
            if metric:
                index = _metric_index(pos.shape[0], free, edges)
        y = None if s is None else r_prev - rf
        # the columns r and y, then M^-1 r and M^-1 y; M = I without the metric
        solved = rf.reshape(-1, 1) if y is None else np.stack((rf.ravel(), y.ravel()), axis=1)
        if metric:
            m = _metric(index, a, la, residual)
            refreshes += 1
            try:
                solved = np.linalg.solve(m, solved)
            except np.linalg.LinAlgError:
                # a pivot rounded to zero: mu / length is down at the
                # rounding level of H, as where H is singular along a
                # straight chain, and no step can be resolved
                stop = "stalled"
                break
        p = solved[:, 0].reshape(rf.shape)
        trial = step0
        if y is not None:
            sy = float((s * y).sum())
            if sy > 0.0:
                trial = sy / float((y * solved[:, 1].reshape(y.shape)).sum())
        rp = float((rf * p).sum())
        delta, dec, failed = _backtrack(pos, free, edges, a, la, p, rp, trial)
        halved = failed
        if delta is None and trial != step0:
            delta, dec, failed = _backtrack(pos, free, edges, a, la, p, rp, step0)
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
