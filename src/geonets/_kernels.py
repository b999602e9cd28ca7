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
_XY = np.array([[0], [1]])  # the coordinate axis, down a column


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each plane vector along the last axis of v: the
    one formula for every length, residual and subset-sum norm. The two
    squares are added elementwise, which gives the value of a sum over
    the last axis at a fraction of its cost."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1])


def _edge_vectors(pos: np.ndarray, edges: np.ndarray):
    """Vector of each edge, from its first endpoint to its second, and its
    length."""
    ends = np.take(pos, edges, axis=0)
    d = ends[:, 1] - ends[:, 0]
    return d, norms(d)


def unit_vectors(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Unit vector of each edge, from its first endpoint toward its second."""
    d, ln = _edge_vectors(pos, edges)
    return d / ln[:, None]


def _unit_slots(edges: np.ndarray) -> np.ndarray:
    """The (vertex, coordinate) slot, 2 * vertex + coordinate, of each entry
    of _unit_sums' units: for x and then for y, each edge's first endpoint
    in edge order, then each edge's second."""
    return (2 * edges.T.reshape(1, -1) + _XY).ravel()


def _unit_sums(n: int, edges: np.ndarray, d: np.ndarray, ln: np.ndarray,
               slots=None, units=None) -> np.ndarray:
    # One scatter-add over (vertex, coordinate) slots: +u at each edge's
    # first endpoint, then -u at its second, each in edge order; a slot
    # takes its terms in that order whatever the other slots take between
    # them. slots is _unit_slots(edges) and units a (2, 2E) array, given by
    # a caller that sums on the same edges again; units is left holding
    # the x and the y coordinates of u, then of -u.
    e = ln.shape[0]
    units = np.empty((2, 2 * e)) if units is None else units
    np.divide(d.T, ln, out=units[:, :e])
    np.negative(units[:, :e], out=units[:, e:])
    slots = _unit_slots(edges) if slots is None else slots
    return np.bincount(slots, units.ravel(), minlength=2 * n).reshape(n, 2)


def residuals(pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sum of the unit vectors along the edges leaving each vertex."""
    return _unit_sums(pos.shape[0], edges, *_edge_vectors(pos, edges))


def net_length(pos: np.ndarray, edges: np.ndarray) -> float:
    return float(_edge_vectors(pos, edges)[1].sum())


def _decrease(a: np.ndarray, la: np.ndarray, w: np.ndarray, prods: np.ndarray) -> float:
    # total_length(pos) - total_length(pos + delta), summed per edge in a
    # cancellation-free form. With a the old edge vector and w the change
    # (difference of endpoint displacements), |b|^2 = |a|^2 + 2 a.w + |w|^2,
    # so the per-edge drop is -(2 a.w + |w|^2) / (|a| + |b|). Forming w from
    # delta instead of b - a keeps the error relative to |w|, which resolves
    # decreases far below the fp resolution of the total length itself.
    # prods, (3, E, 2), takes the products a * w, w * w and b * b, so that
    # one sum of their two columns gives a.w, |w|^2 and |b|^2; the drops
    # are summed positive and negated after, which rounds alike.
    np.multiply(a, w, out=prods[0])
    np.multiply(w, w, out=prods[1])
    b = np.add(a, w, out=prods[2])
    np.multiply(b, b, out=b)
    aw, ww, bb = prods[..., 0] + prods[..., 1]
    return -float(np.add.reduce((2.0 * aw + ww) / (la + np.sqrt(bb))))


def _ends_rows(n: int, free: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(E, 2): the free row of each edge end, i for free[i] and m = free.size
    for a pin."""
    row = np.full(n, free.size, dtype=np.int64)
    row[free] = np.arange(free.size)
    return row[edges]


def _step_buffers(n: int, free: np.ndarray, edges: np.ndarray):
    """The Armijo test's parts that depend only on free and edges: the free
    row of each edge end (_ends_rows), an (m + 1, 2) displacement whose
    last row stays zero for the pins, and _decrease's (3, E, 2) products."""
    return _ends_rows(n, free, edges), np.zeros((free.size + 1, 2)), np.empty((3, edges.shape[0], 2))


def _backtrack(pos, free, edges, a, la, p, rp, step, buffers):
    """Halve step until the Armijo sufficient-decrease test holds along the
    direction p of the free rows, with rp the residual's inner product
    with p; a and la are the edge vectors and lengths at pos, and buffers
    is _step_buffers(n, free, edges), which every test reuses.

    Returns (displacement, decrease in total length, failed tests); the
    displacement is None after _MAX_HALVINGS failures.
    """
    rows, moves, prods = buffers
    for failed in range(_MAX_HALVINGS):
        np.multiply(p, step, out=moves[:-1])
        ends = np.take(moves, rows, axis=0)
        dec = _decrease(a, la, ends[:, 1] - ends[:, 0], prods)
        if dec >= _ARMIJO_C * step * rp:
            delta = np.zeros(pos.shape)
            delta[free] = moves[:-1]
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


# Per 2x2 block entry xx, xy, yx and yy: its row and column offset in M
# from the block's corner (2i, 2j) for free rows i and j, its row in
# _metric's per-edge table, whose rows are u_x^2 / length + mu / length,
# u_y^2 / length + mu / length and u_x u_y / length, and its sign.
_BLOCK_ROW, _BLOCK_COL = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
_BLOCK_TABLE = np.array([1, 2, 2, 0])
_BLOCK_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def _metric_index(n: int, free: np.ndarray, edges: np.ndarray):
    """Where the entries of each edge's 2x2 block land in the dense
    (2m x 2m) metric over the free coordinates, coordinate c of free row i
    at 2i + c. Each edge (u, v) adds its block at the row pairs (u, u) and
    (v, v) and subtracts it at (u, v) and (v, u); pairs that meet a pin
    are dropped. Returns (slots, take, sign, size), each of the first three
    with a row of four per kept pair, for its block entries xx, xy, yx and
    yy in turn: their flat positions in M, the flat positions in _metric's
    (3, E) table of the entries that fill them, and the signs that turn
    those into the pair's entries. It depends only on free and edges.
    """
    m, e = free.size, edges.shape[0]
    i, j = _ends_rows(n, free, edges).T
    ii, jj = np.concatenate((i, j, i, j)), np.concatenate((i, j, j, i))
    keep = np.flatnonzero((ii < m) & (jj < m))
    at = 2 * (2 * m * ii[keep] + jj[keep])[:, None]
    slots = at + 2 * m * _BLOCK_ROW + _BLOCK_COL
    take = e * _BLOCK_TABLE + (keep % e)[:, None]
    sign = np.where(keep < 2 * e, 1.0, -1.0)[:, None] * _BLOCK_SIGN
    return slots.ravel(), take, sign, 2 * m


def _metric(index, u: np.ndarray, la: np.ndarray, mu: float) -> np.ndarray:
    """M = H + mu * L_w over the free coordinates, from the edge unit
    vectors u as a (2, E) array of x and y rows, the lengths la and the
    slot index of _metric_index. H, the Hessian of total length, has the
    block (I - u u^T) / length for an edge of unit vector u, written as
    n n^T / length with n = (-u_y, u_x) so that no cancellation in
    1 - u_x^2 makes a diagonal entry negative; L_w, the weighted graph
    Laplacian, has I / length. The damping is its own term, mu / length,
    so that it survives however small mu is beside 1. Each edge's entries
    are computed once and signed per pair: a sign of -1 commutes with every
    rounding."""
    slots, take, sign, size = index
    w = 1.0 / la
    table = np.empty((3, la.shape[0]))
    sq, xy = table[:2], table[2]
    np.multiply(u, u, out=sq)
    np.multiply(sq, w, out=sq)
    np.add(sq, mu * w, out=sq)
    np.multiply(u[0], u[1], out=xy)
    np.multiply(xy, w, out=xy)
    vals = np.take(table, take)
    vals *= sign
    return np.bincount(slots, vals.ravel(), minlength=size * size).reshape(size, size)


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
    length trace over accepted iterates never rises; its first entry is
    the sum of the first iterate's lengths.

    One iterate makes one gather of the edge ends, whose vectors and
    lengths serve the collision test, the residual, the metric and every
    Armijo test; one scatter of the unit vectors into the residual, whose
    unit vectors the metric reuses; one build of M, one solve, one reduce
    for r.p, s.y and y.M^-1 y, and one Armijo test when nothing halves.
    The residual's slots and unit-vector buffer are made once per call.
    The metric's index, the Armijo test's buffers and the right-hand sides
    are made once the first convergence test fails, so a net that is
    balanced already makes none of them. Every float comes out as from
    the plain form that makes each array afresh, by the same operations
    in the same order, and tests/test_solver.py pins every iterate. On
    perturbed paper16 (16 free rows, 44 edges) an iterate takes about
    77 us, and 94 us in that form (2-vCPU VM, interleaved).

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
    n, e = pos.shape[0], edges.shape[0]
    slots, units = _unit_slots(edges), np.empty((2, 2 * e))
    trace = []
    accepted = halvings = refreshes = 0
    s = r_prev = None
    residual = np.inf
    metric = None  # None until the first direction; then True or False
    while True:
        a, la = _edge_vectors(pos, edges)
        if not trace:
            trace.append(float(np.add.reduce(la)))
        if np.minimum.reduce(la, initial=np.inf) < _MIN_SEP:
            stop = "collided"
            break
        rf = _unit_sums(n, edges, a, la, slots, units)[free]
        residual = float(np.maximum.reduce(norms(rf), initial=0.0))
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
                root = unions(n, *edges.T.tolist())[1]
                pins = np.bincount(root, minlength=n) - np.bincount(root[free], minlength=n)
                metric = bool(pins[root[free]].all())
            if metric:
                index = _metric_index(n, free, edges)
            buffers = _step_buffers(n, free, edges)
            # the columns r and y, which M^-1 maps to p and M^-1 y, and the
            # products summed to r.p, s.y and y.M^-1 y
            rhs = np.empty((2 * free.size, 2))
            r_col, y_col = (rhs.reshape(-1, 2, 2)[..., c] for c in (0, 1))
            dots = np.empty((3,) + rf.shape)
        if s is None:
            y, solved = None, rf.reshape(-1, 1)
        else:
            np.copyto(r_col, rf)
            y, solved = np.subtract(r_prev, rf, out=y_col), rhs
        if metric:
            m = _metric(index, units[:, :e], la, residual)
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
        np.multiply(rf, p, out=dots[0])
        if y is None:
            rp, sy = float(np.add.reduce(dots[0], axis=None)), 0.0
        else:
            np.multiply(s, y, out=dots[1])
            np.multiply(y, solved[:, 1].reshape(y.shape), out=dots[2])
            # each row is summed as the 1-D sum of its 2m products
            rp, sy, yhy = np.add.reduce(dots.reshape(3, -1), axis=1).tolist()
        trial = sy / yhy if sy > 0.0 else step0
        delta, dec, failed = _backtrack(pos, free, edges, a, la, p, rp, trial, buffers)
        halved = failed
        if delta is None and trial != step0:
            delta, dec, failed = _backtrack(pos, free, edges, a, la, p, rp, step0, buffers)
            halved += failed
        halvings += halved
        moved = None if delta is None else pos + delta
        if moved is None or (moved == pos).all():
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
