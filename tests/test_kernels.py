import itertools
import math
import random

import numpy as np
import pytest

from geonets import COINCIDENCE_EPS, _kernels, build_paper_net

from helpers import honeycomb, random_net


def _random_arrays(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    pos = rng.uniform(-5, 5, size=(n, 2))
    # ring plus chords, no self loops or duplicates
    edges = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        edges.add((min(i, j), max(i, j)))
    edges = np.array(sorted({(min(a, b), max(a, b)) for a, b in edges}), dtype=np.int64)
    free = np.arange(0, n, 2, dtype=np.int64)
    return pos, edges, free


def test_residuals_match_direct_sum():
    pos = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]])
    edges = np.array([[0, 1], [0, 2]], dtype=np.int64)
    r = _kernels.residuals(pos, edges)
    assert r[0] == pytest.approx([0.6, 0.8 + 1.0])
    assert r[1] == pytest.approx([-0.6, -0.8])
    assert r[2] == pytest.approx([0.0, -1.0])


def _unit_sums_by_add_at(n, edges, d, ln):
    out = np.zeros((n, 2))
    u = d / ln[:, None]
    np.add.at(out, edges[:, 0], u)
    np.add.at(out, edges[:, 1], -u)
    return out


def test_unit_sums_match_add_at_bit_for_bit():
    # every slot takes the same terms in the same order as two np.add.at
    # passes, and x + (-y) is x - y in IEEE arithmetic
    nets = [build_paper_net(), honeycomb(8, 6)]
    nets += [random_net(random.Random(seed)) for seed in range(40)]
    cases = [(net.pos, net.ends) for net in nets]
    cases += [_random_arrays(seed)[:2] for seed in range(20)]
    cases.append((np.zeros((3, 2)), np.zeros((0, 2), dtype=np.int64)))
    rng = np.random.default_rng(31)
    checked = 0
    for pos, edges in cases:
        for moved in (pos, pos + rng.uniform(-1e-3, 1e-3, size=pos.shape)):
            d, ln = _kernels._edge_vectors(moved, edges)
            if ln.min(initial=np.inf) == 0.0:
                continue
            units = np.empty((2, 2 * len(edges)))
            got = _kernels._unit_sums(len(moved), d, ln, _kernels._unit_slots(edges), units)
            assert got.tobytes() == _unit_sums_by_add_at(len(moved), edges, d, ln).tobytes()
            checked += 1
    assert checked >= 100


def test_norms_match_the_sum_over_the_last_axis_bit_for_bit():
    rng = np.random.default_rng(37)
    for shape in ((0, 2), (1, 2), (500, 2), (7, 64, 2)):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-160, 150, size=shape)
        v[rng.random(shape) < 0.1] = 0.0
        v[rng.random(shape) < 0.1] *= -1.0
        v[rng.random(shape) < 0.05] = -0.0
        assert _kernels.norms(v).tobytes() == np.sqrt((v * v).sum(axis=-1)).tobytes()


def test_residuals_and_length_match_per_edge_sums():
    for seed in range(20):
        pos, edges, _ = _random_arrays(seed)
        expected = np.zeros_like(pos)
        length = 0.0
        for i, j in edges:
            d = pos[j] - pos[i]
            ln = math.hypot(d[0], d[1])
            expected[i] += d / ln
            expected[j] -= d / ln
            length += ln
        assert np.allclose(_kernels.residuals(pos, edges), expected, rtol=0.0, atol=1e-14)
        assert _kernels.net_length(pos, edges) == pytest.approx(length, rel=1e-14)


def test_descend_is_deterministic(paper_net):
    a = _kernels.descend(paper_net.pos, paper_net.free, paper_net.ends, 0.1, 1e-9, 100)
    b = _kernels.descend(paper_net.pos, paper_net.free, paper_net.ends, 0.1, 1e-9, 100)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(np.asarray(a[2]), np.asarray(b[2]))


def test_descent_collides_at_the_coincidence_distance():
    # an edge shorter than COINCIDENCE_EPS stops descent before any step;
    # one of exactly that length does not
    edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    free = np.array([2], dtype=np.int64)
    for length, stop in ((np.nextafter(COINCIDENCE_EPS, 0.0), "collided"), (COINCIDENCE_EPS, "max_iter")):
        pos = np.array([[0.0, 0.0], [length, 0.0], [0.3, 1.0]])
        out = _kernels.descend(pos, free, edges, 0.1, 1e-9, 0)
        assert (out[1], out[3]) == (0, stop)


def test_descend_reports_a_stall(tripod_net, monkeypatch):
    net = tripod_net
    pos = net.pos.copy()
    pos[net.free] += 0.3
    # no step can decrease the length by a million times the first-order model
    monkeypatch.setattr(_kernels, "_ARMIJO_C", 1e6)
    out = _kernels.descend(pos, net.free, net.ends, 0.1, 1e-9, 100)
    _, accepted, trace, stop, halvings, residual, refreshes = out
    assert (accepted, stop) == (0, "stalled")
    # the metric is built once, when the first convergence test fails
    assert refreshes == 1
    # the residual its convergence test read, at the start positions
    assert residual == _kernels.norms(_kernels.residuals(pos, net.ends)[net.free]).max()
    assert halvings == 60
    assert len(trace) == 1


def test_damped_newton_metric_is_positive_definite():
    # M = H + mu * L_w with mu the largest free residual norm: H is
    # positive semidefinite, since total length is convex, and L_w positive
    # definite once every free vertex reaches a pin, so Cholesky succeeds
    checked = 0
    for seed in range(300):
        net = random_net(random.Random(seed))
        n = net.pos.shape[0]
        pins = np.setdiff1d(np.arange(n), net.free).tolist()
        root = _kernels.unions(n, *net.ends.T.tolist())[1]
        if not net.free.size or not np.isin(root[net.free], root[pins]).all():
            continue
        a, la = _kernels._edge_vectors(net.pos, net.ends)
        mu = float(_kernels.norms(_kernels.residuals(net.pos, net.ends)[net.free]).max())
        assert mu > 0.0
        m = _kernels._metric(_kernels._metric_index(n, net.free, net.ends), a.T / la, la, mu)
        assert m.shape == (2 * net.free.size,) * 2
        assert np.array_equal(m, m.T)
        np.linalg.cholesky(m)
        checked += 1
    assert checked > 200


def _closure(n, edges):
    """Oracle for unions: the transitive closure of the adjacency matrix,
    squared until it stops growing."""
    reach = np.eye(n, dtype=bool)
    for u, v in edges:
        reach[u, v] = reach[v, u] = True
    while True:
        grown = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _reaches_all_by_closure(n, sources, edges):
    return bool(_closure(n, edges)[:, sorted(sources)].any(axis=1).all())


def test_unions_match_the_transitive_closure():
    rng = random.Random(3)
    seen = {"n0": 0, "n1": 0, "isolated": 0, "no-source": 0, "components": 0, True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(0, 12)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n + 2))] if n > 1 else []
        sources = rng.sample(range(n), rng.randint(0, min(n, 3)))
        joined, root = _kernels.unions(n, [u for u, _ in edges], [v for _, v in edges])
        reach = _closure(n, edges)
        # each root is the lowest item of its closure class
        assert root.tolist() == [int(row.argmax()) for row in reach], (n, edges)
        # pair i joins two sets exactly when no earlier pair connects its ends
        assert joined == [i for i, (u, v) in enumerate(edges) if not _closure(n, edges[:i])[u, v]], (n, edges)
        got = set(root.tolist()) <= set(root[sources].tolist())
        assert got == _reaches_all_by_closure(n, sources, edges), (n, sources, edges)
        ends = {u for e in edges for u in e}
        seen["n0"] += n == 0
        seen["n1"] += n == 1
        seen["isolated"] += n > len(ends)
        seen["no-source"] += not sources
        seen["components"] += n > 0 and not _reaches_all_by_closure(n, [0], edges)
        seen[got] += 1
    assert min(seen.values()) >= 20, seen


def test_balanced_masks_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(1, 9))
        angles = rng.uniform(0, 2 * math.pi, size=d)
        vecs = np.column_stack([np.cos(angles), np.sin(angles)])
        if d >= 2 and rng.random() < 0.7:
            vecs[1] = -vecs[0]  # plant an opposite pair
        tol = 1e-9
        expected = []
        for mask in range(1 << d):
            s = vecs[[i for i in range(d) if mask & (1 << i)]].sum(axis=0) if mask else np.zeros(2)
            if math.hypot(*s) <= tol:
                expected.append(mask)
        got = sorted(int(m) for m in _kernels.balanced_masks(vecs, tol))
        assert got == expected


def _paired_star(rng, pairs):
    """Unit vectors of `pairs` exactly opposite pairs at random angles:
    their zero-sum subsets are exactly the unions of whole pairs."""
    angles = rng.uniform(0, math.pi, size=pairs)
    half = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.stack([half, -half], axis=1).reshape(2 * pairs, 2)


def _pair_unions(pairs):
    return sorted(
        sum(3 << 2 * i for i in chosen)
        for k in range(pairs + 1)
        for chosen in itertools.combinations(range(pairs), k)
    )


def test_star_subsets_of_degree_20_stars_span_chunks():
    # 2^20 masks per star: each star takes four 2^18-row chunks
    rng = np.random.default_rng(23)
    vecs = np.stack([_paired_star(rng, 10), _paired_star(rng, 10)])
    star, mask, norm, rejected = _kernels.star_subsets(vecs, 1e-9)
    assert star.tolist() == sorted(star.tolist())
    least = []
    for k in range(2):
        alone = _kernels.star_subsets(vecs[k:k + 1], 1e-9)
        assert np.array_equal(mask[star == k], alone[1])
        assert np.array_equal(norm[star == k], alone[2])
        assert mask[star == k].tolist() == _pair_unions(10)
        assert np.array_equal(_kernels.balanced_masks(vecs[k], 1e-9), alone[1])
        least.append(alone[3])
    # the least rejected norm is over every chunk of every star
    assert 1e-9 < rejected == min(least)


# A real chunk holds min(2^d, _MAX_ROWS) >= 2 rows, 2 for a degree-1 star;
# a one-row product would take numpy's vector path, which rounds
# differently.
@pytest.mark.parametrize("max_rows", [2, 4, 8, 64])
def test_star_subsets_do_not_depend_on_the_chunk_size(monkeypatch, max_rows):
    rng = np.random.default_rng(29)
    stars = [np.stack([_paired_star(rng, pairs) for _ in range(5)]) for pairs in (1, 2, 3)]
    for degree in (5, 1):
        stars.append(np.stack([np.column_stack([np.cos(a), np.sin(a)])
                               for a in rng.uniform(0, 2 * math.pi, size=(4, degree))]))
    # within 2.0 both subsets of a degree-1 star count; within 1e-9 every
    # star rejects a subset, so the least rejected norm is finite
    whole = {tol: [_kernels.star_subsets(vecs, tol) for vecs in stars] for tol in (2.0, 1e-9)}
    assert all(math.isfinite(w[3]) for w in whole[1e-9])
    monkeypatch.setattr(_kernels, "_MAX_ROWS", max_rows)
    for tol, expected_all in whole.items():
        for vecs, expected in zip(stars, expected_all):
            got = _kernels.star_subsets(vecs, tol)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
