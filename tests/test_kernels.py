import math

import numpy as np
import pytest

from geonets import _kernels


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
    arr = paper_net.arrays
    a = _kernels.descend(arr.pos, arr.free, arr.edges, 0.1, 1e-9, 1e-4, 100, 1e-9)
    b = _kernels.descend(arr.pos, arr.free, arr.edges, 0.1, 1e-9, 1e-4, 100, 1e-9)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(np.asarray(a[2]), np.asarray(b[2]))


def test_descend_reports_a_stall(tripod_net):
    arr = tripod_net.arrays
    pos = arr.pos.copy()
    pos[arr.free] += 0.3
    # no step can decrease the length by a million times the first-order model
    out = _kernels.descend(pos, arr.free, arr.edges, 0.1, 1e-9, 1e6, 100, 1e-9)
    _, accepted, trace, stop, halvings = out
    assert (accepted, stop) == (0, "stalled")
    assert halvings == 60
    assert len(trace) == 1


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
