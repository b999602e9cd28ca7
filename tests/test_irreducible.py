import inspect
import math
import random
import sys

import pytest

from geonets import (
    DEFAULT_OVERLAY_TERMINALS,
    DegreeTooLarge,
    Irreducible,
    Net,
    Point,
    Reducible,
    SearchBudgetExceeded,
    Vertex,
    VertexKind,
    balanced_edge_subsets,
    build_overlay_net,
    edge_key,
    edge_subnet,
    find_proper_subnet,
    is_irreducible,
    planarize,
    verify,
)
from geonets import irreducible

from helpers import (
    brute_force_balanced_subsets,
    chord_arrangement,
    edges_on_segment,
    enumerate_proper_subnets,
    honeycomb,
    subset_is_balanced,
    tripod_overlay,
)

B = VertexKind.BALANCED
U = VertexKind.UNBALANCED


def _v(vid, x, y, kind=U):
    return Vertex(vid, Point(x, y), kind)


def planarized_x_net() -> Net:
    return planarize(
        Net(
            vertices=(
                _v("p1", -1, -1),
                _v("p2", 1, -1),
                _v("p3", 1, 1),
                _v("p4", -1, 1),
            ),
            edges=(("p1", "p3"), ("p2", "p4")),
        )
    )


# --- balanced edge subsets --------------------------------------------------

def test_subsets_at_paper_inner_ring_vertex(paper_net):
    subs = balanced_edge_subsets(paper_net, "a1")
    assert len(subs) == 2
    assert subs[0] == ()
    assert subs[1] == paper_net.incident_edges("a1")
    assert len(paper_net.incident_edges("a1")) == 5


def test_subsets_at_paper_degree_three_vertex(paper_net):
    subs = balanced_edge_subsets(paper_net, "b1")
    assert subs == [(), paper_net.incident_edges("b1")]


def test_subsets_at_triple_crossing(paper_net):
    # three straight chords through x1: any union of opposite pairs balances
    subs = balanced_edge_subsets(paper_net, "x1")
    assert paper_net.degree("x1") == 6
    assert len(subs) == 8
    sizes = sorted(len(s) for s in subs)
    assert sizes == [0, 2, 2, 2, 4, 4, 4, 6]


def _bent_star(bend):
    """A balanced vertex c with three opposite pairs of edges on axes 120
    degrees apart, each pair bent by `bend`. The bends cancel, so c
    balances; every union of one or two pairs has residual 2*sin(bend/2),
    and each of the two tripods sums to zero."""
    verts, edges = [_v("c", 0, 0, B)], []
    for k in range(3):
        axis = 2 * math.pi * k / 3
        for side, angle in (("a", axis), ("b", axis + math.pi + bend)):
            verts.append(_v(f"{side}{k}", math.cos(angle), math.sin(angle)))
            edges.append(("c", f"{side}{k}"))
    return Net(verts, edges)


@pytest.mark.parametrize(
    "net, vid, tol, low, high",
    [
        # the pairs are rejected at 5e-9, within 10*tol: the high end
        (_bent_star(5e-9), "c", 1e-9, 0.0, 5e-9),
        # the pairs are accepted at 5e-10 and nothing is rejected within
        # 10*tol: the low end, and high is 10*tol
        (_bent_star(5e-10), "c", 1e-9, 5e-10, 1e-8),
        # opposite unit vectors cancel exactly, so tol = 0 certifies
        (planarized_x_net(), "x1", 0.0, 0.0, 0.0),
    ],
    ids=["rejected-within-10tol", "none-rejected", "tol0"],
)
def test_tolerance_margin(net, vid, tol, low, high):
    cert = find_proper_subnet(net, tol)
    assert isinstance(cert, Reducible)
    got_low, got_high = cert.tol_margin
    assert got_low == pytest.approx(low, rel=1e-6, abs=1e-15)
    assert got_high == pytest.approx(high, rel=1e-6)
    # the margin is a true statement about every subset, up to rounding
    balanced = set(balanced_edge_subsets(net, vid, tol))
    assert set(brute_force_balanced_subsets(net, vid, got_low + 1e-15)) == balanced
    assert set(brute_force_balanced_subsets(net, vid, max(got_high - 1e-15, 0.0))) == balanced
    # at both ends of the margin the subset table and the certificate
    # do not change: at low itself and at the largest double below high
    if got_low < got_high:
        for end in (got_low, math.nextafter(got_high, 0.0)):
            assert set(balanced_edge_subsets(net, vid, end)) == balanced
            assert find_proper_subnet(net, end).witness == cert.witness


def test_least_root_is_the_least_double_whose_square_reaches_n2():
    rng = random.Random(3)
    for _ in range(10_000):
        n2 = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-120, 0))
        x = irreducible._least_root(n2)
        below = math.nextafter(x, 0.0)
        assert x * x >= n2 > below * below, n2
    assert irreducible._least_root(0.0) == 0.0


def test_paper_net_margin_ends_are_exact(paper_net, paper_cert):
    # low is the least double that accepts every balanced subset under
    # norm2 <= tol * tol; sqrt of the largest norm2 alone rounds to a
    # double whose square falls short of it at x1..x4
    low, high = paper_cert.tol_margin
    balanced = [v.id for v in paper_net.vertices if v.kind is B]
    tables = {vid: balanced_edge_subsets(paper_net, vid) for vid in balanced}
    for end in (low, math.nextafter(high, 0.0)):
        assert {vid: balanced_edge_subsets(paper_net, vid, end) for vid in balanced} == tables
        assert find_proper_subnet(paper_net, end).trace == paper_cert.trace
    below = math.nextafter(low, 0.0)
    assert any(balanced_edge_subsets(paper_net, vid, below) != tables[vid] for vid in balanced)


def test_subsets_at_crossing_of_two_chords():
    net = planarized_x_net()
    subs = balanced_edge_subsets(net, "x1")
    assert len(subs) == 4
    assert sorted(len(s) for s in subs) == [0, 2, 2, 4]


def test_subsets_reject_unbalanced_vertex(paper_net):
    with pytest.raises(ValueError):
        balanced_edge_subsets(paper_net, "c1")


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_subsets_reject_a_bad_tolerance(paper_net, tol):
    # the subset test compares squared norms with tol * tol, so tol = -1
    # would accept every subset within 1 of zero
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        balanced_edge_subsets(paper_net, "x1", tol)


def test_subsets_match_brute_force(paper_net, tripod_net, double_tripod_net):
    nets = [tripod_net, double_tripod_net, planarized_x_net()]
    for net in nets:
        for v in net.vertices:
            if v.kind is B:
                assert balanced_edge_subsets(net, v.id) == brute_force_balanced_subsets(
                    net, v.id
                )
    # spot checks on the big net (the full sweep is an acceptance test)
    for vid in ("b2", "d3", "x2"):
        assert balanced_edge_subsets(paper_net, vid) == brute_force_balanced_subsets(
            paper_net, vid
        )


def test_subsets_degree_cap():
    n = 25
    verts = [_v("c", 0, 0, B)]
    edges = []
    for i in range(n):
        ang = 2 * math.pi * i / n
        verts.append(_v(f"t{i}", math.cos(ang), math.sin(ang)))
        edges.append(("c", f"t{i}"))
    net = Net(verts, edges)
    with pytest.raises(DegreeTooLarge):
        balanced_edge_subsets(net, "c")


# --- subnet search -----------------------------------------------------------

def test_tripod_is_irreducible(tripod_net):
    flag, cert = is_irreducible(tripod_net)
    assert flag
    assert isinstance(cert, Irreducible)
    assert {s.seed for s in cert.trace} == set(tripod_net.edges)


def test_double_tripod_is_irreducible(double_tripod_net):
    flag, cert = is_irreducible(double_tripod_net)
    assert flag
    assert isinstance(cert, Irreducible)


def test_x_net_is_reducible():
    net = planarized_x_net()
    flag, cert = is_irreducible(net)
    assert not flag
    assert isinstance(cert, Reducible)
    # one straight chord through the crossing
    assert len(cert.witness) == 2
    assert subset_is_balanced(net, sorted(cert.witness))
    sub = edge_subnet(net, cert.witness)
    assert verify(sub, min_balanced_degree=1).passed


def test_find_proper_subnet_requires_a_valid_net():
    crossed = Net(
        vertices=(
            _v("p1", -1, -1),
            _v("p2", 1, -1),
            _v("p3", 1, 1),
            _v("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )
    with pytest.raises(ValueError):
        find_proper_subnet(crossed)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_find_proper_subnet_rejects_a_bad_tolerance(tripod_net, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        find_proper_subnet(tripod_net, tol)


def test_paper_net_certificate(paper_cert, paper_net):
    assert isinstance(paper_cert, Irreducible)
    seeds = {s.seed for s in paper_cert.trace}
    assert seeds == set(paper_net.edges)
    by_seed = {}
    for step in paper_cert.trace:
        by_seed.setdefault(step.seed, []).append(step)
    for seed, steps in by_seed.items():
        assert steps[0].forced_in == (seed,)
        assert steps[-1].conflict is not None
        # every seed is refuted by its own propagation, without branching
        assert not steps[-1].conflict.startswith("exhaustive"), seed


@pytest.mark.parametrize("name", ["paper", "honeycomb"])
def test_certificate_is_linear_in_its_steps(request, name):
    # A seed step names only its seed: the seeds its search excludes are
    # the seeds before it, so no step repeats them.
    if name == "paper":
        net, cert = request.getfixturevalue("paper_net"), request.getfixturevalue("paper_cert")
    else:
        net = planarize(honeycomb(8, 6))
        cert = find_proper_subnet(net)
    assert isinstance(cert, Irreducible)
    refs = sum(len(step.forced_in) + len(step.forced_out) for step in cert.trace)
    max_degree = max(net.degree(v.id) for v in net.vertices)
    assert refs <= max_degree * len(cert.trace)
    seed_steps = [s for s in cert.trace if s.vertex is None and s.conflict is None]
    assert [s.seed for s in seed_steps] == list(net.edges)
    assert all(s.forced_in == (s.seed,) and s.forced_out == () for s in seed_steps)


@pytest.fixture(
    scope="module", params=["default", 0, 1, 2], ids=["default", "jitter0", "jitter1", "jitter2"]
)
def overlay_case(request, overlay_net, overlay_cert):
    if request.param == "default":
        return overlay_net, overlay_cert
    # terminals moved by up to 0.3: 68 edges, and the search branches
    rng = random.Random(request.param)
    terminals = [
        Point(p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3))
        for p in DEFAULT_OVERLAY_TERMINALS
    ]
    net = build_overlay_net(*terminals)
    return net, find_proper_subnet(net)


def test_overlay_certificate(overlay_case):
    net, cert = overlay_case
    assert isinstance(cert, Reducible)
    w = cert.witness
    assert len(w) == 8
    assert len(w) < len(net.edges)
    sub = edge_subnet(net, w)
    report = verify(sub, min_balanced_degree=1)
    assert report.passed
    assert report.max_residual < 1e-9


def test_overlay_witness_is_minimal(overlay_case):
    net, cert = overlay_case
    w = sorted(cert.witness)
    for drop in range(len(w)):
        rest = [e for i, e in enumerate(w) if i != drop]
        # no balanced sub-subset survives dropping any single edge
        assert not any(
            subset_is_balanced(net, subset)
            for subset in _nonempty_subsets(rest)
        )


def _nonempty_subsets(edges):
    out = []
    m = len(edges)
    for mask in range(1, 1 << m):
        out.append([edges[i] for i in range(m) if mask & (1 << i)])
    return out


@pytest.mark.parametrize("name, nodes", [("paper", 193), ("overlay", 256), ("x", 6)])
def test_search_node_budget_boundary(request, monkeypatch, name, nodes):
    # every propagation step and every branch costs one node
    net = planarized_x_net() if name == "x" else request.getfixturevalue(f"{name}_net")
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", nodes)
    find_proper_subnet(net)
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", nodes - 1)
    with pytest.raises(SearchBudgetExceeded, match=f"exceeded {nodes - 1} search nodes"):
        find_proper_subnet(net)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 276 edges; the search branches hundreds of times from one seed
    net = tripod_overlay(6, 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        cert = find_proper_subnet(net)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(cert, Reducible)
    assert len(cert.witness) == 16
    assert verify(edge_subnet(net, cert.witness), min_balanced_degree=1).passed


def test_search_rechecks_a_vertex_whose_last_free_edges_a_branch_decides():
    # Hand-built tables on 7 edges. Only v2 holds edge 0, and it needs a
    # second edge with it; a branch at v0 decides v2's other edges.
    tables = {
        "v0": (0b0011010, [0, 0b10, 0b11000, 0b11010]),
        "v1": (0b1100100, [0, 0b1100100]),
        "v2": (0b0011011, [0, 3, 9, 10, 17, 18, 24, 27]),
    }
    ctx = object.__new__(irreducible._Ctx)
    vars(ctx).update(
        edges=[("e", str(i)) for i in range(7)],
        full=(1 << 7) - 1,
        balanced=list(tables),
        inc_bits={vid: inc for vid, (inc, _) in tables.items()},
        masks={vid: masks for vid, (_, masks) in tables.items()},
        vertices_of={i: [v for v, (inc, _) in tables.items() if inc >> i & 1] for i in range(7)},
        nodes_left=1000,
    )
    found = irreducible._first_subnet(ctx, 0, None)
    assert found is not None and 0 < found < ctx.full
    for vid, (inc, masks) in tables.items():
        assert found & inc in masks, vid


def test_minimize_shrinks_a_first_subnet_that_is_not_minimal():
    # Seed edge 0 forces edges 1 and 2 in at v0, but {1, 2} alone is
    # balanced there too; v1 only holds edge 3 and admits none of it.
    tables = {"v0": (0b0111, [0, 0b0110, 0b0111]), "v1": (0b1000, [0])}
    ctx = object.__new__(irreducible._Ctx)
    vars(ctx).update(
        edges=[("e", str(i)) for i in range(4)],
        full=(1 << 4) - 1,
        balanced=list(tables),
        inc_bits={vid: inc for vid, (inc, _) in tables.items()},
        masks={vid: masks for vid, (_, masks) in tables.items()},
        vertices_of={i: [v for v, (inc, _) in tables.items() if inc >> i & 1] for i in range(4)},
        nodes_left=1000,
    )
    first = irreducible._first_subnet(ctx, 0, None)
    assert first == 0b0111
    assert irreducible._minimize(ctx, first) == 0b0110


@pytest.mark.parametrize("k", [3, 4, 6, 12])
def test_chord_arrangement_witness_is_one_whole_chord(k):
    # Generic chords meet in pairs, so every subnet is a union of whole
    # chords and every minimal one is a single chord.
    for seed in range(30):
        net, chords = chord_arrangement(k, seed)
        if not verify(net).passed:
            continue
        cert = find_proper_subnet(net)
        assert isinstance(cert, Reducible), seed
        assert cert.witness in {edges_on_segment(net, p, q) for p, q in chords}, seed
        if len(net.edges) <= 16:
            assert cert.witness in enumerate_proper_subnets(net), seed


def test_exhaustive_agreement_on_tiny_nets(tripod_net, double_tripod_net):
    for net in (tripod_net, double_tripod_net, planarized_x_net()):
        valid = enumerate_proper_subnets(net)
        flag, cert = is_irreducible(net)
        assert flag == (len(valid) == 0)
        if not flag:
            assert frozenset(cert.witness) in valid


def test_quarter_turn_rotation_preserves_the_verdict(paper_net, paper_cert):
    # relabel ids and rotate positions a quarter turn; verdict is unchanged
    from geonets import rotate

    rotated = Net(
        vertices=[
            Vertex(v.id, rotate(v.pos, 1), v.kind, v.label) for v in paper_net.vertices
        ],
        edges=paper_net.edges,
    )
    flag, cert = is_irreducible(rotated)
    assert flag
    assert isinstance(paper_cert, Irreducible)
