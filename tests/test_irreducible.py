import math

import pytest

from geonets import (
    DegreeTooLarge,
    Irreducible,
    Net,
    Point,
    Reducible,
    Vertex,
    VertexKind,
    balanced_edge_subsets,
    edge_key,
    edge_subnet,
    find_proper_subnet,
    is_irreducible,
    planarize,
    verify,
)

from helpers import (
    brute_force_balanced_subsets,
    enumerate_proper_subnets,
    subset_is_balanced,
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


@pytest.mark.parametrize(
    "drift, message",
    [
        (5e-9, r"2 edge subsets have residual between tol and 10\*tol"),
        (5e-10, r"a balanced subset has residual above tol/10"),
    ],
)
def test_tolerance_sensitive_subsets_warn(drift, message):
    # e and w are opposite up to `drift`; n and s are exactly opposite
    net = Net(
        vertices=(
            _v("c", 0, 0, B), _v("e", 1, 0), _v("w", -1, drift), _v("n", 0, 1), _v("s", 0, -1),
        ),
        edges=(("c", "e"), ("c", "w"), ("c", "n"), ("c", "s")),
    )
    with pytest.warns(UserWarning, match=message) as record:
        subs = balanced_edge_subsets(net, "c", tol=1e-9)
    assert len(record) == 1
    ew = frozenset({("c", "e"), ("c", "w")})
    ns = frozenset({("c", "n"), ("c", "s")})
    expected = {frozenset(), ns} if drift > 1e-9 else {frozenset(), ew, ns, ew | ns}
    assert {frozenset(sub) for sub in subs} == expected


def test_subsets_at_crossing_of_two_chords():
    net = planarized_x_net()
    subs = balanced_edge_subsets(net, "x1")
    assert len(subs) == 4
    assert sorted(len(s) for s in subs) == [0, 2, 2, 4]


def test_subsets_reject_unbalanced_vertex(paper_net):
    with pytest.raises(ValueError):
        balanced_edge_subsets(paper_net, "c1")


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


def test_overlay_certificate(overlay_cert, overlay_net):
    assert isinstance(overlay_cert, Reducible)
    w = overlay_cert.witness
    assert 0 < len(w) < len(overlay_net.edges)
    sub = edge_subnet(overlay_net, w)
    report = verify(sub, min_balanced_degree=1)
    assert report.passed
    assert report.max_residual < 1e-9


def test_overlay_witness_is_minimal(overlay_cert, overlay_net):
    w = sorted(overlay_cert.witness)
    for drop in range(len(w)):
        rest = [e for i, e in enumerate(w) if i != drop]
        # no balanced sub-subset survives dropping any single edge
        assert not any(
            subset_is_balanced(overlay_net, subset)
            for subset in _nonempty_subsets(rest)
        )


def _nonempty_subsets(edges):
    out = []
    m = len(edges)
    for mask in range(1, 1 << m):
        out.append([edges[i] for i in range(m) if mask & (1 << i)])
    return out


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
