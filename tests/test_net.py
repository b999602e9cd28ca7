import math

import pytest

from geonets import (
    InvariantViolation,
    IsolatedVertex,
    Net,
    OverlayEdges,
    Point,
    UnknownVertex,
    Vertex,
    VertexKind,
    balance_residual,
    edge_key,
    edge_subnet,
    is_symmetric_under_quarter_turn,
    planarize,
    relabeled,
    verify,
)
from geonets.solver import total_length

B = VertexKind.BALANCED
U = VertexKind.UNBALANCED


def _v(vid, x, y, kind=U, label=None):
    return Vertex(vid, Point(x, y), kind, label)


def x_net() -> Net:
    """Two crossing diagonals of a square, not yet planarized."""
    return Net(
        vertices=(
            _v("p1", -1, -1),
            _v("p2", 1, -1),
            _v("p3", 1, 1),
            _v("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )


def test_edge_key_sorts():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")


def test_net_sorts_vertices_and_edges():
    net = Net(
        vertices=(_v("z", 0, 0), _v("a", 1, 0)),
        edges=(("z", "a"),),
    )
    assert [v.id for v in net.vertices] == ["a", "z"]
    assert net.edges == (("a", "z"),)


def test_net_invariants():
    with pytest.raises(InvariantViolation):
        Net(vertices=(_v("a", 0, 0), _v("a", 1, 0)), edges=())
    with pytest.raises(InvariantViolation):
        Net(vertices=(_v("a", 0, 0),), edges=(("a", "ghost"),))
    with pytest.raises(InvariantViolation):
        Net(vertices=(_v("a", 0, 0), _v("b", 1, 0)), edges=(("a", "a"),))
    with pytest.raises(InvariantViolation):
        Net(
            vertices=(_v("a", 0, 0), _v("b", 1, 0)),
            edges=(("a", "b"), ("b", "a")),
        )
    with pytest.raises(InvariantViolation):
        Net(vertices=(_v("a", 0, 0), _v("b", 0, 1e-12)), edges=())


def test_net_names_the_smallest_duplicate():
    verts = [_v("c", 0, 0), _v("a", 1, 0), _v("c", 2, 0), _v("b", 3, 0), _v("a", 4, 0)]
    with pytest.raises(InvariantViolation, match="^duplicate vertex id: a$"):
        Net(vertices=verts, edges=())
    verts = [_v("a", 0, 0), _v("b", 1, 0), _v("c", 2, 0), _v("d", 3, 0)]
    edges = [("d", "c"), ("b", "a"), ("c", "d"), ("a", "b")]
    with pytest.raises(InvariantViolation, match=r"^duplicate edge: \('a', 'b'\)$"):
        Net(vertices=verts, edges=edges)


def test_net_lookups():
    net = x_net()
    assert net.vertex("p1").pos == Point(-1, -1)
    with pytest.raises(UnknownVertex):
        net.vertex("nope")
    assert net.degree("p1") == 1
    assert net.incident_edges("p1") == (("p1", "p3"),)
    assert net.adjacency["p1"] == ("p3",)


def test_arrays_view_is_lazy_cached_and_read_only():
    net = Net(
        vertices=(_v("b", 3, 4), _v("a", 0, 0, B), _v("c", 0, 2, B)),
        edges=(("b", "a"), ("a", "c")),
    )
    assert "arrays" not in net.__dict__
    a = net.arrays
    assert net.arrays is a
    assert a.ids == ("a", "b", "c")
    assert a.index == {"a": 0, "b": 1, "c": 2}
    assert a.pos.tolist() == [[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]]
    assert [tuple(a.ids[k] for k in row) for row in a.edges.tolist()] == list(net.edges)
    assert a.edge_index == {("a", "b"): 0, ("a", "c"): 1}
    assert a.free.tolist() == [0, 2]
    assert a.units.ravel().tolist() == pytest.approx([0.6, 0.8, 0.0, 1.0])
    for arr in (a.pos, a.edges, a.free, a.units, a.residuals):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_arrays_view_of_empty_net():
    a = Net(vertices=(), edges=()).arrays
    assert a.pos.shape == (0, 2) and a.edges.shape == (0, 2) and a.units.shape == (0, 2)


def test_segment_pairs_yield_meeting_pairs_in_order():
    from geonets.geom import AtSharedEndpoint, Disjoint, ProperCrossing
    from geonets.net import _segment_pairs

    net = Net(
        vertices=x_net().vertices + (_v("q", 5, 5),),
        edges=x_net().edges + (("p3", "q"),),
    )
    pairs = list(_segment_pairs(net))
    assert [(e1, e2) for e1, e2, _ in pairs] == [
        (("p1", "p3"), ("p2", "p4")),
        (("p1", "p3"), ("p3", "q")),
    ]
    assert isinstance(pairs[0][2], ProperCrossing)
    assert isinstance(pairs[1][2], AtSharedEndpoint)
    assert not any(isinstance(k, Disjoint) for _, _, k in pairs)


def test_balance_residual_degree_one_is_unit():
    net = Net(
        vertices=(_v("a", 0, 0, B), _v("b", 3, 4)),
        edges=(("a", "b"),),
    )
    rx, ry = balance_residual(net, "a")
    assert math.hypot(rx, ry) == pytest.approx(1.0, abs=1e-15)
    assert (rx, ry) == pytest.approx((0.6, 0.8))


def test_balance_residual_straight_through_vertex_is_zero():
    net = Net(
        vertices=(_v("a", -2, 0), _v("m", 0, 0, B), _v("b", 2, 0)),
        edges=(("a", "m"), ("m", "b")),
    )
    rx, ry = balance_residual(net, "m")
    assert math.hypot(rx, ry) == 0.0


def test_balance_residual_isolated_vertex_raises():
    net = Net(vertices=(_v("a", 0, 0, B), _v("b", 1, 0), _v("c", 2, 0)), edges=(("b", "c"),))
    with pytest.raises(IsolatedVertex):
        balance_residual(net, "a")
    with pytest.raises(UnknownVertex):
        balance_residual(net, "zz")


def test_balance_residual_matches_unit_vector_loop(paper_net, overlay_net):
    from geonets import unit_vector

    # Sums of at most 6 unit vectors, added in another order: a few ulp.
    for net in (paper_net, overlay_net):
        for v in net.vertices:
            sx = sy = 0.0
            for w in net.adjacency[v.id]:
                u = unit_vector(v.pos, net.vertex(w).pos)
                sx += u.dx
                sy += u.dy
            assert balance_residual(net, v.id) == pytest.approx((sx, sy), rel=0.0, abs=1e-14)


def test_removing_one_edge_leaves_unit_residual(paper_net):
    e = paper_net.edges[0]
    rest = [k for k in paper_net.edges if k != e]
    cut = edge_subnet(paper_net, rest)
    bumped = [
        vid
        for vid in e
        if paper_net.vertex(vid).kind is B
    ]
    assert bumped
    for vid in bumped:
        rx, ry = balance_residual(cut, vid)
        # residual jumps by exactly one unit vector
        assert math.hypot(rx, ry) == pytest.approx(1.0, abs=1e-12)


def test_verify_passes_on_paper_net(paper_net):
    report = verify(paper_net)
    assert report.passed
    assert report.max_residual < 1e-9
    assert report.connected
    assert not report.degree_violations
    assert not report.overlay_findings
    assert not report.unplanarized_crossings
    assert not report.unbalanced_to_unbalanced_edges
    assert set(report.residuals) == {
        v.id for v in paper_net.vertices if v.kind is B
    }


def test_verify_flags_low_degree_balanced_vertex():
    net = Net(
        vertices=(_v("a", -2, 0), _v("m", 0, 0, B), _v("b", 2, 0)),
        edges=(("a", "m"), ("m", "b")),
    )
    report = verify(net)
    assert ("m", 2) in report.degree_violations
    assert not report.passed
    # subnet rule: degree >= 1 is enough
    assert verify(net, min_balanced_degree=1).passed


def test_verify_flags_unbalanced_unbalanced_edge():
    report = verify(x_net())
    assert len(report.unbalanced_to_unbalanced_edges) == 2
    assert not report.passed


def test_verify_flags_unplanarized_crossing():
    report = verify(x_net())
    assert len(report.unplanarized_crossings) == 1
    _, _, pt = report.unplanarized_crossings[0]
    assert (pt.x, pt.y) == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_verify_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        verify(x_net(), tol)


def test_verify_flags_disconnected():
    net = Net(
        vertices=(_v("a", 0, 0), _v("b", 1, 0), _v("c", 5, 5), _v("d", 6, 5)),
        edges=(("a", "b"), ("c", "d")),
    )
    assert not verify(net).connected


def test_verify_flags_collinear_overlay():
    net = Net(
        vertices=(_v("a", 0, 0), _v("b", 4, 0), _v("c", 1, 0), _v("d", 3, 0)),
        edges=(("a", "b"), ("c", "d")),
    )
    assert verify(net).overlay_findings


def test_planarize_x_crossing():
    out = planarize(x_net())
    assert len(out.vertices) == 5
    assert len(out.edges) == 4
    minted = out.vertex("x1")
    assert minted.kind is B
    assert (minted.pos.x, minted.pos.y) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert out.degree("x1") == 4
    report = verify(out)
    assert report.passed


def test_planarize_is_idempotent_and_identity_on_clean_nets():
    out = planarize(x_net())
    assert planarize(out) is out
    clean = Net(
        vertices=(_v("a", 0, 0), _v("b", 1, 0), _v("c", 0, 1)),
        edges=(("a", "b"), ("a", "c")),
    )
    assert planarize(clean) is clean


def test_planarize_splits_edge_at_existing_vertex():
    # endpoint of one edge lands inside another; no new vertex is minted
    net = Net(
        vertices=(_v("a", -2, 0), _v("b", 2, 0), _v("t", 0, 0.0 + 3), _v("m", 0, 0, B)),
        edges=(("a", "b"), ("m", "t")),
    )
    out = planarize(net)
    assert {v.id for v in out.vertices} == {"a", "b", "t", "m"}
    assert edge_key("a", "m") in out.edges
    assert edge_key("b", "m") in out.edges
    assert edge_key("a", "b") not in out.edges
    assert out.vertex("m").kind is B


def test_planarize_crossing_at_an_existing_vertex_mints_nothing():
    # a-b and c-d cross exactly at m, which also ends the edge m-w
    net = Net(
        vertices=(
            _v("a", -1, -1),
            _v("b", 1, 1),
            _v("c", -1, 1),
            _v("d", 1, -1),
            _v("m", 0, 0, B),
            _v("w", 0, 3),
        ),
        edges=(("a", "b"), ("c", "d"), ("m", "w")),
    )
    out = planarize(net)
    assert {v.id for v in out.vertices} == {"a", "b", "c", "d", "m", "w"}
    assert out.degree("m") == 5
    assert len(out.edges) == 5


def test_planarize_merges_crossings_within_coincidence_eps():
    # e is lifted by 4e-10, so the three pairwise crossings lie within
    # 2e-10 of each other: one minted vertex takes all three lines
    net = Net(
        vertices=(
            _v("a", -1, 0),
            _v("b", 1, 0),
            _v("c", -1, 1),
            _v("d", 1, -1),
            _v("e", -1, -1 + 4e-10),
            _v("f", 1, 1),
        ),
        edges=(("a", "b"), ("c", "d"), ("e", "f")),
    )
    out = planarize(net)
    assert [v.id for v in out.vertices if v.id.startswith("x")] == ["x1"]
    assert out.degree("x1") == 6


def test_planarize_returns_the_fixtures_unchanged(paper_net, overlay_net):
    assert planarize(paper_net) is paper_net
    assert planarize(overlay_net) is overlay_net


def test_planarize_merges_nearby_crossings():
    # three lines through one point give one minted vertex
    net = Net(
        vertices=(
            _v("a", -1, 0),
            _v("b", 1, 0),
            _v("c", -1, 1),
            _v("d", 1, -1),
            _v("e", -1, -1),
            _v("f", 1, 1),
        ),
        edges=(("a", "b"), ("c", "d"), ("e", "f")),
    )
    out = planarize(net)
    minted = [v for v in out.vertices if v.id.startswith("x")]
    assert len(minted) == 1
    assert out.degree(minted[0].id) == 6


def test_planarize_rejects_collinear_overlap():
    net = Net(
        vertices=(_v("a", 0, 0), _v("b", 4, 0), _v("c", 1, 0), _v("d", 3, 0)),
        edges=(("a", "b"), ("c", "d")),
    )
    with pytest.raises(OverlayEdges):
        planarize(net)


def test_planarize_skips_taken_ids():
    net = Net(
        vertices=(
            _v("x1", -1, -1),
            _v("p2", 1, -1),
            _v("p3", 1, 1),
            _v("p4", -1, 1),
        ),
        edges=(("x1", "p3"), ("p2", "p4")),
    )
    out = planarize(net)
    assert "x2" in out.by_id
    assert out.vertex("x2").kind is B


def test_quarter_turn_symmetry(paper_net):
    assert is_symmetric_under_quarter_turn(paper_net)
    assert is_symmetric_under_quarter_turn(planarize(x_net()))
    # symmetry breaks when one vertex moves
    skew = Net(
        vertices=(
            _v("p1", -1, -1),
            _v("p2", 1, -1),
            _v("p3", 1, 1.1),
            _v("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )
    assert not is_symmetric_under_quarter_turn(skew)


def test_quarter_turn_symmetry_checks_kind():
    net = Net(
        vertices=(
            _v("p1", -1, -1, B),
            _v("p2", 1, -1),
            _v("p3", 1, 1),
            _v("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )
    assert not is_symmetric_under_quarter_turn(net)


def test_relabeled():
    net = Net(
        vertices=(_v("a", 0, 0, U, "alpha"), _v("b", 1, 0)),
        edges=(("a", "b"),),
    )
    out = relabeled(net, {"a": "z"})
    assert {v.id for v in out.vertices} == {"b", "z"}
    assert out.edges == (("b", "z"),)
    assert out.vertex("z").label == "alpha"
    assert out.vertex("z").pos == Point(0, 0)


def test_edge_subnet():
    net = planarize(x_net())
    sub = edge_subnet(net, [edge_key("p1", "x1"), edge_key("p3", "x1")])
    assert {v.id for v in sub.vertices} == {"p1", "p3", "x1"}
    assert len(sub.edges) == 2
    with pytest.raises(ValueError):
        edge_subnet(net, [("p1", "p2")])


def test_total_edge_length():
    net = Net(
        vertices=(_v("a", 0, 0), _v("b", 3, 4), _v("c", 3, 0)),
        edges=(("a", "b"), ("b", "c")),
    )
    assert total_length(net) == pytest.approx(9.0)
