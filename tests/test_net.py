import copy
import dataclasses
import json
import math
import pickle
import random
import re

import numpy as np
import pytest

from geonets import (
    InvariantViolation,
    IsolatedVertex,
    Net,
    OverlayEdges,
    Point,
    UnknownVertex,
    Vertex,
    balance_residual,
    edge_key,
    edge_subnet,
    find_proper_subnet,
    is_symmetric_under_quarter_turn,
    moved,
    parse,
    planarize,
    relabeled,
    relax,
    render_svg,
    serialize,
    verify,
)
from geonets import net as net_module
from geonets.net import CoincidentVertices
from geonets.solver import total_length

from helpers import B, U, honeycomb, random_net, run_python, tripod_overlay, vertex


def x_net() -> Net:
    """Two crossing diagonals of a square, not yet planarized."""
    return Net(
        vertices=(
            vertex("p1", -1, -1),
            vertex("p2", 1, -1),
            vertex("p3", 1, 1),
            vertex("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )


def test_edge_key_sorts():
    assert edge_key("b", "a") == ("a", "b")
    assert edge_key("a", "b") == ("a", "b")


def test_net_sorts_vertices_and_edges():
    net = Net(
        vertices=(vertex("z", 0, 0), vertex("a", 1, 0)),
        edges=(("z", "a"),),
    )
    assert [v.id for v in net.vertices] == ["a", "z"]
    assert net.edges == (("a", "z"),)


def _document(vertices, edges) -> str:
    """The net document of vertices and edges, rows in the given order."""
    rows = [{"id": v.id, "x": v.pos.x, "y": v.pos.y, "kind": v.kind.value} for v in vertices]
    return json.dumps({"format_version": 1, "vertices": rows, "edges": [list(e) for e in edges]})


def _refused(vertices, edges, error=InvariantViolation):
    """What Net(vertices, edges) raises, once parse of their document has
    raised the same class with the same message: parse hands its columns
    to Net's checks without building Vertex values."""
    with pytest.raises(error) as by_net:
        Net(vertices=vertices, edges=edges)
    with pytest.raises(error) as by_parse:
        parse(_document(vertices, edges))
    assert (type(by_parse.value), str(by_parse.value)) == (type(by_net.value), str(by_net.value))
    return by_net.value


def test_net_invariants():
    _refused((vertex("a", 0, 0), vertex("a", 1, 0)), ())
    _refused((vertex("a", 0, 0),), (("a", "ghost"),))
    _refused((vertex("a", 0, 0), vertex("b", 1, 0)), (("a", "a"),))
    _refused((vertex("a", 0, 0), vertex("b", 1, 0)), (("a", "b"), ("b", "a")))
    _refused((vertex("a", 0, 0), vertex("b", 0, 1e-12)), ())


@pytest.mark.parametrize(
    "vertices,message",
    [
        pytest.param([Vertex(7, Point(0.0, 0.0), U)], "vertex id 7 is not a non-empty string", id="int-id"),
        pytest.param([Vertex("", Point(0.0, 0.0), U)], "vertex id '' is not a non-empty string", id="empty-id"),
        pytest.param([vertex("a", 0, 0, label=7)], "vertex a: label 7 is not a string", id="int-label"),
        pytest.param([Vertex("a", Point(0.0, 0.0), "balanced")],
                     "vertex a: kind 'balanced' is not a VertexKind", id="str-kind"),
        pytest.param([Vertex("a", (0.0, 0.0), U)], r"vertex a: pos \(0.0, 0.0\) is not a Point", id="tuple-pos"),
        pytest.param([vertex("a", 0, 0), Vertex(1, Point(1.0, 0.0), U), vertex("b", 2, 0)],
                     "vertex id 1 is not a non-empty string", id="mixed-ids"),
    ],
)
def test_net_refuses_a_vertex_no_document_can_hold(vertices, message):
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        Net(vertices=vertices, edges=())


@pytest.mark.parametrize("row", [("a", ["b"]), 7, ("a",), ("a", "b", "c"), "ab"],
                         ids=["list-endpoint", "int", "one-id", "three-ids", "two-char-str"])
def test_net_refuses_an_edge_row_that_is_not_a_pair(row):
    message = re.escape(f"edge row {row!r} is not a pair of vertex ids")
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        Net(vertices=(vertex("a", 0, 0), vertex("b", 1, 0), vertex("c", 2, 0)), edges=[("a", "c"), row])
    # parse refuses such a row itself, so the column path is called directly
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        Net._from_columns(
            ["a", "b", "c"], [False] * 3, [None] * 3, [(0, 0), (1, 0), (2, 0)], [("a", "c"), row]
        )


def test_net_names_the_smallest_duplicate():
    verts = [vertex("c", 0, 0), vertex("a", 1, 0), vertex("c", 2, 0), vertex("b", 3, 0), vertex("a", 4, 0)]
    assert str(_refused(verts, ())) == "duplicate vertex id: a"
    verts = [vertex("a", 0, 0), vertex("b", 1, 0), vertex("c", 2, 0), vertex("d", 3, 0)]
    edges = [("d", "c"), ("b", "a"), ("c", "d"), ("a", "b")]
    assert str(_refused(verts, edges)) == "duplicate edge: ('a', 'b')"


@pytest.mark.parametrize(
    "edges,message",
    [
        pytest.param([("a", "ghost"), ("b", "b")], "edge endpoint ghost is not a vertex", id="unknown-then-loop"),
        pytest.param([("b", "b"), ("a", "ghost")], "self-loop edge at b", id="loop-then-unknown"),
        pytest.param([("ghost", "ghost")], "self-loop edge at ghost", id="loop-at-unknown"),
        pytest.param([("a", "b"), ("b", "a"), ("c", "ghost")], "edge endpoint ghost is not a vertex",
                     id="duplicate-then-unknown"),
        pytest.param([("b", "c"), ("c", "b"), ("a", "b"), ("b", "a")], "duplicate edge: ('a', 'b')",
                     id="two-duplicates"),
        pytest.param([("c", "a"), ("a", "c")], "duplicate edge: ('a', 'c')", id="reversed-first"),
    ],
)
def test_net_names_the_first_faulty_edge_row(edges, message):
    # a row's own fault is named for the first such row in input order,
    # before any duplicate; a duplicate is named as its canonical pair
    verts = [vertex("a", 0, 0), vertex("b", 1, 0), vertex("c", 2, 0)]
    assert str(_refused(verts, edges)) == message


def test_net_names_a_row_that_is_not_a_pair_before_a_later_duplicate():
    # parse refuses such a row as a ParseError of its own, so Net and the
    # column path are compared
    edges = [("a", "b"), ("a", "b", "c"), ("b", "a")]
    message = "edge row ('a', 'b', 'c') is not a pair of vertex ids"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        Net(vertices=(vertex("a", 0, 0), vertex("b", 1, 0), vertex("c", 2, 0)), edges=edges)
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        Net._from_columns(["a", "b", "c"], [False] * 3, [None] * 3, [(0, 0), (1, 0), (2, 0)], edges)


def test_net_names_the_first_coincident_pair():
    # a-d and b-c both coincide; the pair with the smaller first id is named
    verts = [vertex("a", 0, 0), vertex("b", 5, 0), vertex("c", 5, 1e-12), vertex("d", 1e-12, 0)]
    error = _refused(verts, (), CoincidentVertices)
    assert str(error).startswith("vertices a and d coincide")
    assert error.ids == ("a", "d")


def test_net_lookups():
    net = x_net()
    assert net.vertex("p1").pos == Point(-1, -1)
    with pytest.raises(UnknownVertex):
        net.vertex("nope")
    assert net.degree("p1") == 1
    assert net.incident_edges("p1") == (("p1", "p3"),)
    assert net.adjacency["p1"] == ("p3",)


def test_pickled_and_copied_nets_keep_read_only_columns(paper_net):
    for twin in (pickle.loads(pickle.dumps(paper_net)), copy.deepcopy(paper_net), copy.copy(paper_net)):
        assert twin == paper_net and hash(twin) == hash(paper_net)
        for column in (twin.pos, twin.balanced, twin.ends):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]


def test_columns_are_read_only_and_every_entry_point_agrees(paper_net, overlay_net):
    net = Net(
        vertices=(vertex("b", 3, 4), vertex("a", 0, 0, B, "A"), vertex("c", 0, 2, B)),
        edges=(("b", "a"), ("a", "c")),
    )
    assert "vertices" not in vars(net)
    assert net.vertices is net.vertices
    assert net.ids == ("a", "b", "c")
    assert net.index == {"a": 0, "b": 1, "c": 2}
    assert net.balanced.tolist() == [True, False, True]
    assert net.labels == ("A", None, None)
    assert net.pos.dtype == np.float64 and net.ends.dtype == np.int64
    assert net.pos.tolist() == [[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]]
    assert [tuple(net.ids[k] for k in row) for row in net.ends.tolist()] == list(net.edges)
    assert net.edge_index == {("a", "b"): 0, ("a", "c"): 1}
    assert net.free.tolist() == [0, 2]
    for arr in (net.pos, net.balanced, net.ends, net.free, net.residuals):
        with pytest.raises(ValueError):
            arr[0] = 0
    for name in ("pos", "edges"):
        with pytest.raises(AttributeError):
            setattr(net, name, getattr(net, name))

    # Net() takes Vertex values; the others hand columns to its checks
    for n in (paper_net, overlay_net, honeycomb(8, 6), tripod_overlay(6, 0)):
        vid = n.ids[len(n.ids) // 2]
        same = [parse(serialize(n)), relabeled(n, {}), edge_subnet(n, n.edges),
                moved(n, vid, n.vertex(vid).pos)]
        assert all(other == n and hash(other) == hash(n) for other in same)
        assert (n == object()) is False
        assert repr(n) == f"Net(vertices={n.vertices!r}, edges={n.edges!r})"

    zero = Net((vertex("a", 0.0, 1), vertex("b", 1, 0.0)), (("a", "b"),))
    signed = Net((vertex("a", -0.0, 1), vertex("b", 1, -0.0)), (("a", "b"),))
    assert zero.pos.tobytes() != signed.pos.tobytes()
    assert zero == signed and hash(zero) == hash(signed)


def test_columns_of_empty_net():
    net = Net(vertices=(), edges=())
    assert net.pos.shape == (0, 2) and net.ends.shape == (0, 2) and net.balanced.shape == (0,)
    assert parse(serialize(net)) == net


def test_degrees_are_a_read_only_column_of_edge_counts(paper_net, overlay_net, tripod_net):
    for net in (paper_net, overlay_net, tripod_net, honeycomb(8, 6), tripod_overlay(6, 0)):
        degrees = net._degrees
        assert degrees.tolist() == [len(net.adjacency[vid]) for vid in net.ids]
        assert [net.degree(vid) for vid in net.ids] == degrees.tolist()
        with pytest.raises(ValueError):
            degrees[0] = 0
    net = x_net()
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field '_degrees'"):
        net._degrees = np.zeros(4, dtype=np.int64)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'pos'"):
        del net.pos


def test_verify_relax_and_the_search_read_degrees_without_the_adjacency(paper_net, tripod_net):
    paper = parse(serialize(paper_net))
    assert verify(paper).passed
    find_proper_subnet(paper)
    bent = parse(serialize(moved(tripod_net, "f", Point(2.0, 2.0))))
    assert relax(bent).converged
    for net in (paper, bent):
        for vid in net.ids:
            balance_residual(net, vid)
        assert "adjacency" not in vars(net)


def _same_net(derived, checked):
    assert derived == checked and hash(derived) == hash(checked)
    assert serialize(derived) == serialize(checked)
    assert derived.index == checked.index and derived.ends.tolist() == checked.ends.tolist()
    for column in (derived.pos, derived.balanced, derived.ends):
        assert not column.flags.writeable


def test_derived_nets_equal_the_checked_nets_of_their_columns(paper_net, overlay_net, tripod_net):
    # relax, moved and edge_subnet share or renumber a checked net's
    # topology instead of checking it again
    for net in (paper_net, overlay_net, tripod_net, honeycomb(8, 6), tripod_overlay(6, 0)):
        k = int(net.free[len(net.free) // 2])
        xy = net.pos.copy()
        xy[k] += (1e-6, -1e-6)
        bent = moved(net, net.ids[k], Point(*xy[k].tolist()))
        _same_net(bent, Net._from_columns(net.ids, net.balanced, net.labels, xy, net.edges))
        relaxed = relax(bent, max_iter=2).net
        _same_net(relaxed, Net._from_columns(net.ids, net.balanced, net.labels, relaxed.pos, net.edges))
        picked = net.edges[1::3]
        rows = sorted({net.index[vid] for e in picked for vid in e})
        _same_net(edge_subnet(net, picked), Net._from_columns(
            [net.ids[r] for r in rows], net.balanced[rows], [net.labels[r] for r in rows],
            net.pos[rows], picked,
        ))
        assert edge_subnet(net, net.edges) == net
        assert edge_subnet(net, ()) == Net((), ())


def test_a_derived_net_refuses_coincident_vertices(paper_net):
    near = paper_net.vertex("b1").pos
    for onto in (Point(near.x + 1e-10, near.y), near):
        with pytest.raises(CoincidentVertices) as info:
            moved(paper_net, "a1", onto)
        assert info.value.ids == ("a1", "b1")


def test_a_derived_net_at_its_own_positions_skips_the_coincidence_check(monkeypatch, paper_net):
    # positions equal to a checked net's passed the check already
    honey = honeycomb(20, 16)
    calls = []
    real = net_module._close_pairs
    monkeypatch.setattr(net_module, "_close_pairs", lambda *args: calls.append(1) or real(*args))
    result = relax(honey, max_iter=0)
    assert (result.iterations, result.net) == (0, honey)
    same = moved(paper_net, "a1", paper_net.vertex("a1").pos)
    assert same == paper_net and same.pos is not paper_net.pos and not same.pos.flags.writeable
    assert calls == []
    moved(paper_net, "a1", Point(0.5, 0.5))
    assert calls == [1]


def test_edges_is_a_view_over_ends_built_on_first_read(paper_net, overlay_net, tripod_net):
    for net in (paper_net, overlay_net, tripod_net, honeycomb(8, 6), tripod_overlay(6, 0)):
        fresh = parse(serialize(net))
        assert "edges" not in vars(fresh)
        assert fresh.edges == tuple((net.ids[a], net.ids[b]) for a, b in net.ends.tolist())
        assert fresh.edges is fresh.edges and fresh.edges == net.edges
    # verify's findings, relax, serialize and render_svg read ends
    for start in (x_net(), paper_net, moved(tripod_net, "f", Point(2.0, 2.0))):
        net = parse(serialize(start))
        verify(net)
        relaxed = relax(net).net
        for n in (net, relaxed):
            serialize(n)
            render_svg(n)
            assert "edges" not in vars(n)


def test_segment_pairs_yield_meeting_pairs_in_order():
    from geonets.geom import ProperCrossing
    from geonets.net import _segment_pairs

    # r-s crosses both diagonals; p1-p3 and p3-q meet only at p3, which
    # is left out
    net = Net(
        vertices=x_net().vertices + (vertex("q", 5, 5), vertex("r", -2, 0.5), vertex("s", 2, 0.5)),
        edges=x_net().edges + (("p3", "q"), ("s", "r")),
    )
    pairs = list(_segment_pairs(net))
    assert [(e1, e2) for e1, e2, _ in pairs] == [
        (("p1", "p3"), ("p2", "p4")),
        (("p1", "p3"), ("r", "s")),
        (("p2", "p4"), ("r", "s")),
    ]
    assert all(isinstance(k, ProperCrossing) for _, _, k in pairs)


def _chain(a, m, b):
    """Pins a and b joined through the balanced vertex m."""
    return Net(
        vertices=(vertex("a", *a), vertex("m", *m, B), vertex("b", *b)),
        edges=(("a", "m"), ("b", "m")),
    )


def test_verify_passes_a_near_straight_pass_through_vertex():
    # the two edges at m point 4.8e-11 rad from opposite; the parametric
    # solve alone places a crossing beside m
    net = _chain(
        (0.604953830660671, -1.284991387387063),
        (-1.7220696043492536, -1.2263327616528947),
        (-2.0858168420759293, -1.2171635746137197),
    )
    report = verify(net, min_balanced_degree=1)
    assert report.max_residual < 1e-10
    assert report.unplanarized_crossings == []
    assert report.passed
    assert planarize(net) is net


def test_bent_pass_through_chains_meet_only_at_their_vertex():
    rng = random.Random(0)
    for _ in range(300):
        mx, my = rng.uniform(-3, 3), rng.uniform(-3, 3)
        turn, bend = rng.uniform(0, 2 * math.pi), rng.uniform(-1e-9, 1e-9)
        la, lb = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
        net = _chain(
            (mx + la * math.cos(turn), my + la * math.sin(turn)),
            (mx, my),
            (mx - lb * math.cos(turn + bend), my - lb * math.sin(turn + bend)),
        )
        report = verify(net, min_balanced_degree=1)
        assert report.unplanarized_crossings == [] and report.overlay_findings == [], net


def test_verify_passes_a_chord_through_a_tripod_overlay_crossing():
    # Cut from a planarized overlay of Fermat tripods on 8 jittered pins:
    # the chord f-x771-x527 passes straight through the crossing vertex
    # x771, and an id-blind pair test put a crossing beside it.
    h = float.fromhex
    net = Net(
        vertices=(
            vertex("x771", h("-0x1.293236679af2bp+2"), h("-0x1.7be2744695b58p-4"), B),
            vertex("f", h("-0x1.293351e499188p+2"), h("-0x1.7afcd04973813p-4")),
            vertex("p4", h("-0x1.3fffcaaeab9dcp+2"), h("-0x1.717323417f8a2p-7")),
            vertex("x527", h("-0x1.291d40ab22aa0p+2"), h("-0x1.8cdcfc7c221d0p-4")),
            vertex("x774", h("-0x1.0b1636e8963dbp+2"), h("-0x1.9a4142e226b10p-3")),
        ),
        edges=[("x771", w) for w in ("f", "p4", "x527", "x774")],
    )
    report = verify(net)
    assert report.unplanarized_crossings == [] and report.overlay_findings == []
    assert report.max_residual < 1e-11
    assert report.passed
    assert planarize(net) is net


def test_edges_leaving_a_vertex_in_one_direction_overlap():
    # c lies on a-b, so a-b and a-c share a and overlap from a to c
    net = Net(
        vertices=(vertex("a", 0, 0), vertex("b", 2, 0), vertex("c", 1, 0)),
        edges=(("a", "b"), ("a", "c")),
    )
    assert [(e1, e2) for e1, e2, _ in verify(net).overlay_findings] == [(("a", "b"), ("a", "c"))]
    with pytest.raises(OverlayEdges):
        planarize(net)


def test_balance_residual_degree_one_is_unit():
    net = Net(
        vertices=(vertex("a", 0, 0, B), vertex("b", 3, 4)),
        edges=(("a", "b"),),
    )
    rx, ry = balance_residual(net, "a")
    assert math.hypot(rx, ry) == pytest.approx(1.0, abs=1e-15)
    assert (rx, ry) == pytest.approx((0.6, 0.8))


def test_balance_residual_straight_through_vertex_is_zero():
    net = Net(
        vertices=(vertex("a", -2, 0), vertex("m", 0, 0, B), vertex("b", 2, 0)),
        edges=(("a", "m"), ("m", "b")),
    )
    rx, ry = balance_residual(net, "m")
    assert math.hypot(rx, ry) == 0.0


def test_balance_residual_isolated_vertex_raises():
    net = Net(vertices=(vertex("a", 0, 0, B), vertex("b", 1, 0), vertex("c", 2, 0)), edges=(("b", "c"),))
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
    assert report.connected is True  # a Python bool, which json can write
    assert not report.degree_violations
    assert not report.overlay_findings
    assert not report.unplanarized_crossings
    assert not report.unbalanced_to_unbalanced_edges
    assert set(report.residuals) == {
        v.id for v in paper_net.vertices if v.kind is B
    }


def test_verify_flags_low_degree_balanced_vertex():
    net = Net(
        vertices=(vertex("a", -2, 0), vertex("m", 0, 0, B), vertex("b", 2, 0)),
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


def test_verify_lists_the_edges_between_two_pins_in_edge_order():
    # random_net draws each vertex's kind at random
    rng = random.Random(19)
    found = 0
    for _ in range(100):
        net = random_net(rng)
        expected = [e for e in net.edges if all(net.by_id[v].kind is U for v in e)]
        assert verify(net).unbalanced_to_unbalanced_edges == expected
        found += len(expected)
    assert found > 50


def test_verify_flags_unplanarized_crossing():
    report = verify(x_net())
    assert len(report.unplanarized_crossings) == 1
    _, _, pt = report.unplanarized_crossings[0]
    assert (pt.x, pt.y) == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_verify_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        verify(x_net(), tol)


@pytest.mark.parametrize("value", ["3", None, 2.5, True, -1], ids=["str", "none", "float", "bool", "negative"])
def test_verify_rejects_a_bad_min_balanced_degree(value):
    message = re.escape(f"min_balanced_degree must be an integer >= 0, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify(x_net(), min_balanced_degree=value)


def test_verify_flags_disconnected():
    net = Net(
        vertices=(vertex("a", 0, 0), vertex("b", 1, 0), vertex("c", 5, 5), vertex("d", 6, 5)),
        edges=(("a", "b"), ("c", "d")),
    )
    assert verify(net).connected is False


def test_verify_flags_collinear_overlay():
    net = Net(
        vertices=(vertex("a", 0, 0), vertex("b", 4, 0), vertex("c", 1, 0), vertex("d", 3, 0)),
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
        vertices=(vertex("a", 0, 0), vertex("b", 1, 0), vertex("c", 0, 1)),
        edges=(("a", "b"), ("a", "c")),
    )
    assert planarize(clean) is clean


def test_planarize_splits_edge_at_existing_vertex():
    # endpoint of one edge lands inside another; no new vertex is minted
    net = Net(
        vertices=(vertex("a", -2, 0), vertex("b", 2, 0), vertex("t", 0, 0.0 + 3), vertex("m", 0, 0, B)),
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
            vertex("a", -1, -1),
            vertex("b", 1, 1),
            vertex("c", -1, 1),
            vertex("d", 1, -1),
            vertex("m", 0, 0, B),
            vertex("w", 0, 3),
        ),
        edges=(("a", "b"), ("c", "d"), ("m", "w")),
    )
    out = planarize(net)
    assert {v.id for v in out.vertices} == {"a", "b", "c", "d", "m", "w"}
    assert out.degree("m") == 5
    assert len(out.edges) == 5


def test_planarize_cuts_no_edge_at_a_vertex_in_both_end_bands():
    # a-b and c-d cross at the origin, just past PARAM_EPS along each from
    # a and from c. The crossing lands on w, within COINCIDENCE_EPS of it,
    # and w projects just inside both edges' end bands, so neither edge
    # is cut and the net comes back as it was.
    d, e = 1e-6 + 2e-10, 5e-10
    net = Net(
        vertices=(
            vertex("a", -d, 0),
            vertex("b", 1000 - d, 0),
            vertex("c", 0, -d),
            vertex("d", 0, 1000 - d),
            vertex("w", -e, -e, B),
        ),
        edges=(("a", "b"), ("c", "d")),
    )
    assert [(e1, e2) for e1, e2, _ in verify(net).unplanarized_crossings] == [(("a", "b"), ("c", "d"))]
    assert planarize(net) is net


def test_planarize_merges_crossings_within_coincidence_eps():
    # e is lifted by 4e-10, so the three pairwise crossings lie within
    # 2e-10 of each other: one minted vertex takes all three lines
    net = Net(
        vertices=(
            vertex("a", -1, 0),
            vertex("b", 1, 0),
            vertex("c", -1, 1),
            vertex("d", 1, -1),
            vertex("e", -1, -1 + 4e-10),
            vertex("f", 1, 1),
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
            vertex("a", -1, 0),
            vertex("b", 1, 0),
            vertex("c", -1, 1),
            vertex("d", 1, -1),
            vertex("e", -1, -1),
            vertex("f", 1, 1),
        ),
        edges=(("a", "b"), ("c", "d"), ("e", "f")),
    )
    out = planarize(net)
    minted = [v for v in out.vertices if v.id.startswith("x")]
    assert len(minted) == 1
    assert out.degree(minted[0].id) == 6


def test_planarize_rejects_collinear_overlap():
    net = Net(
        vertices=(vertex("a", 0, 0), vertex("b", 4, 0), vertex("c", 1, 0), vertex("d", 3, 0)),
        edges=(("a", "b"), ("c", "d")),
    )
    with pytest.raises(OverlayEdges):
        planarize(net)


def test_planarize_rejects_two_edges_cut_into_the_same_piece():
    # Three lines meet pairwise within 1.2e-9: the first two contacts mint
    # x1 and x2, the third lands on x1, and a1-a2 and c1-c2 are each cut
    # at both, so both would give the edge x1-x2.
    net = Net(
        vertices=(
            vertex("a1", -2, 0),
            vertex("a2", 2, 0),
            vertex("b1", -2, -1 / 3),
            vertex("b2", 2, 1 / 3),
            vertex("c1", -2, (2 + 1.2e-9) / 6),
            vertex("c2", 2, -(2 - 1.2e-9) / 6),
        ),
        edges=(("a1", "a2"), ("b1", "b2"), ("c1", "c2")),
    )
    with pytest.raises(OverlayEdges) as err:
        planarize(net)
    msg = str(err.value)
    assert "('a1', 'a2')" in msg and "('c1', 'c2')" in msg and "('x1', 'x2')" in msg


def test_planarize_skips_taken_ids():
    net = Net(
        vertices=(
            vertex("x1", -1, -1),
            vertex("p2", 1, -1),
            vertex("p3", 1, 1),
            vertex("p4", -1, 1),
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
            vertex("p1", -1, -1),
            vertex("p2", 1, -1),
            vertex("p3", 1, 1.1),
            vertex("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )
    assert not is_symmetric_under_quarter_turn(skew)


def test_quarter_turn_symmetry_checks_kind():
    net = Net(
        vertices=(
            vertex("p1", -1, -1, B),
            vertex("p2", 1, -1),
            vertex("p3", 1, 1),
            vertex("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )
    assert not is_symmetric_under_quarter_turn(net)


def test_quarter_turn_symmetry_needs_exactly_one_vertex_within_tol():
    net = planarize(x_net())
    assert is_symmetric_under_quarter_turn(net, 1.0)
    # each pin turns onto the next pin, but the centre is within 1.5 too
    assert not is_symmetric_under_quarter_turn(net, 1.5)
    # each turned pin has one pin within tol, but two turn onto one: p1
    # and p2 onto p2, and p0 and the lone p3 onto p1, which maps the
    # triangle's edges onto themselves
    path = Net((vertex("p1", -0.2, 1), vertex("p2", -0.2, 0), vertex("p3", 1.2, 0.8)),
               (("p1", "p2"), ("p2", "p3")))
    assert not is_symmetric_under_quarter_turn(path, 1.0)
    pins = [vertex(f"p{i}", x, y) for i, (x, y) in enumerate([(0.3, -1), (1.1, 0.5), (-0.9, 0.7), (0.8, -1.2)])]
    triangle = Net(pins, (("p0", "p1"), ("p0", "p2"), ("p1", "p2")))
    assert not is_symmetric_under_quarter_turn(triangle, 1.2)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_quarter_turn_symmetry_rejects_a_bad_tolerance(paper_net, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        is_symmetric_under_quarter_turn(paper_net, tol)


def test_relabeled():
    net = Net(
        vertices=(vertex("a", 0, 0, U, "alpha"), vertex("b", 1, 0)),
        edges=(("a", "b"),),
    )
    out = relabeled(net, {"a": "z"})
    assert {v.id for v in out.vertices} == {"b", "z"}
    assert out.edges == (("b", "z"),)
    assert out.vertex("z").label == "alpha"
    assert out.vertex("z").pos == Point(0, 0)
    with pytest.raises(InvariantViolation, match="^vertex id 7 is not a non-empty string$"):
        relabeled(net, {"b": 7})


def _found_pairs(findings, mapping):
    """The edge pairs of verify findings, each id renamed through mapping."""
    return {frozenset(edge_key(*(mapping.get(v, v) for v in e)) for e in (e1, e2))
            for e1, e2, _ in findings}


def test_verify_finds_the_same_overlay_after_relabeling():
    # Two nearly collinear segments that overlap by 6.8e-9 at b and c:
    # c and d lie 0.9987e-9 and 1.0015e-9 off a-b's line, a and b 0.9937e-9
    # and 0.9987e-9 off c-d's. Renaming a <-> c and b <-> d hands intersect
    # the two edges in the other order, which must not change what verify
    # finds.
    net = Net([
        vertex("a", 0.23707926858757444, 2.7306701216512437), vertex("b", 5.832855283650639, 3.1064604959203135),
        vertex("c", 5.832855276845726, 3.1064604964643037), vertex("d", 8.841741629565497, 3.3085255050695843),
    ], [("a", "b"), ("c", "d")])
    swap = {"a": "c", "c": "a", "b": "d", "d": "b"}
    report, swapped = verify(net), verify(relabeled(net, swap))
    assert _found_pairs(report.overlay_findings, {}) == _found_pairs(swapped.overlay_findings, swap)
    assert _found_pairs(report.unplanarized_crossings, {}) == _found_pairs(swapped.unplanarized_crossings, swap)


def test_edge_subnet():
    net = planarize(x_net())
    sub = edge_subnet(net, [edge_key("p1", "x1"), edge_key("p3", "x1")])
    assert {v.id for v in sub.vertices} == {"p1", "p3", "x1"}
    assert len(sub.edges) == 2
    with pytest.raises(ValueError):
        edge_subnet(net, [("p1", "p2")])


def test_edge_subnet_names_the_first_absent_edge_under_any_hash_seed():
    # string hashing is salted per process, so a set of the rows would
    # name a different absent edge from one run to the next
    script = (
        "from geonets import build_paper_net, edge_subnet\n"
        "try:\n"
        "    edge_subnet(build_paper_net(), [('a1', 'b1'), ('a1', 'zz'), ('b1', 'qq'), ('c1', 'c2')])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    for seed in ("0", "1", "2"):
        done = run_python(["-c", script], PYTHONHASHSEED=seed)
        assert (done.returncode, done.stdout) == (0, "edge ('a1', 'zz') is not in the parent net\n"), done.stderr


@pytest.mark.parametrize("row", ["ab", ("a", "b", "c"), ("a", ["b"]), ("f", 1), (1, "f")],
                         ids=["two-char-str", "three-ids", "list-endpoint", "str-int", "int-str"])
def test_edge_subnet_refuses_a_row_that_is_not_a_pair(row):
    # as Net does: "ab" is not read as the edge a-b
    net = Net(vertices=[vertex(vid, k, k % 2) for k, vid in enumerate("abcd")],
              edges=[("a", "b"), ("b", "c"), ("c", "d")])
    message = re.escape(f"edge row {row!r} is not a pair of vertex ids")
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        edge_subnet(net, [("c", "d"), row])
    assert edge_subnet(net, [("b", "a")]).edges == (("a", "b"),)


def test_total_edge_length():
    net = Net(
        vertices=(vertex("a", 0, 0), vertex("b", 3, 4), vertex("c", 3, 0)),
        edges=(("a", "b"), ("b", "c")),
    )
    assert total_length(net) == pytest.approx(9.0)
