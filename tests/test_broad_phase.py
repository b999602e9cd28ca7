"""The sort-and-sweep broad phase against all-pairs oracles.

_segment_pairs and _close_pairs look up candidates through one box index,
and Net's coincidence check, planarize's landing and the quarter-turn test
take their point pairs from _close_pairs; these tests hold each to the
answer of testing every pair. The segment-pair oracle runs the numpy
stage of the classifier over every pair of edges and intersect on each
pair it leaves open, so a pair the broad phase drops shows as a
difference; more tests sit at each band of the classifier.
"""

import hashlib
import math
import random

import numpy as np
import pytest

import geonets.geom
import geonets.net
from geonets import (
    Net,
    OverlayEdges,
    Point,
    Segment,
    Vertex,
    build_overlay_net,
    build_paper_net,
    edge_subnet,
    planarize,
    relax,
    serialize,
    verify,
)
from geonets.geom import (
    _PARALLEL_EPS,
    COINCIDENCE_EPS,
    PARAM_EPS,
    AtSharedEndpoint,
    CollinearOverlap,
    Disjoint,
    distance,
    intersect,
)
from geonets.net import CoincidentVertices, _box_pairs, _close_pairs, _segment_pairs

from helpers import (
    B,
    U,
    all_segment_pairs,
    chord_arrangement,
    edge_segment,
    first_coincident_pair,
    honeycomb,
    perturbed,
    pinned_paper16,
    random_net,
    raw_tripod_overlay,
    tripod_overlay,
)


def _net(segments):
    """A net of the given segments, each its own pair of pins."""
    verts, edges = [], []
    for k, (p, q) in enumerate(segments):
        verts += [Vertex(f"s{k:02d}a", Point(*p), U), Vertex(f"s{k:02d}b", Point(*q), U)]
        edges.append((f"s{k:02d}a", f"s{k:02d}b"))
    return Net(verts, edges)


def _turned(segments, angle):
    c, s = math.cos(angle), math.sin(angle)
    return [tuple((c * x - s * y, s * x + c * y) for x, y in seg) for seg in segments]


def _assert_matches_oracle(net):
    assert list(_segment_pairs(net)) == all_segment_pairs(net)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_segment_pairs_match_the_oracle_on_raw_tripod_overlays(n):
    for s in range(5):
        _assert_matches_oracle(raw_tripod_overlay(n, s))


# The planarized 7- and 8-pin overlays have about 260k and 2M edge pairs,
# seconds for the oracle; they are compared on the edges within `reach` of
# the centre, where the crossings are densest (about 60k and 100k pairs).
@pytest.mark.parametrize("n,reach", [(6, math.inf), (7, 2.5), (8, 2.0)])
def test_segment_pairs_match_the_oracle_on_planarized_tripod_overlays(n, reach):
    for s in range(5):
        net = tripod_overlay(n, s)
        pos = net.by_id
        central = [e for e in net.edges
                   if all(abs(pos[u].pos.x) <= reach and abs(pos[u].pos.y) <= reach for u in e)]
        assert len(central) > 200
        _assert_matches_oracle(edge_subnet(net, central))


@pytest.mark.parametrize("k", [6, 12, 24])
def test_segment_pairs_match_the_oracle_on_chord_arrangements(k):
    for s in range(5):
        net, chords = chord_arrangement(k, s)
        _assert_matches_oracle(net)
        _assert_matches_oracle(_net([((p.x, p.y), (q.x, q.y)) for p, q in chords]))


def test_segment_pairs_match_the_oracle_on_random_nets():
    rng = random.Random(11)
    for _ in range(50):
        _assert_matches_oracle(random_net(rng))


@pytest.mark.parametrize("angle", [0.0, 0.3, 2.0, -1.1])
@pytest.mark.parametrize("factor,meets", [(0.5, True), (0.9, True), (1.1, False), (3.0, False)])
def test_an_endpoint_about_param_eps_past_the_other_end(angle, factor, meets):
    # s01 starts on the line of s00, factor * PARAM_EPS * length past its
    # end; s03 crosses the line of s02 just as far past its end.
    length = 5.0
    d = factor * PARAM_EPS * length
    net = _net(_turned([
        ((0.0, 0.0), (length, 0.0)),
        ((length + d, 0.0), (length + d, 1.0)),
        ((0.0, 3.0), (length, 3.0)),
        ((length + d, 2.0), (length + d, 4.0)),
    ], angle))
    pairs = list(_segment_pairs(net))
    assert pairs == all_segment_pairs(net)
    # s00 and s01 meet end to end, which _segment_pairs leaves out
    kind = intersect(edge_segment(net, ("s00a", "s00b")), edge_segment(net, ("s01a", "s01b")))
    assert isinstance(kind, AtSharedEndpoint if meets else Disjoint)
    expected = [(("s02a", "s02b"), ("s03a", "s03b"))]
    assert [(e1, e2) for e1, e2, _ in pairs] == (expected if meets else [])


@pytest.mark.parametrize("angle", [0.0, math.pi / 2, 0.7])
@pytest.mark.parametrize("factor,meets", [(0.5, True), (0.99, True), (1.01, False), (2.0, False)])
def test_parallel_segments_about_coincidence_eps_apart(angle, factor, meets):
    off = factor * COINCIDENCE_EPS
    net = _net(_turned([((0.0, 0.0), (2.0, 0.0)), ((1.0, off), (3.0, off))], angle))
    pairs = list(_segment_pairs(net))
    assert pairs == all_segment_pairs(net)
    assert len(pairs) == (1 if meets else 0)


@pytest.mark.parametrize("factor,meets", [(0.5, True), (0.99, True), (1.01, False)])
def test_short_parallel_segments_about_coincidence_eps_apart(factor, meets):
    # PARAM_EPS * length pads these boxes by 2e-10 only; COINCIDENCE_EPS
    # in the pad is what keeps the pair.
    off = factor * COINCIDENCE_EPS
    net = _net([((0.0, 0.0), (0.2, 0.0)), ((0.1, off), (0.3, off))])
    pairs = list(_segment_pairs(net))
    assert pairs == all_segment_pairs(net)
    assert len(pairs) == (1 if meets else 0)


def test_axis_aligned_segments_with_zero_width_boxes():
    net = _net([
        ((0.0, 0.0), (4.0, 0.0)),  # horizontal
        ((2.0, -1.0), (2.0, 1.0)),  # crosses it
        ((4.0, -1.0), (4.0, 1.0)),  # its end on the interior
        ((1.0, 0.0 + 2e-9), (1.0, 1.0)),  # ends just above it
        ((1.0, 2.0), (1.0, 3.0)),  # same x as the last, apart
        ((3.0, -1.0), (3.0, -1e-9 / 2)),  # ends within the band below it
        ((0.0, 5.0), (4.0, 5.0)),  # parallel, far
        ((5.0, 0.0), (6.0, 0.0)),  # collinear, apart
    ])
    pairs = list(_segment_pairs(net))
    assert pairs == all_segment_pairs(net)
    assert len(pairs) == 3


def test_boxes_with_equal_low_x_tie_in_the_sort():
    # Every segment starts at x = 0; the pairs must still come in id order.
    net = _net([
        ((0.0, 1.0), (3.0, -2.0)),
        ((0.0, -1.0), (3.0, 2.0)),
        ((0.0, 0.5), (0.0, -0.5)),
        ((0.0, 3.0), (2.0, 3.0)),
        ((0.0, 2.5), (1.0, -2.5)),
        ((0.0, 10.0), (1.0, 10.0)),
    ])
    _assert_matches_oracle(net)
    assert len(all_segment_pairs(net)) == 3


def _overlapping_boxes(boxes):
    """The oracle: every pair (i, j), i < j, of closed boxes (x0, y0, x1, y1)
    that meet, tested pair by pair."""
    return [(i, j) for i, (a0, b0, a1, b1) in enumerate(boxes) for j, (c0, d0, c1, d1) in enumerate(boxes)
            if i < j and a0 <= c1 and c0 <= a1 and b0 <= d1 and d0 <= b1]


def _random_boxes(rng, n):
    boxes = []
    for _ in range(n):
        x, y = rng.choice([0.0, 1.0, rng.uniform(0, 4)]), rng.uniform(0, 4)
        w, h = rng.choice([0.0, 0.5, rng.random()]), rng.choice([0.0, 1.0, rng.random()])
        boxes.append((x, y, x + w, y + h))
    return boxes


@pytest.mark.parametrize(
    "boxes",
    [
        pytest.param([], id="none"),
        pytest.param([(0.0, 0.0, 1.0, 1.0)], id="one"),
        pytest.param([(0.0, 0.0, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0)], id="two-overlapping"),
        pytest.param([(2.0, 0.0, 3.0, 1.0), (0.0, 0.0, 1.0, 1.0)], id="two-apart-in-x"),
        pytest.param([(0.0, 0.0, 1.0, 1.0), (0.5, 2.0, 1.5, 3.0)], id="two-apart-in-y"),
        # no x window holds a box: the sweep ends before the y test
        pytest.param([(4.0, 0.0, 5.0, 9.0), (0.0, 0.0, 1.0, 9.0), (2.0, 0.0, 3.0, 9.0),
                      (6.0, 0.0, 6.0, 0.0)], id="x-windows-empty"),
        pytest.param([(0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0), (2.0, 0.0, 3.0, 1.0),
                      (1.0, 2.0, 1.0, 3.0)], id="touching"),
        pytest.param([(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 2.0),
                      (0.0, 1.0, 2.0, 1.0), (1.0, 1.5, 1.0, 1.5)], id="zero-width"),
        pytest.param([(0.0, 3.0, 1.0, 4.0), (0.0, 0.0, 2.0, 1.0), (0.0, 0.5, 0.0, 3.5),
                      (0.0, 5.0, 3.0, 6.0), (0.0, -1.0, 0.5, 0.0)], id="equal-low-x"),
    ]
    + [pytest.param(_random_boxes(random.Random(n), n), id=f"random-{n}") for n in (3, 20, 60)],
)
def test_box_pairs_match_the_oracle(boxes):
    lo = np.array([b[:2] for b in boxes], dtype=np.float64).reshape(-1, 2)
    hi = np.array([b[2:] for b in boxes], dtype=np.float64).reshape(-1, 2)
    i, j = _box_pairs(lo, hi)
    assert i.dtype.kind == j.dtype.kind == "i"
    assert list(zip(i.tolist(), j.tolist())) == _overlapping_boxes(boxes)
    # an answer, empty too, indexes edge rows as _segment_pairs does
    ends = np.arange(2 * max(len(boxes), 1)).reshape(-1, 2)
    assert ends[i].T.shape == (2, len(i))
    assert ends[j].shape == (len(j), 2)


def _clustered_points(rng, radius):
    """Three clusters of points spread over about radius, one of them near
    (1e6, -1e6), with exact duplicates and pairs exactly radius apart along
    an axis."""
    pts = []
    for cx, cy in [(0.0, 0.0), (rng.uniform(-3, 3), rng.uniform(-3, 3)), (1e6 + rng.random(), -1e6)]:
        for _ in range(12):
            spread = radius * rng.choice([0.5, 1.0, 2.0]) + rng.choice([0.0, 1e-12])
            pts.append(Point(cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread)))
    pts += [rng.choice(pts) for _ in range(6)]
    for _ in range(6):
        t = rng.randint(-8, 8) / 8
        pts += [Point(0.0, t), Point(radius, t), Point(t, 0.0), Point(t, -radius)]
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("radius", [0.0, COINCIDENCE_EPS, 1e-6, 1.0])
def test_close_pairs_match_all_pairs(radius):
    rng = random.Random(11)
    boundary = 0
    for _ in range(20):
        pts = _clustered_points(rng, radius)
        expected = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                    if distance(pts[i], pts[j]) <= radius]
        xy = np.array([(p.x, p.y) for p in pts])
        assert list(_close_pairs(xy, radius)) == expected
        boundary += sum(distance(pts[i], pts[j]) == radius for i, j in expected)
    assert boundary >= 20


def _planted(rng, t):
    """Random vertices, some on shared x lines far apart in y, with three
    planted near-coincident partners at distances around COINCIDENCE_EPS."""
    verts = [
        Vertex(f"v{i:02d}", Point(rng.choice([0.0, 1.0, rng.uniform(0, 2)]), rng.uniform(0, 2)), B)
        for i in range(30)
    ]
    for k in range(3):
        p = rng.choice(verts).pos
        d = COINCIDENCE_EPS * rng.choice([0.5, 0.999, 1.0, 1.001, 2.0])
        a = rng.uniform(0, 2 * math.pi)
        verts.append(Vertex(f"w{t}_{k}", Point(p.x + d * math.cos(a), p.y + d * math.sin(a)), B))
    rng.shuffle(verts)
    return verts


def test_net_names_the_same_coincident_pair_as_the_oracle():
    rng = random.Random(5)
    raised = 0
    for t in range(300):
        verts = _planted(rng, t)
        expected = first_coincident_pair(verts)
        if expected is None:
            Net(verts, [])
            continue
        raised += 1
        with pytest.raises(CoincidentVertices) as info:
            Net(verts, [])
        assert info.value.ids == expected
    assert 50 < raised < 300


def test_net_accepts_vertices_with_equal_x_far_apart_in_y():
    verts = [Vertex(f"v{k}", Point(1.0, 3e-9 * k), B) for k in range(50)]
    assert len(Net(verts, []).vertices) == 50
    with pytest.raises(CoincidentVertices) as info:
        Net(verts + [Vertex("w", Point(1.0, 3e-9 * 7 + 0.5e-9), B)], [])
    assert info.value.ids == ("v7", "w")


def test_a_contact_lands_on_the_first_net_vertex_in_id_order():
    # m and n are 1.2e-9 apart, the crossing within 0.6e-9 of both; n
    # comes first in x order, m in id order.
    net = Net([
        Vertex("a", Point(-1, -1), U), Vertex("b", Point(1, 1), U),
        Vertex("c", Point(-1, 1), U), Vertex("d", Point(1, -1), U),
        Vertex("m", Point(0.6e-9, 0.0), B), Vertex("n", Point(-0.6e-9, 0.0), B),
    ], [("a", "b"), ("c", "d")])
    out = planarize(net)
    assert [v.id for v in out.vertices] == ["a", "b", "c", "d", "m", "n"]
    assert out.degree("m") == 4 and out.degree("n") == 0


def test_a_contact_lands_on_a_net_vertex_before_a_minted_one():
    # a and b cross at (0, 0), minted as x1. a and c cross at (0.8e-9, 0),
    # within COINCIDENCE_EPS of x1 and of the net vertex m, so it lands on
    # m. b and c cross 8e-7 away, at x2.
    slope = 1.001
    net = Net([
        Vertex("a1", Point(-2, 0), U), Vertex("a2", Point(2, 0), U),
        Vertex("b1", Point(-2, -2), U), Vertex("b2", Point(2, 2), U),
        Vertex("c1", Point(-2, slope * (-2 - 0.8e-9)), U),
        Vertex("c2", Point(2, slope * (2 - 0.8e-9)), U),
        Vertex("m", Point(1.6e-9, 0.0), B),
    ], [("a1", "a2"), ("b1", "b2"), ("c1", "c2")])
    out = planarize(net)
    assert [v.id for v in out.vertices if v.id.startswith("x")] == ["x1", "x2"]
    assert out.adjacency["m"] == ("a2", "c1", "x1", "x2")
    assert out.adjacency["x1"] == ("a1", "b1", "m", "x2")


# sha256 of serialize(tripod_overlay(n, s)) as a scan of every vertex gave
# them: they pin the vertex each contact lands on and the minted ids.
OVERLAY_SHA256 = {
    (6, 0): "e5bf71661172aed7def66c3c3bc41267212a2a8e1a4606d29c078c9d46ef1e1d",
    (6, 1): "ca1163b8271600751258ffb22cc6b0660c7231feccef3bc7560e638177c9da3f",
    (6, 2): "7bb6bf6c7e31b912d718c2890bc574f97426c5bdeddc431a6d01d5c836219a4b",
    (7, 0): "39e3273c7d856ef67d450429e0ce594997bf6bb0e3f5d6d7dc204504f3eedd7b",
    (7, 1): "51da031341ae1d7b45a1d747271d6b9aedd8731e23b40154d1d3add876c53142",
    (7, 2): "cb64f262a4162a7557cbd2db1c07c0ca48df7c72ef14395b4d0e38f7996f9df2",
    (8, 0): "94e45e300945c8e1b6560225ba2beaff012ffddee744c15a4aa373e8fca7ebd0",
    (8, 1): "c576d716e1c1d5d5340459376a8eeb392566eab6d750cf637b61af991d6fa945",
    (8, 2): "3f7b56a15a22dc2d143e9f9ccfba350c5ec97a72cdcd0f015781782fd4c78e6c",
}


@pytest.mark.parametrize("n,s", sorted(OVERLAY_SHA256))
def test_planarized_tripod_overlay_is_pinned(n, s):
    text = serialize(tripod_overlay(n, s))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == OVERLAY_SHA256[n, s]


def test_verify_decides_only_the_pairs_that_meet_on_a_honeycomb(monkeypatch):
    calls = []
    real = geonets.net.intersect

    def counted(s1, s2):
        calls.append(1)
        return real(s1, s2)

    monkeypatch.setattr(geonets.net, "intersect", counted)
    assert verify(honeycomb(8, 6)).passed
    assert calls == []
    # on a raw overlay intersect sees the real crossings and nothing else
    raw = raw_tripod_overlay(8, 0)
    crossings = all_segment_pairs(raw)
    del calls[:]
    assert len(verify(raw).unplanarized_crossings) == len(crossings) > 900
    assert len(calls) == len(crossings)


def test_planarize_takes_its_pairs_from_one_segment_pairs_pass(monkeypatch):
    passes = []
    real = geonets.net._segment_pairs

    def counted(net):
        passes.append(net)
        return real(net)

    monkeypatch.setattr(geonets.net, "_segment_pairs", counted)
    raw = raw_tripod_overlay(7, 0)
    out = planarize(raw)
    assert passes == [raw]
    assert verify(out).passed


def _count_first_stage(monkeypatch):
    """Wrap each half of the first stage, in geom and as net imports it,
    to record (rows, left open) for each call on arrays; returns the
    records by half."""
    calls = {"_legs_overlap": [], "_apart": []}

    def counted(name, real):
        def half(*args):
            out = real(*args)
            left = out if name == "_legs_overlap" else out[0]
            if isinstance(left, np.ndarray):
                calls[name].append((len(left), np.count_nonzero(left)))
            return out
        return half

    for name in calls:
        wrapped = counted(name, getattr(geonets.geom, name))
        monkeypatch.setattr(geonets.geom, name, wrapped)
        monkeypatch.setattr(geonets.net, name, wrapped)
    return calls


@pytest.mark.parametrize("make, reported", [
    pytest.param(lambda: perturbed(build_paper_net(), 0, 0.014), 2, id="jittered-paper16"),
    pytest.param(lambda: raw_tripod_overlay(7, 0), 319, id="raw-tripod-overlay-7"),
])
def test_segment_pairs_classify_each_open_pair_once_on_floats(monkeypatch, make, reported):
    # each half of the first stage runs on arrays at most once, and only
    # intersect runs _classify, on floats, once for each pair the halves
    # leave open
    real, on_floats = geonets.geom._classify, []

    def counted(*ends):
        assert not isinstance(ends[0][0], np.ndarray)
        on_floats.append(ends)
        return real(*ends)

    net = make()
    calls = _count_first_stage(monkeypatch)
    monkeypatch.setattr(geonets.geom, "_classify", counted)
    pairs = list(_segment_pairs(net))
    assert len(calls["_legs_overlap"]) == 1 and len(calls["_apart"]) <= 1
    left = sum(n for half in calls.values() for _, n in half)
    assert len(on_floats) == left >= len(pairs) == reported


@pytest.mark.parametrize("angle", [0.0, 0.3, -2.5])
def test_segment_pairs_settle_a_clean_honeycomb_by_end_rows(monkeypatch, angle):
    # every box candidate on a honeycomb is a pair of edges at a common
    # vertex: the common-end half receives each of them, the apart half
    # none, and no pair is left open
    net = _turned_net(honeycomb(20, 16), angle)
    calls, boxes = _count_first_stage(monkeypatch), []
    real = geonets.net._box_pairs

    def box_pairs(lo, hi):
        out = real(lo, hi)
        boxes.append(len(out[0]))
        return out

    monkeypatch.setattr(geonets.net, "_box_pairs", box_pairs)
    assert list(_segment_pairs(net)) == []
    assert boxes == [826]
    assert calls["_legs_overlap"] == [(826, 0)]
    assert sum(rows for rows, _ in calls["_apart"]) == 0


def _turned_net(net, angle):
    c, s = math.cos(angle), math.sin(angle)
    return Net([Vertex(v.id, Point(c * v.pos.x - s * v.pos.y, s * v.pos.x + c * v.pos.y), v.kind, v.label)
                for v in net.vertices], net.edges)


def _chord_nets():
    for k in (6, 12, 24):
        for s in range(3):
            net, chords = chord_arrangement(k, s)
            yield net
            yield _net([((p.x, p.y), (q.x, q.y)) for p, q in chords])


_TURNS = (0.0, 0.1, math.pi / 6, 1.0, -2.5)


def _segment_pair_corpus():
    yield build_paper_net()
    yield build_overlay_net()
    for s in range(5):
        yield perturbed(build_paper_net(), s, 0.014)
    for a in _TURNS:
        yield _turned_net(honeycomb(8, 6), a)
    for n in (6, 7, 8):
        for s in range(2):
            yield raw_tripod_overlay(n, s)
            yield tripod_overlay(n, s)
    yield from _chord_nets()
    for s in range(20):
        yield random_net(random.Random(s))


# sha256 over the corpus above of _segment_pairs, the verify findings and
# serialize(planarize(net)), or the class and message of what planarize
# raised: it pins every segment-pair answer that verify and planarize see.
SEGMENT_PAIR_CORPUS_SHA256 = "8e021571fa6128b487ad1208fefffa60af2705aa44c56814c64ce3db754b8f6a"


def test_segment_pair_corpus_is_pinned():
    digest = hashlib.sha256()
    for net in _segment_pair_corpus():
        report = verify(net)
        lines = [repr(list(_segment_pairs(net))), repr(report.overlay_findings),
                 repr(report.unplanarized_crossings)]
        try:
            lines.append(serialize(planarize(net)))
        except Exception as exc:  # noqa: BLE001 - the exception is part of the answer
            lines.append(f"{type(exc).__name__}: {exc}")
        digest.update("\n".join(lines).encode("utf-8"))
    assert digest.hexdigest() == SEGMENT_PAIR_CORPUS_SHA256


@pytest.mark.parametrize("family", [
    pytest.param(lambda: [random_net(random.Random(s)) for s in range(60)], id="random"),
    pytest.param(lambda: list(_chord_nets()), id="chords"),
    pytest.param(lambda: [make(n, s) for make in (raw_tripod_overlay, tripod_overlay)
                          for n in (6, 7, 8) for s in range(2)], id="tripod-overlays"),
    pytest.param(lambda: [_turned_net(honeycomb(8, 6), a) for a in _TURNS],
                 id="honeycombs"),
    pytest.param(lambda: [build_paper_net(), build_overlay_net()], id="fixtures"),
    pytest.param(lambda: [relax(pinned_paper16(s, a)).net for s in range(3) for a in (0.01, 0.05)],
                 id="relaxed-pinned-paper16"),
])
def test_segment_pairs_match_the_batched_oracle(family):
    for net in family():
        _assert_matches_oracle(net)


def _assert_callers_follow_intersect(net):
    """verify reports, and planarize acts on, exactly the pairs that
    intersect reports."""
    reported = all_segment_pairs(net)
    overlays = [(e1, e2, k) for e1, e2, k in reported if isinstance(k, CollinearOverlap)]
    contacts = [(e1, e2, k.point) for e1, e2, k in reported if not isinstance(k, CollinearOverlap)]
    report = verify(net)
    assert report.overlay_findings == overlays
    assert report.unplanarized_crossings == contacts
    if overlays:
        with pytest.raises(OverlayEdges):
            planarize(net)
    elif not contacts:
        assert planarize(net) is net
    else:
        planarize(net)
    return reported


# The id of the common vertex w among the ids a < m < z of the net's three
# vertices, by where w falls in the first stage's p-q, r-s: edges are
# (min, max) row pairs in lexicographic order, so in a net the first edge
# of a pair never ends where the second begins (p = s). intersect is also
# asked with each segment either way round, which gives all four.
_COMMON_END = {"a": "p=r", "m": "q=r", "z": "q=s"}


@pytest.mark.parametrize("hub", list(_COMMON_END), ids=list(_COMMON_END.values()))
@pytest.mark.parametrize("angle", [0.0, 0.7, -2.0])
@pytest.mark.parametrize("short_first", [True, False])
@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0, 3.0])
def test_legs_from_one_vertex_about_coincidence_eps_from_one_line(factor, short_first, angle, hub):
    # Legs of length 1 and 2 leave w at an angle whose |cross| is factor *
    # COINCIDENCE_EPS * 2; below factor 1 intersect calls them an overlay.
    # short_first puts the shorter leg at the lower of the other two ids.
    gap = math.asin(factor * COINCIDENCE_EPS)
    legs = [(1.0, angle), (2.0, angle + gap)]
    if not short_first:
        legs.reverse()
    far = sorted({"a", "m", "z"} - {hub})
    net = Net(
        [Vertex(hub, Point(0.0, 0.0), U)]
        + [Vertex(v, Point(r * math.cos(a), r * math.sin(a)), U) for v, (r, a) in zip(far, legs)],
        [(far[0], hub), (far[1], hub)],
    )
    e1, e2 = net.edges
    assert f"{'pq'[e1.index(hub)]}={'rs'[e2.index(hub)]}" == _COMMON_END[hub]
    s1, s2 = edge_segment(net, e1), edge_segment(net, e2)
    kind = intersect(s1, s2)
    assert isinstance(kind, CollinearOverlap if factor < 1 else AtSharedEndpoint)
    ways = [(s, Segment(s.q, s.p)) for s in (s1, s2)]
    assert {type(intersect(a, b)) for a in ways[0] for b in ways[1]} == {type(kind)}
    assert _assert_callers_follow_intersect(net) == ([] if factor > 1 else [(e1, e2, kind)])


@pytest.mark.parametrize("hub", list(_COMMON_END), ids=list(_COMMON_END.values()))
@pytest.mark.parametrize("angle", [0.0, 0.7, -2.0])
def test_legs_through_one_vertex_on_one_line_are_settled_by_end_rows(monkeypatch, angle, hub):
    # Two edges that pass straight through w, as planarize leaves them at
    # each cut: the common-end half settles the pair, and intersect agrees.
    c, s = math.cos(angle), math.sin(angle)
    far = sorted({"a", "m", "z"} - {hub})
    net = Net([Vertex(hub, Point(0.0, 0.0), U), Vertex(far[0], Point(-c, -s), U),
               Vertex(far[1], Point(2.0 * c, 2.0 * s), U)], [(far[0], hub), (far[1], hub)])
    assert isinstance(intersect(*(edge_segment(net, e) for e in net.edges)), AtSharedEndpoint)
    calls = _count_first_stage(monkeypatch)
    assert list(_segment_pairs(net)) == []
    assert calls == {"_legs_overlap": [(1, 0)], "_apart": []}


@pytest.mark.parametrize("net", [
    pytest.param(Net([], []), id="empty"),
    pytest.param(_net([((0.0, 0.0), (1.0, 0.0))]), id="one-edge"),
    pytest.param(Net([Vertex("a", Point(1.0, 0.0), U), Vertex("b", Point(0.0, 1.0), U),
                      Vertex("w", Point(0.0, 0.0), U)], [("a", "w"), ("b", "w")]), id="two-edges-at-w"),
])
def test_callers_follow_intersect_with_no_pair_that_meets(net):
    assert _assert_callers_follow_intersect(net) == []
    assert verify(net).overlay_findings == [] and planarize(net) is net


@pytest.mark.parametrize("angle", [0.0, 0.7, 1.3, 2.9])
@pytest.mark.parametrize("start", [0.5, 1 + 0.5 * PARAM_EPS, 1 + 1.5 * PARAM_EPS, 1 + 3 * PARAM_EPS])
@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0, 3.0])
def test_segments_about_the_parallel_threshold_apart_in_direction(factor, start, angle):
    # s01 (length 10) starts at parameter `start` of s00 (length 5) and
    # leaves its line at a slope that puts |den| at factor * _PARALLEL_EPS
    # * len1 * len2; its box still overlaps s00's at start 1 + 3 * PARAM_EPS.
    rise = 10.0 * factor * _PARALLEL_EPS
    net = _net(_turned([((0.0, 0.0), (5.0, 0.0)), ((5.0 * start, 0.0), (5.0 * start + 10.0, rise))], angle))
    _assert_callers_follow_intersect(net)
    if start > 1 + PARAM_EPS:
        # s01's start projects past s00's end, however the near-parallel
        # solve rounds t and u
        assert isinstance(intersect(*(edge_segment(net, e) for e in net.edges)), Disjoint)
        report = verify(planarize(net))
        assert report.unplanarized_crossings == [] and report.overlay_findings == []


def _chords(k, s):
    return chord_arrangement(k, s)[0]


# Tripod overlays on 8 pins (ids 0-2), 7 and 6 pins, and the arrangements
# of k = 4, 6, 12 chords with seeds 0-4 that verify; more_than is a floor
# on the planarized edge count.
_PLANARIZED = (
    [pytest.param(tripod_overlay, 8, s, 2000, id=str(s)) for s in range(3)]
    + [pytest.param(tripod_overlay, n, s, more_than, id=f"overlay{n}-{s}")
       for n, more_than in ((6, 250), (7, 700)) for s in range(3)]
    + [pytest.param(_chords, k, s, k, id=f"chords{k}-{s}")
       for k, s in ((4, 0), (6, 0), (6, 3), (12, 3))]
)


@pytest.mark.parametrize("make, n, s, more_than", _PLANARIZED)
def test_planarized_8_pin_overlay_verifies_and_is_a_fixed_point(make, n, s, more_than):
    net = make(n, s)
    assert len(net.edges) > more_than
    assert verify(net).passed
    assert planarize(net) is net
