import hashlib
import math
import random

import numpy as np
import pytest

from geonets import (
    AtSharedEndpoint,
    CollinearOverlap,
    Disjoint,
    EndpointOnInterior,
    Point,
    ProperCrossing,
    Segment,
    UnitVec,
    angle_at,
    distance,
    intersect,
    rotate,
    unit_vector,
)
from geonets.geom import (
    _CROSSING,
    _KINDS,
    _OPEN,
    _PARALLEL_EPS,
    COINCIDENCE_EPS,
    PARAM_EPS,
    DegenerateSegment,
    _classify,
)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point(0.0, float("inf"))


def test_point_stores_float_coordinates():
    assert type(Point(0, 3).x) is float and type(Point(0, 3).y) is float
    assert repr(Point(0, 3)) == "Point(x=0.0, y=3.0)"
    assert Point(True, 0.5).x == 1.0 and type(Point(True, 0.5).x) is float
    assert type(Point(np.float64(0.1), 2).x) is float
    assert Point(0, 3) == Point(0.0, 3.0)


def test_distance():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_unit_vector():
    u = unit_vector(Point(1, 1), Point(1, 5))
    assert (u.dx, u.dy) == (0.0, 1.0)
    with pytest.raises(DegenerateSegment):
        unit_vector(Point(2, 3), Point(2, 3))


def test_unitvec_validates_length():
    with pytest.raises(ValueError):
        UnitVec(0.5, 0.5)


def test_angle_at_basics():
    assert angle_at(Point(0, 0), Point(1, 0), Point(0, 1)) == pytest.approx(90.0)
    assert angle_at(Point(0, 0), Point(1, 0), Point(-1, 0)) == pytest.approx(180.0)
    assert angle_at(Point(0, 0), Point(1, 0), Point(2, 0)) == pytest.approx(0.0)
    # order of the two rays does not matter
    a = angle_at(Point(2, 1), Point(5, 3), Point(-1, 0))
    b = angle_at(Point(2, 1), Point(-1, 0), Point(5, 3))
    assert a == pytest.approx(b, abs=1e-12)


def test_angle_at_accurate_near_collinear():
    # arccos would lose half the digits here
    tiny = 1e-8
    got = angle_at(Point(0, 0), Point(1, 0), Point(1, tiny))
    assert got == pytest.approx(math.degrees(tiny), rel=1e-9)


def test_rotate_quadrants():
    p = Point(2.0, 1.0)
    assert rotate(p, 1) == Point(-1.0, 2.0)
    assert rotate(p, 2) == Point(-2.0, -1.0)
    assert rotate(p, 3) == Point(1.0, -2.0)
    assert rotate(p, -1) == rotate(p, 3)


def test_rotate_four_turns_is_identity_bit_for_bit():
    rng = random.Random(101)
    for _ in range(1000):
        p = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        q = rotate(rotate(rotate(rotate(p, 1), 1), 1), 1)
        assert (q.x, q.y) == (p.x, p.y)
        assert rotate(p, 0) is p


def test_segment_rejects_degenerate():
    with pytest.raises(DegenerateSegment):
        Segment(Point(0, 0), Point(0, 1e-12))


def test_segment_length():
    assert Segment(Point(1, 1), Point(4, 5)).length() == 5.0


def test_intersect_proper_crossing():
    kind = intersect(
        Segment(Point(0, 0), Point(2, 2)), Segment(Point(0, 2), Point(2, 0))
    )
    assert isinstance(kind, ProperCrossing)
    assert kind.point.x == pytest.approx(1.0)
    assert kind.point.y == pytest.approx(1.0)


def test_intersect_shared_endpoint():
    kind = intersect(
        Segment(Point(0, 0), Point(1, 0)), Segment(Point(1, 0), Point(2, 5))
    )
    assert isinstance(kind, AtSharedEndpoint)
    assert kind.point == Point(1, 0)


def test_intersect_endpoint_on_interior():
    # T contact: endpoint of one segment inside the other
    kind = intersect(
        Segment(Point(0, 0), Point(4, 0)), Segment(Point(2, 0), Point(2, 3))
    )
    assert isinstance(kind, EndpointOnInterior)
    assert kind.point == Point(2, 0)


def test_intersect_collinear_overlap():
    kind = intersect(
        Segment(Point(0, 0), Point(3, 0)), Segment(Point(1, 0), Point(5, 0))
    )
    assert isinstance(kind, CollinearOverlap)
    assert kind.overlap.p.x == pytest.approx(1.0)
    assert kind.overlap.q.x == pytest.approx(3.0)


def test_intersect_collinear_endpoint_contact():
    kind = intersect(
        Segment(Point(0, 0), Point(1, 0)), Segment(Point(1, 0), Point(2, 0))
    )
    assert isinstance(kind, AtSharedEndpoint)
    assert kind.point == Point(1, 0)


def test_intersect_collinear_contact_across_a_gap_inside_the_band():
    # end to end along one line, 5e-10 apart: inside PARAM_EPS, so the
    # parallel test reports one endpoint contact in either order
    a = Segment(Point(0, 0), Point(1, 0))
    b = Segment(Point(1 + 5e-10, 0), Point(2, 0))
    for s1, s2 in ((a, b), (b, a)):
        kind = intersect(s1, s2)
        assert isinstance(kind, AtSharedEndpoint)
        assert distance(kind.point, a.q) <= COINCIDENCE_EPS
        assert distance(kind.point, b.p) <= COINCIDENCE_EPS
    # 2e-9 apart the segments are disjoint
    c = Segment(Point(1 + 2e-9, 0), Point(2, 0))
    assert isinstance(intersect(a, c), Disjoint)
    assert isinstance(intersect(c, a), Disjoint)


def test_intersect_disjoint_cases():
    assert isinstance(
        intersect(Segment(Point(0, 0), Point(1, 0)), Segment(Point(0, 1), Point(1, 1))),
        Disjoint,
    )
    assert isinstance(
        intersect(Segment(Point(0, 0), Point(1, 0)), Segment(Point(3, 0), Point(4, 0))),
        Disjoint,
    )
    # lines cross but segments stop short
    assert isinstance(
        intersect(Segment(Point(0, 0), Point(1, 1)), Segment(Point(3, 0), Point(0, 3))),
        Disjoint,
    )


def test_intersect_near_endpoint_band_counts_as_endpoint():
    # crossing parameter within PARAM_EPS of 1 snaps to the endpoint
    t = 1.0 - 0.25 * PARAM_EPS
    s1 = Segment(Point(0, 0), Point(1, 0))
    s2 = Segment(Point(t, -1), Point(t, 1))
    kind = intersect(s1, s2)
    assert isinstance(kind, EndpointOnInterior)
    assert kind.point == Point(1, 0)


def _oracle(s1: Segment, s2: Segment):
    """Classify via an independent numpy linear solve."""
    p = np.array([s1.p.x, s1.p.y])
    d1 = np.array([s1.q.x - s1.p.x, s1.q.y - s1.p.y])
    r = np.array([s2.p.x, s2.p.y])
    d2 = np.array([s2.q.x - s2.p.x, s2.q.y - s2.p.y])
    mat = np.column_stack([d1, -d2])
    if abs(np.linalg.det(mat)) <= 1e-12 * np.linalg.norm(d1) * np.linalg.norm(d2):
        return None  # parallel, not classified by this oracle
    t, u = np.linalg.solve(mat, r - p)
    if t < -PARAM_EPS or t > 1 + PARAM_EPS or u < -PARAM_EPS or u > 1 + PARAM_EPS:
        return Disjoint()
    t_end = t <= PARAM_EPS or t >= 1 - PARAM_EPS
    u_end = u <= PARAM_EPS or u >= 1 - PARAM_EPS
    pt = p + t * d1
    if t_end and u_end:
        return AtSharedEndpoint(Point(*pt))
    if t_end or u_end:
        return EndpointOnInterior(Point(*pt))
    return ProperCrossing(Point(*pt))


def test_intersect_matches_linear_algebra_oracle():
    rng = random.Random(7)
    checked = 0
    for _ in range(10_000):
        pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        s1 = Segment(pts[0], pts[1])
        s2 = Segment(pts[2], pts[3])
        expected = _oracle(s1, s2)
        if expected is None:
            continue
        got = intersect(s1, s2)
        assert type(got) is type(expected), (s1, s2)
        if not isinstance(got, Disjoint):
            assert distance(got.point, expected.point) < 1e-9
        checked += 1
    assert checked > 9_000


def test_intersect_symmetric_in_argument_order():
    rng = random.Random(8)
    for _ in range(2_000):
        pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)]
        s1 = Segment(pts[0], pts[1])
        s2 = Segment(pts[2], pts[3])
        a = intersect(s1, s2)
        b = intersect(s2, s1)
        assert type(a) is type(b)
        if not isinstance(a, (Disjoint, CollinearOverlap)):
            assert distance(a.point, b.point) < 1e-9



def _near_endpoint_ends(rng):
    """The ends p, q, r, s of segments s1 = p-q and s2 = r-s, s2 starting
    near q: within three of s1's end bands along it and COINCIDENCE_EPS
    across it. With probability 0.4, s2 leaves within three _PARALLEL_EPS
    of s1's direction, else in any direction. Either segment may be
    reversed; the second value says whether s2 is near parallel."""
    th = rng.uniform(0, 2 * math.pi)
    l1, l2 = rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)
    p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
    q = (p[0] + l1 * math.cos(th), p[1] + l1 * math.sin(th))
    along = rng.uniform(-3, 3) * PARAM_EPS * l1
    across = rng.uniform(-1, 1) * COINCIDENCE_EPS
    r = (q[0] + along * math.cos(th) - across * math.sin(th),
         q[1] + along * math.sin(th) + across * math.cos(th))
    near_parallel = rng.random() < 0.4
    phi = th + rng.uniform(-3, 3) * _PARALLEL_EPS if near_parallel else rng.uniform(0, 2 * math.pi)
    s = (r[0] + l2 * math.cos(phi), r[1] + l2 * math.sin(phi))
    s1 = (p, q) if rng.random() < 0.5 else (q, p)
    s2 = (r, s) if rng.random() < 0.5 else (s, r)
    return (*s1, *s2), near_parallel


def test_intersect_near_endpoint_pairs_agree_in_all_eight_orders():
    # Every test reads both segments alike. Collinearity measured as the
    # offsets of s2's ends from s1's line alone changed the kind of 13 to 16
    # of 100,000 such pairs with the argument order, most of them
    # CollinearOverlap one way and Disjoint the other.
    rng = random.Random(5)
    pairs = [_near_endpoint_ends(rng) for _ in range(20_000)]
    assert 7_000 < sum(parallel for _, parallel in pairs) < 9_000
    segs = [(Segment(Point(*p), Point(*q)), Segment(Point(*r), Point(*s))) for (p, q, r, s), _ in pairs]
    kinds = np.array([[_KINDS.index(type(intersect(a, b))) for a, b in _eight_orders(*pair)] for pair in segs])
    differ = np.flatnonzero((kinds != kinds[:, :1]).any(axis=1))
    assert len(differ) == 0, pairs[differ[0]]
    assert {_KINDS[k] for k in np.unique(kinds)} == set(_KINDS)


def test_the_first_stage_settles_only_pairs_that_intersect_does_not_report():
    # On arrays _classify settles a row as Disjoint or AtSharedEndpoint, or
    # leaves it _OPEN for intersect: a settled row carries intersect's kind,
    # and every contact that intersect reports is left open, in blocks of
    # any size
    rng = random.Random(13)
    ends = (_near_endpoint_ends(rng)[0] for _ in range(1_000))
    pairs = [(Segment(Point(*p), Point(*q)), Segment(Point(*r), Point(*s))) for p, q, r, s in ends]
    pairs += [(Segment(*pts[:2]), Segment(*pts[2:]))
              for pts in ([Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)] for _ in range(1_000))]
    for la, lb, angle in ((5.0, 4.0, 2e-12), (5.0, 0.5, 1.5e-9), (2.0, 3.0, 0.3)):
        pairs += [_legs(rng, la, lb, angle, same_side=True) for _ in range(200)]
    pairs += list(_eight_orders(Segment(Point(0, 0), Point(3, 0)), Segment(Point(1, 0), Point(5, 0))))
    ends = np.array([[(s.p.x, s.p.y), (s.q.x, s.q.y)] for pair in pairs for s in pair]).reshape(-1, 4, 2)
    kinds = np.array([_KINDS.index(type(intersect(s1, s2))) for s1, s2 in pairs])
    assert set(kinds.tolist()) == set(range(len(_KINDS)))
    for size in (1, 3, len(ends)):
        codes = np.concatenate([_classify(*ends[k:k + size].transpose(1, 2, 0)) for k in range(0, len(ends), size)])
        settled = codes != _OPEN
        assert np.count_nonzero(settled) > len(ends) // 2
        assert (codes[settled] == kinds[settled]).all()
        assert (codes[kinds >= _CROSSING] == _OPEN).all()


def _eight_orders(s1, s2):
    """Both argument orders, with each segment either way round."""
    for a in (s1, Segment(s1.q, s1.p)):
        for b in (s2, Segment(s2.q, s2.p)):
            yield a, b
            yield b, a


def _legs(rng, la, lb, angle, same_side):
    """Segments w-a and w-b from a random point w: w-a of length la in a
    random direction, w-b of length lb turned from it by angle, and
    pointing back through w unless same_side."""
    w = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
    th = rng.uniform(0, 2 * math.pi)
    lb = lb if same_side else -lb
    a = Point(w.x + la * math.cos(th), w.y + la * math.sin(th))
    b = Point(w.x + lb * math.cos(th + angle), w.y + lb * math.sin(th + angle))
    return Segment(w, a), Segment(w, b)


def _collinear(rng, offset):
    """Segments along one random line, the second moved offset across it:
    it starts anywhere from before the first to beyond it, or within three
    of the first's end bands of its far end."""
    w = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
    th = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(th), math.sin(th)
    l1, l2 = rng.uniform(0.5, 5), rng.uniform(0.5, 5)
    a = rng.uniform(-l2 - 1, l1 + 1) if rng.random() < 0.5 else l1 * (1 + rng.uniform(-3, 3) * PARAM_EPS)
    r = Point(w.x + a * c - offset * s, w.y + a * s + offset * c)
    return Segment(w, Point(w.x + l1 * c, w.y + l1 * s)), Segment(r, Point(r.x + l2 * c, r.y + l2 * s))


def _intersect_corpus():
    """Segment pairs near every band edge of intersect, with random ones."""
    rng = random.Random(17)
    for _ in range(8_000):
        p, q, r, s = _near_endpoint_ends(rng)[0]
        yield Segment(Point(*p), Point(*q)), Segment(Point(*r), Point(*s))
    for _ in range(2_000):
        yield Segment(*(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2))), \
            Segment(*(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2)))
    for la, lb, angle in ((5.0, 4.0, 2e-12), (5.0, 0.5, 1.5e-9), (5.0, 4.0, 5e-10), (2.0, 3.0, 0.3)):
        for same_side in (True, False):
            for _ in range(150):
                yield _legs(rng, la, lb, angle, same_side)
    for offset in (0.0, 0.5e-9, 2e-9):
        for _ in range(400):
            yield _collinear(rng, offset)


# sha256 over the repr of intersect on _intersect_corpus, in all eight
# orders of each pair: it pins every kind and every coordinate.
INTERSECT_SHA256 = "349863d8842d8335a4d60e1f8f818904cc885c3147326d97bae2fdb0471e768a"


def test_intersect_answers_are_pinned():
    answers = (repr(intersect(a, b)) for pair in _intersect_corpus() for a, b in _eight_orders(*pair))
    assert hashlib.sha256("\n".join(answers).encode("utf-8")).hexdigest() == INTERSECT_SHA256


def test_intersect_pass_through_meets_only_at_the_shared_endpoint():
    # a line bent by 1e-12..1e-6 rad at w: the parametric solve alone can
    # place a crossing or an endpoint contact beside w
    rng = random.Random(11)
    for _ in range(2_000):
        bend = 10 ** rng.uniform(-12, -6) * rng.choice((-1, 1))
        s1, s2 = _legs(rng, rng.uniform(0.2, 5), rng.uniform(0.2, 5), bend, same_side=False)
        for a, b in _eight_orders(s1, s2):
            kind = intersect(a, b)
            assert isinstance(kind, AtSharedEndpoint), (a, b, kind)
            assert kind.point == s1.p


@pytest.mark.parametrize(
    "la, lb, angle, expected",
    [
        (5.0, 4.0, 2e-12, CollinearOverlap),
        # the far end of the shorter leg is 0.75e-9 off the longer one's line
        (5.0, 0.5, 1.5e-9, CollinearOverlap),
        # ... and here 2e-9 off it
        (5.0, 4.0, 5e-10, AtSharedEndpoint),
    ],
)
def test_intersect_decides_legs_on_one_side_in_every_order(la, lb, angle, expected):
    rng = random.Random(12)
    for _ in range(250):
        s1, s2 = _legs(rng, la, lb, angle, same_side=True)
        for a, b in _eight_orders(s1, s2):
            kind = intersect(a, b)
            assert type(kind) is expected, (a, b, kind)
            if expected is CollinearOverlap:
                # along the shorter leg, from the shared endpoint
                assert kind.overlap == s2
            else:
                assert kind.point == s1.p


def test_intersect_decides_a_shared_endpoint_before_the_parallel_test():
    # nearly parallel legs from (0, 0), 1.5e-9 apart at their far ends:
    # the far end of each lies off the other's line by more than
    # COINCIDENCE_EPS, but the legs still meet at (0, 0)
    s1 = Segment(Point(0, 0), Point(2000, 0))
    s2 = Segment(Point(0, 0), Point(2000, 1.5e-9))
    for a, b in _eight_orders(s1, s2):
        assert intersect(a, b) == AtSharedEndpoint(Point(0, 0)), (a, b)
