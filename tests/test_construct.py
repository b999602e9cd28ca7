import hashlib
import math
import random
from collections import Counter

import pytest

from geonets import (
    BOUNDARY_ANGLE_DEG,
    BOUNDARY_RADIUS,
    DEFAULT_OVERLAY_TERMINALS,
    DegenerateTriangle,
    INNER_RADIUS,
    Point,
    Triangle,
    WideAngleTriangle,
    angle_at,
    build_double_tripod,
    build_fermat_tripod,
    build_octagon,
    build_overlay_net,
    build_paper_net,
    distance,
    fermat_point,
    place_boundary,
    rotate,
    serialize,
    verify,
)

from helpers import B, U, jitter

ORIGIN = Point(0.0, 0.0)


# --- constants and the octagon -------------------------------------------

def test_boundary_angle_constant():
    assert BOUNDARY_ANGLE_DEG == pytest.approx(
        math.degrees(math.acos(0.5 - math.cos(math.radians(75.0)))), abs=1e-12
    )
    assert BOUNDARY_RADIUS == pytest.approx(math.tan(math.radians(BOUNDARY_ANGLE_DEG)))


def test_octagon_radii_and_angles():
    a_pts, b_pts = build_octagon()
    assert len(a_pts) == len(b_pts) == 4
    for p in a_pts:
        assert distance(ORIGIN, p) == pytest.approx(INNER_RADIUS, abs=1e-15)
    # all eight corner angles match the prescribed 150/120 split
    ring = []
    for a, b in zip(a_pts, b_pts):
        ring.extend([a, b])
    for i, corner in enumerate(ring):
        prev_pt = ring[(i - 1) % 8]
        next_pt = ring[(i + 1) % 8]
        want = 150.0 if i % 2 == 0 else 120.0
        assert angle_at(corner, prev_pt, next_pt) == pytest.approx(want, abs=1e-9)


def test_boundary_points_sit_on_inner_rays():
    a_pts, _ = build_octagon()
    for a, c in zip(a_pts, place_boundary()):
        assert distance(ORIGIN, c) == pytest.approx(BOUNDARY_RADIUS, abs=1e-12)
        # c on the ray through a
        assert a.x * c.y - a.y * c.x == pytest.approx(0.0, abs=1e-12)
        assert a.x * c.x + a.y * c.y > 0


# --- Fermat points --------------------------------------------------------

def test_fermat_point_golden():
    p = fermat_point(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))
    want = (3.0 - math.sqrt(3.0)) / 6.0
    assert p.x == pytest.approx(want, abs=1e-9)
    assert p.y == pytest.approx(want, abs=1e-9)


def test_fermat_point_equilateral_center():
    tri = Triangle(Point(0, 0), Point(2, 0), Point(1, math.sqrt(3.0)))
    p = fermat_point(tri)
    assert p.x == pytest.approx(1.0, abs=1e-12)
    assert p.y == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-12)


def test_fermat_point_sees_corners_at_120_degrees():
    rng = random.Random(42)
    done = 0
    while done < 300:
        pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        try:
            tri = Triangle(*pts)
        except DegenerateTriangle:
            continue
        if max(tri.angles()) >= 119.9:
            continue
        f = fermat_point(tri)
        for i in range(3):
            got = angle_at(f, pts[i], pts[(i + 1) % 3])
            assert got == pytest.approx(120.0, abs=1e-9)
        done += 1


def _weiszfeld(pts, start, iters=2000):
    x, y = start
    for _ in range(iters):
        wx = wy = wsum = 0.0
        for p in pts:
            d = math.hypot(x - p.x, y - p.y)
            wx += p.x / d
            wy += p.y / d
            wsum += 1.0 / d
        x, y = wx / wsum, wy / wsum
    return Point(x, y)


def test_fermat_point_matches_weiszfeld_oracle():
    rng = random.Random(43)
    done = 0
    while done < 200:
        pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        try:
            tri = Triangle(*pts)
        except DegenerateTriangle:
            continue
        if max(tri.angles()) >= 115.0:
            continue
        f = fermat_point(tri)
        cx = sum(p.x for p in pts) / 3.0
        cy = sum(p.y for p in pts) / 3.0
        w = _weiszfeld(pts, (cx, cy))
        assert distance(f, w) < 1e-6
        done += 1


def test_fermat_point_equivariant_under_rigid_motions():
    rng = random.Random(44)
    tri = Triangle(Point(0, 0), Point(3, 0.5), Point(1, 2))
    f = fermat_point(tri)
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        tx, ty = rng.uniform(-10, 10), rng.uniform(-10, 10)
        c, s = math.cos(theta), math.sin(theta)

        def move(p):
            return Point(c * p.x - s * p.y + tx, s * p.x + c * p.y + ty)

        g = fermat_point(Triangle(*(move(p) for p in tri.corners())))
        assert distance(g, move(f)) < 1e-9


def test_fermat_point_commutes_exactly_with_quarter_turns_and_power_of_two_scaling():
    rng = random.Random(45)
    done = 0
    while done < 500:
        pts = [Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3)]
        try:
            f = fermat_point(Triangle(*pts))
        except (DegenerateTriangle, WideAngleTriangle):
            continue
        for k in (1, 2, 3):
            assert fermat_point(Triangle(*(rotate(p, k) for p in pts))) == rotate(f, k)
        for s in (8.0, 0.125):
            g = fermat_point(Triangle(*(Point(p.x * s, p.y * s) for p in pts)))
            assert g == Point(f.x * s, f.y * s)
        done += 1


def test_fermat_point_rejects_wide_and_degenerate_triangles():
    with pytest.raises(WideAngleTriangle):
        fermat_point(Triangle(Point(0, 0), Point(10, 0), Point(5, 0.1)))
    with pytest.raises(DegenerateTriangle):
        Triangle(Point(0, 0), Point(1, 1), Point(2, 2))


def test_build_fermat_tripod(tripod_net):
    assert len(tripod_net.vertices) == 4
    assert len(tripod_net.edges) == 3
    kinds = Counter(v.kind for v in tripod_net.vertices)
    assert kinds[B] == 1 and kinds[U] == 3
    assert verify(tripod_net).passed


# The fixture's pins, then two trees with short bridges (0.0026 and 0.032
# long), on which solving for one junction at a time with the other held
# fixed converges too slowly to reach balance.
@pytest.mark.parametrize("pins", [
    ((0.0, 2.0), (0.0, -2.0), (6.0, 2.0), (6.0, -2.0)),
    ((0.0, 0.5), (0.0, -0.5), (0.5, 0.25), (0.5, -0.5)),
    ((4.0, 3.5), (4.0, -3.5), (0.0, 3.25), (0.0, -3.5)),
], ids=["fixture", "tiny-bridge", "short-bridge"])
def test_build_double_tripod(pins):
    net = build_double_tripod(*(Point(x, y) for x, y in pins))
    assert len(net.vertices) == 6
    assert len(net.edges) == 5
    kinds = Counter(v.kind for v in net.vertices)
    assert kinds[B] == 2 and kinds[U] == 4
    report = verify(net)
    assert report.passed
    assert report.max_residual <= 1e-11
    # both centers see their three neighbours at 120 degrees
    for fid in ("f1", "f2"):
        f = net.vertex(fid).pos
        nbrs = [net.vertex(o).pos for o in net.adjacency[fid]]
        assert angle_at(f, nbrs[0], nbrs[1]) == pytest.approx(120.0, abs=1e-6)


def test_double_tripod_rejects_crossing_branch_points():
    # splitting the short axis would force the two branch points past
    # each other; the Fermat solve that checks the junctions finds a
    # wide triangle
    with pytest.raises(WideAngleTriangle):
        build_double_tripod(
            Point(0.0, 2.0), Point(0.0, -2.0), Point(0.5, 2.0), Point(0.5, -2.0)
        )


def test_double_tripod_refuses_junctions_that_are_not_their_own_fermat_points():
    # every Fermat solve succeeds, but the junctions Melzak's construction
    # gives do not balance each other, so no double tripod joins the pairs
    with pytest.raises(WideAngleTriangle, match="^no double tripod joins these pairs$"):
        build_double_tripod(
            Point(1.1, -2.0), Point(-2.5, 2.6), Point(0.6, 0.7), Point(-0.3, -2.1)
        )


def test_double_tripods_near_a_square_verify_or_raise_wide_angle():
    # jittered pins about the unit square: many admit no double tripod,
    # but whatever is built must balance
    rng = random.Random(0)
    built = 0
    for _ in range(300):
        pins = jitter(rng, (0, 1), (0, -1), (1, 1), (1, -1))
        try:
            net = build_double_tripod(*pins)
        except WideAngleTriangle:
            continue
        report = verify(net)
        assert report.passed, (pins, report.max_residual)
        built += 1
    assert built > 0


# --- the 20-vertex net ----------------------------------------------------

def test_paper_net_census(paper_net):
    kinds = Counter(v.kind for v in paper_net.vertices)
    assert kinds[U] == 4
    assert kinds[B] == 16
    assert len(paper_net.edges) == 44
    balanced_profile = Counter(
        paper_net.degree(v.id) for v in paper_net.vertices if v.kind is B
    )
    assert balanced_profile == {5: 4, 3: 8, 6: 4}
    assert all(
        paper_net.degree(v.id) == 5 for v in paper_net.vertices if v.kind is U
    )


def test_paper_net_verifies(paper_net):
    report = verify(paper_net)
    assert report.passed
    assert report.max_residual < 1e-12


def test_paper_net_golden_positions(paper_net):
    x1 = paper_net.vertex("x1").pos
    assert (x1.x, x1.y) == pytest.approx(
        (0.800950157339698, 0.8009501573396979), abs=1e-12
    )
    d1 = paper_net.vertex("d1").pos
    assert (d1.x, d1.y) == pytest.approx(
        (0.8503432202402437, 0.8503432202402437), abs=1e-12
    )
    c1 = paper_net.vertex("c1").pos
    assert (c1.x, c1.y) == pytest.approx((BOUNDARY_RADIUS, 0.0), abs=1e-15)


def test_paper_net_crossing_sits_on_its_chords(paper_net):
    b1 = paper_net.vertex("b1").pos
    d1 = paper_net.vertex("d1").pos
    x1 = paper_net.vertex("x1").pos
    cross = (d1.x - b1.x) * (x1.y - b1.y) - (d1.y - b1.y) * (x1.x - b1.x)
    assert abs(cross) < 1e-12
    t = ((x1.x - b1.x) * (d1.x - b1.x) + (x1.y - b1.y) * (d1.y - b1.y)) / (
        distance(b1, d1) ** 2
    )
    assert 0.0 < t < 1.0


def test_paper_net_tripod_angle_identity(paper_net):
    # the angle at b1 between the two boundary pins, by two routes:
    # directly, and from the triangle's side lengths
    b1 = paper_net.vertex("b1").pos
    c1 = paper_net.vertex("c1").pos
    c2 = paper_net.vertex("c2").pos
    direct = angle_at(b1, c1, c2)
    p, q = distance(b1, c1), distance(b1, c2)
    r = distance(c1, c2)
    by_cosine = math.degrees(math.acos((p * p + q * q - r * r) / (2 * p * q)))
    assert direct == pytest.approx(by_cosine, abs=1e-9)
    assert direct == pytest.approx(117.40067837904027, abs=1e-9)
    assert direct < 120.0


# --- the overlay net -------------------------------------------------------

def test_default_overlay_terminals():
    a, c, x, z = DEFAULT_OVERLAY_TERMINALS
    s3 = math.sqrt(3.0)
    assert (a.x, a.y) == pytest.approx((-3 * s3, 12.0), abs=1e-12)
    assert (c.x, c.y) == pytest.approx((3 * s3, 12.0), abs=1e-12)
    assert (x.x, x.y) == pytest.approx((-1.5 * s3, 1.5), abs=1e-12)
    assert (z.x, z.y) == pytest.approx((1.5 * s3, 1.5), abs=1e-12)


def test_overlay_net_census(overlay_net):
    kinds = Counter(v.kind for v in overlay_net.vertices)
    assert kinds[U] == 4
    assert kinds[B] == 28
    assert len(overlay_net.vertices) == 32
    assert len(overlay_net.edges) == 65


def test_overlay_net_verifies(overlay_net):
    report = verify(overlay_net)
    assert report.passed
    assert report.max_residual < 1e-12


def test_overlay_net_anchor_positions(overlay_net):
    def at(vid):
        p = overlay_net.vertex(vid).pos
        return p.x, p.y

    s3 = math.sqrt(3.0)
    assert at("B2") == pytest.approx((0.0, 9.0), abs=1e-12)
    assert at("Y2") == pytest.approx((0.0, 3.0), abs=1e-12)
    assert at("L") == pytest.approx((-s3 / 2, 4.5), abs=1e-12)
    assert at("N") == pytest.approx((s3 / 2, 4.5), abs=1e-12)
    assert at("B1") == pytest.approx((-1.570929802213633, 9.209302325581394), abs=1e-9)
    assert at("Y1") == pytest.approx((-1.8557687223952255, 2.357142857142857), abs=1e-9)
    # mirror symmetry about the y axis
    b1, b3 = overlay_net.vertex("B1").pos, overlay_net.vertex("B3").pos
    y1, y3 = overlay_net.vertex("Y1").pos, overlay_net.vertex("Y3").pos
    assert (b3.x, b3.y) == pytest.approx((-b1.x, b1.y), abs=1e-12)
    assert (y3.x, y3.y) == pytest.approx((-y1.x, y1.y), abs=1e-12)


def test_overlay_net_custom_terminals_shift():
    net = build_overlay_net(
        Point(-5.196152422706632, 13.0),
        Point(5.196152422706632, 13.0),
        Point(-2.598076211353316, 2.5),
        Point(2.598076211353316, 2.5),
    )
    # same shape one unit up
    assert verify(net).passed
    b2 = net.vertex("B2").pos
    assert (b2.x, b2.y) == pytest.approx((0.0, 10.0), abs=1e-9)


# sha256 over serialize of the paper net, the overlay at its default and at
# shifted terminals, a Fermat tripod and a double tripod: they pin every
# fixture's ids, kinds, positions and edges bit for bit.
CONSTRUCT_SHA256 = "4ff68dc8bd4a406390606ea3aab7bafa720fb69ce4e8a9de127207eb2aad38e1"


def test_fixture_nets_are_pinned():
    shifted = build_overlay_net(
        Point(-5.196152422706632, 13.0),
        Point(5.196152422706632, 13.0),
        Point(-2.598076211353316, 2.5),
        Point(2.598076211353316, 2.5),
    )
    nets = (
        build_paper_net(),
        build_overlay_net(),
        shifted,
        build_fermat_tripod(Triangle(ORIGIN, Point(1.0, 0.0), Point(0.0, 1.0))),
        build_double_tripod(Point(-2.0, 1.0), Point(-2.0, -1.0), Point(2.0, 1.0), Point(2.0, -1.0)),
    )
    digest = hashlib.sha256()
    for net in nets:
        digest.update(serialize(net).encode("utf-8"))
    assert digest.hexdigest() == CONSTRUCT_SHA256
