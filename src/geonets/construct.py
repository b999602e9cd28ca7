"""Constructions of specific balanced nets.

Provides Fermat points of triangles, single- and double-tripod Steiner
trees, a reducible overlay net assembled from seven trees on four shared
terminals, and a square-symmetric net with 16 balanced vertices that is
irreducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .geom import COINCIDENCE_EPS, Point, angle_at, distance, rotate
from .net import Net, planarize, relabeled

# Square-symmetric 16-vertex construction. The inner square of balanced
# vertices a1..a4 sits on the unit circle; the octagon vertices b1..b4 on
# the diagonals make 150 degree angles at a_i and 120 degree angles at
# b_i. Boundary pins c1..c4 sit on the axes at the unique radius where
# the five unit vectors at each a_i cancel: arccos(1/2 - cos 75deg).
INNER_RADIUS = 1.0
_B_DIAG = math.cos(math.radians(15.0)) / (
    math.cos(math.radians(15.0)) + math.sin(math.radians(15.0))
)
BOUNDARY_ANGLE_RAD = math.acos(0.5 - math.cos(math.radians(75.0)))
BOUNDARY_ANGLE_DEG = math.degrees(BOUNDARY_ANGLE_RAD)
BOUNDARY_RADIUS = math.tan(BOUNDARY_ANGLE_RAD)

_AREA_EPS = 1e-12
_WIDE_ANGLE_MARGIN_DEG = 1e-9
_SQRT3 = math.sqrt(3.0)


class DegenerateTriangle(ValueError):
    """Triangle with (near-)collinear corners."""


class WideAngleTriangle(ValueError):
    """Triangle with an angle of 120 degrees or more has no interior
    Fermat point."""


@dataclass(frozen=True)
class Triangle:
    p1: Point
    p2: Point
    p3: Point

    def __post_init__(self) -> None:
        ax, ay = self.p2.x - self.p1.x, self.p2.y - self.p1.y
        bx, by = self.p3.x - self.p1.x, self.p3.y - self.p1.y
        if abs(ax * by - ay * bx) / 2.0 <= _AREA_EPS:
            raise DegenerateTriangle("corner points are (near-)collinear")

    def corners(self) -> Tuple[Point, Point, Point]:
        return (self.p1, self.p2, self.p3)

    def angles(self) -> Tuple[float, float, float]:
        """Interior angles in degrees at p1, p2, p3."""
        a, b, c = self.p1, self.p2, self.p3
        return (angle_at(a, b, c), angle_at(b, a, c), angle_at(c, a, b))


def _equilateral_apex(p: Point, q: Point, away_from: Point) -> Point:
    """Third corner of the equilateral triangle on pq lying on the
    opposite side of pq from away_from."""
    dx, dy = q.x - p.x, q.y - p.y
    side = dx * (away_from.y - p.y) - dy * (away_from.x - p.x)
    s = 1.0 if side > 0.0 else -1.0
    sin_t = -s * (math.sqrt(3.0) / 2.0)
    return Point(p.x + dx * 0.5 - dy * sin_t, p.y + dx * sin_t + dy * 0.5)


def fermat_point(tri: Triangle) -> Point:
    """Point minimizing the sum of distances to the triangle corners.

    Requires every angle below 120 degrees, so the minimizer is the first
    isogonic centre, X(13) in Kimberling's Encyclopedia of Triangle
    Centers. Its barycentric closed form is

        F = (w_A A + w_B B + w_C C) / (w_A + w_B + w_C),
        w_A = 1 / (4 area + sqrt(3) (b^2 + c^2 - a^2)),  a = |BC|,

    and likewise for B and C. The denominator of w_A equals
    4 b c sin(angle A + 60 degrees), which is positive below 120 degrees.
    Squares and cross product are plain products, so the result commutes
    bit for bit with quarter turns and power-of-two scaling.
    """
    for ang in tri.angles():
        if ang >= 120.0 - _WIDE_ANGLE_MARGIN_DEG:
            raise WideAngleTriangle(f"angle of {ang:.6f} degrees >= 120")
    a, b, c = tri.corners()
    abx, aby = b.x - a.x, b.y - a.y
    bcx, bcy = c.x - b.x, c.y - b.y
    cax, cay = a.x - c.x, a.y - c.y
    aa = bcx * bcx + bcy * bcy
    bb = cax * cax + cay * cay
    cc = abx * abx + aby * aby
    area4 = 2.0 * abs(abx * cay - aby * cax)
    wa = 1.0 / (area4 + _SQRT3 * (bb + cc - aa))
    wb = 1.0 / (area4 + _SQRT3 * (cc + aa - bb))
    wc = 1.0 / (area4 + _SQRT3 * (aa + bb - cc))
    w = wa + wb + wc
    return Point(
        (wa * a.x + wb * b.x + wc * c.x) / w, (wa * a.y + wb * b.y + wc * c.y) / w
    )


def _net(pins: Dict[str, Point], free: Dict[str, Point], edges: Sequence[Tuple[str, str]]) -> Net:
    """The net of the pinned and the balanced vertices, each id -> position,
    and the edge rows, checked as Net() checks them."""
    ids, points = [*pins, *free], [*pins.values(), *free.values()]
    balanced = [False] * len(pins) + [True] * len(free)
    return Net._from_columns(ids, balanced, [None] * len(ids), [(p.x, p.y) for p in points], edges)


def build_fermat_tripod(tri: Triangle) -> Net:
    """Net with the three corners pinned and one balanced vertex at the
    Fermat point."""
    pins = {f"t{i + 1}": p for i, p in enumerate(tri.corners())}
    return _net(pins, {"f": fermat_point(tri)}, [("f", f"t{i + 1}") for i in range(3)])


def _double_fermat(p1: Point, p2: Point, q1: Point, q2: Point) -> Tuple[Point, Point]:
    """Steiner points (s1, s2) of the two-junction tree joining p1, p2 to
    s1 and q1, q2 to s2 with a bridge s1-s2, by Melzak's construction.

    Seen from s1, the pair q1, q2 acts like the apex of the equilateral
    triangle on q1 q2 away from p1 p2, so s1 is the Fermat point of p1, p2
    and that apex; s2 likewise. The tree exists only if each junction is
    then the Fermat point of its pins and the other junction, within
    COINCIDENCE_EPS. Else, or when the junctions cross and the check's own
    solve fails, this raises WideAngleTriangle.
    """
    mid_p = Point((p1.x + p2.x) / 2.0, (p1.y + p2.y) / 2.0)
    mid_q = Point((q1.x + q2.x) / 2.0, (q1.y + q2.y) / 2.0)
    s1 = fermat_point(Triangle(p1, p2, _equilateral_apex(q1, q2, mid_p)))
    s2 = fermat_point(Triangle(q1, q2, _equilateral_apex(p1, p2, mid_q)))
    if max(distance(s1, fermat_point(Triangle(p1, p2, s2))),
           distance(s2, fermat_point(Triangle(q1, q2, s1)))) > COINCIDENCE_EPS:
        raise WideAngleTriangle("no double tripod joins these pairs")
    return s1, s2


def build_double_tripod(p1: Point, p2: Point, q1: Point, q2: Point) -> Net:
    """Two-junction Steiner tree on four pins: junction f1 joins p1, p2,
    junction f2 joins q1, q2, with a bridge edge f1-f2. Raises
    WideAngleTriangle when no double tripod joins the two pairs."""
    s1, s2 = _double_fermat(p1, p2, q1, q2)
    edges = [("f1", "t1"), ("f1", "t2"), ("f1", "f2"), ("f2", "t3"), ("f2", "t4")]
    return _net({"t1": p1, "t2": p2, "t3": q1, "t4": q2}, {"f1": s1, "f2": s2}, edges)


DEFAULT_OVERLAY_TERMINALS: Tuple[Point, Point, Point, Point] = (
    Point(-3.0 * _SQRT3, 12.0),
    Point(3.0 * _SQRT3, 12.0),
    Point(-1.5 * _SQRT3, 1.5),
    Point(1.5 * _SQRT3, 1.5),
)


def build_overlay_net(
    a: Optional[Point] = None,
    c: Optional[Point] = None,
    x: Optional[Point] = None,
    z: Optional[Point] = None,
) -> Net:
    """Reducible example: seven shortest trees on four terminals, overlaid.

    The terminals A, C (top) and X, Z (bottom) are pinned. The trees are
    the four Fermat tripods on three of the four terminals, the two
    double tripods for the pairings {A,C}|{X,Z} and {A,X}|{C,Z} (Melzak's
    construction), and the pair of straight chains A-Z, C-X.
    Planarization turns every edge crossing into a balanced pass-through
    vertex. Raises WideAngleTriangle when one of those trees does not
    exist for the given terminals.
    """
    ta = a if a is not None else DEFAULT_OVERLAY_TERMINALS[0]
    tc = c if c is not None else DEFAULT_OVERLAY_TERMINALS[1]
    tx = x if x is not None else DEFAULT_OVERLAY_TERMINALS[2]
    tz = z if z is not None else DEFAULT_OVERLAY_TERMINALS[3]

    b1 = fermat_point(Triangle(ta, tc, tx))
    b3 = fermat_point(Triangle(ta, tc, tz))
    y1 = fermat_point(Triangle(tx, tz, ta))
    y3 = fermat_point(Triangle(tx, tz, tc))
    b2, y2 = _double_fermat(ta, tc, tx, tz)
    ell, en = _double_fermat(ta, tx, tc, tz)

    pins = {"A": ta, "C": tc, "X": tx, "Z": tz}
    free = {"B1": b1, "B2": b2, "B3": b3, "Y1": y1, "Y2": y2, "Y3": y3, "L": ell, "N": en}
    edges = [
        ("B1", "A"), ("B1", "C"), ("B1", "X"),
        ("B3", "A"), ("B3", "C"), ("B3", "Z"),
        ("Y1", "X"), ("Y1", "Z"), ("Y1", "A"),
        ("Y3", "X"), ("Y3", "Z"), ("Y3", "C"),
        ("B2", "A"), ("B2", "C"), ("B2", "Y2"), ("Y2", "X"), ("Y2", "Z"),
        ("L", "A"), ("L", "X"), ("L", "N"), ("N", "C"), ("N", "Z"),
        ("A", "Z"), ("C", "X"),
    ]
    return planarize(_net(pins, free, edges))


def build_octagon() -> Tuple[List[Point], List[Point]]:
    """Inner octagon corner positions (a1..a4 on the axes, b1..b4 on the
    diagonals)."""
    a1 = Point(INNER_RADIUS, 0.0)
    b1 = Point(INNER_RADIUS * _B_DIAG, INNER_RADIUS * _B_DIAG)
    return (
        [rotate(a1, k) for k in range(4)],
        [rotate(b1, k) for k in range(4)],
    )


def place_boundary() -> List[Point]:
    """Pinned boundary positions c1..c4 on the axes at BOUNDARY_RADIUS."""
    c1 = Point(BOUNDARY_RADIUS, 0.0)
    return [rotate(c1, k) for k in range(4)]


def build_paper_net() -> Net:
    """Square-symmetric irreducible net: 16 balanced vertices, 4 pins.

    The inner octagon a1 b1 a2 b2 a3 b3 a4 b4 is joined to boundary pins
    c1..c4 by the spokes a_i c_i, the crossing chords a_i c_{i+1} and
    a_{i+1} c_i, and a Fermat tripod d_i for each triple
    (b_i, c_i, c_{i+1}). The chord pair and the segment b_i d_i meet in a
    single point; planarization merges that triple crossing into one
    balanced vertex, renamed x_i to match its quadrant.
    """
    a_pts, b_pts = build_octagon()
    c_pts = place_boundary()
    d1 = fermat_point(Triangle(b_pts[0], c_pts[0], c_pts[1]))
    d_pts = [rotate(d1, k) for k in range(4)]

    pins = {f"c{i + 1}": p for i, p in enumerate(c_pts)}
    free = {f"{name}{i + 1}": p for name, pts in (("a", a_pts), ("b", b_pts), ("d", d_pts))
            for i, p in enumerate(pts)}

    edges: List[Tuple[str, str]] = []
    for i in range(4):
        j = i % 4 + 1
        k = (i + 1) % 4 + 1
        edges.append((f"a{j}", f"b{j}"))
        edges.append((f"a{k}", f"b{j}"))
        edges.append((f"a{j}", f"c{j}"))
        edges.append((f"a{j}", f"c{k}"))
        edges.append((f"a{k}", f"c{j}"))
        edges.append((f"d{j}", f"b{j}"))
        edges.append((f"d{j}", f"c{j}"))
        edges.append((f"d{j}", f"c{k}"))

    flat = planarize(_net(pins, free, edges))

    mapping = {}
    for vid, (x, y) in zip(flat.ids, flat.pos.tolist()):
        if vid in pins or vid in free:
            continue
        theta = math.degrees(math.atan2(y, x)) % 360.0
        quadrant = round((theta - 45.0) / 90.0) % 4
        mapping[vid] = f"x{int(quadrant) + 1}"
    return relabeled(flat, mapping)
