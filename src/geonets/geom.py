"""Planar geometric primitives.

Points, unit vectors, angles (degrees, unsigned), exact quarter-turn
rotation, and robust segment-intersection classification. Everything is
an immutable value; everything else in the package builds on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

# Two points closer than this coincide. Net coordinates are O(1)-O(5),
# so this sits far above double-precision noise and far below the
# smallest feature separation we care about.
COINCIDENCE_EPS = 1e-9

# Parametric band around t=0 and t=1 inside which a hit on a segment
# counts as endpoint contact rather than an interior point.
PARAM_EPS = 1e-9

# Relative cross-product threshold below which two directions are parallel.
_PARALLEL_EPS = 1e-12

Vec = Tuple[float, float]


class DegenerateSegment(ValueError):
    """Two supposedly distinct points coincide within the degeneracy epsilon."""


@dataclass(frozen=True)
class Point:
    """A point of the plane. x and y are finite floats: an int, a bool or a
    numpy float given for either is stored as float(value)."""
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")
        if type(self.x) is not float or type(self.y) is not float:
            object.__setattr__(self, "x", float(self.x))
            object.__setattr__(self, "y", float(self.y))


def distance(p: Point, q: Point) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


@dataclass(frozen=True)
class UnitVec:
    dx: float
    dy: float

    def __post_init__(self) -> None:
        if abs(math.hypot(self.dx, self.dy) - 1.0) > 1e-12:
            raise ValueError(f"({self.dx}, {self.dy}) is not a unit vector")


def unit_vector(p: Point, q: Point) -> UnitVec:
    """Unit direction from p toward q."""
    d = distance(p, q)
    if d <= COINCIDENCE_EPS:
        raise DegenerateSegment(f"points coincide: ({p.x}, {p.y}) and ({q.x}, {q.y})")
    return UnitVec((q.x - p.x) / d, (q.y - p.y) / d)


def angle_at(b: Point, a: Point, c: Point) -> float:
    """Unsigned angle at b from a to c, in degrees, in [0, 180].

    Computed from atan2(|cross|, dot) of the two unit directions, which
    stays accurate near 0 and 180 degrees where arccos loses precision.
    """
    u = unit_vector(b, a)
    v = unit_vector(b, c)
    cross = u.dx * v.dy - u.dy * v.dx
    dot = u.dx * v.dx + u.dy * v.dy
    return math.degrees(math.atan2(abs(cross), dot))


def rotate(p: Point, quarter_turns: int) -> Point:
    """Rotate p about the origin by quarter_turns * 90 degrees.

    Pure coordinate swap/negation, no trigonometry, so four turns are the
    identity bit for bit.
    """
    k = quarter_turns % 4
    if k == 0:
        return p
    if k == 1:
        return Point(-p.y, p.x)
    if k == 2:
        return Point(-p.x, -p.y)
    return Point(p.y, -p.x)


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self) -> None:
        if distance(self.p, self.q) <= COINCIDENCE_EPS:
            raise DegenerateSegment(
                f"degenerate segment at ({self.p.x}, {self.p.y})"
            )

    def length(self) -> float:
        return distance(self.p, self.q)


# --- intersection classification -------------------------------------------
#
# Exactly one variant applies to any pair of non-degenerate segments and the
# classification is symmetric in the argument order.

@dataclass(frozen=True)
class Disjoint:
    pass


@dataclass(frozen=True)
class AtSharedEndpoint:
    point: Point


@dataclass(frozen=True)
class ProperCrossing:
    point: Point


@dataclass(frozen=True)
class EndpointOnInterior:
    point: Point


@dataclass(frozen=True)
class CollinearOverlap:
    overlap: Segment


IntersectionKind = Union[
    Disjoint, AtSharedEndpoint, ProperCrossing, EndpointOnInterior, CollinearOverlap
]


def _point_on(seg: Segment, t: float) -> Point:
    return Point(
        seg.p.x + t * (seg.q.x - seg.p.x),
        seg.p.y + t * (seg.q.y - seg.p.y),
    )


def _snap_endpoint(seg: Segment, t: float) -> Point:
    return seg.p if t <= 0.5 else seg.q


def _in_endpoint_band(t: float) -> bool:
    return t <= PARAM_EPS or t >= 1.0 - PARAM_EPS


def _in_range(t: float) -> bool:
    return -PARAM_EPS <= t <= 1.0 + PARAM_EPS


def _projected_param(seg: Segment, pt: Point) -> float:
    """Parametric coordinate of pt's orthogonal projection onto seg's line."""
    dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
    return ((pt.x - seg.p.x) * dx + (pt.y - seg.p.y) * dy) / (dx * dx + dy * dy)


def _from_shared_endpoint(p: Point, q: Point, r: Point, s: Point) -> Optional[IntersectionKind]:
    """intersect's answer for segments p-q and r-s with an endpoint w in
    common (equal coordinates), else None. Both tests read the two
    directions from w, so the answer does not depend on the argument
    order."""
    if p.x == r.x and p.y == r.y:
        w, a, b = p, q, s
    elif p.x == s.x and p.y == s.y:
        w, a, b = p, q, r
    elif q.x == r.x and q.y == r.y:
        w, a, b = q, p, s
    elif q.x == s.x and q.y == s.y:
        w, a, b = q, p, r
    else:
        return None
    ax, ay = a.x - w.x, a.y - w.y
    bx, by = b.x - w.x, b.y - w.y
    if ax * bx + ay * by > 0.0:
        la, lb = math.hypot(ax, ay), math.hypot(bx, by)
        if abs(ax * by - ay * bx) / max(la, lb) <= COINCIDENCE_EPS:
            return CollinearOverlap(Segment(w, a if la < lb else b))
    return AtSharedEndpoint(w)


def intersect(s1: Segment, s2: Segment) -> IntersectionKind:
    """Classify how two segments meet.

    Returns one of Disjoint, AtSharedEndpoint, ProperCrossing,
    EndpointOnInterior, or CollinearOverlap. A ProperCrossing point lies
    strictly inside both segments (parametric coordinate in
    [PARAM_EPS, 1 - PARAM_EPS]); contact inside the band is reported as
    endpoint contact instead, so planarization cannot fabricate
    near-endpoint crossings.

    Segments with an endpoint w in common (equal coordinates) are decided
    first, exactly, and not by the parallel test or the parametric solve:
    they overlap along the shorter segment when both leave w on the same
    side and the far end of the shorter lies within COINCIDENCE_EPS of the
    longer one's line, and otherwise meet only at w (AtSharedEndpoint).

    Near parallel the solve's t and u carry rounding far above PARAM_EPS,
    so an endpoint contact is confirmed by projecting the endpoint onto the
    other segment. Outside [-PARAM_EPS, 1 + PARAM_EPS] the pair is Disjoint;
    in an end band the two ends meet (AtSharedEndpoint) once the other
    end's projection is confirmed the same way.
    """
    p, q = s1.p, s1.q
    r, s = s2.p, s2.q
    shared = _from_shared_endpoint(p, q, r, s)
    if shared is not None:
        return shared
    d1x, d1y = q.x - p.x, q.y - p.y
    d2x, d2y = s.x - r.x, s.y - r.y
    len1 = math.hypot(d1x, d1y)
    len2 = math.hypot(d2x, d2y)
    den = d1x * d2y - d1y * d2x

    if abs(den) <= _PARALLEL_EPS * len1 * len2:
        # Parallel. Collinear only if both endpoints of s2 sit on line(s1).
        off_r = abs(d1x * (r.y - p.y) - d1y * (r.x - p.x)) / len1
        off_s = abs(d1x * (s.y - p.y) - d1y * (s.x - p.x)) / len1
        if off_r > COINCIDENCE_EPS or off_s > COINCIDENCE_EPS:
            return Disjoint()
        t_r, t_s = _projected_param(s1, r), _projected_param(s1, s)
        lo, hi = (t_r, t_s) if t_r <= t_s else (t_s, t_r)
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        if (hi - lo) * len1 > COINCIDENCE_EPS:
            return CollinearOverlap(Segment(_point_on(s1, lo), _point_on(s1, hi)))
        if (lo - hi) * len1 <= PARAM_EPS * min(len1, len2):
            # A gap inside both segments' end bands: single-point contact,
            # which for collinear segments happens only endpoint to endpoint.
            return AtSharedEndpoint(_snap_endpoint(s1, 0.5 * (lo + hi)))
        return Disjoint()

    # Solve p + t*d1 = r + u*d2.
    ex, ey = r.x - p.x, r.y - p.y
    t = (ex * d2y - ey * d2x) / den
    u = (ex * d1y - ey * d1x) / den
    if not (_in_range(t) and _in_range(u)):
        return Disjoint()
    t_end = _in_endpoint_band(t)
    u_end = _in_endpoint_band(u)
    if not (t_end or u_end):
        return ProperCrossing(_point_on(s1, t))
    end1, end2 = _snap_endpoint(s1, t), _snap_endpoint(s2, u)
    u1, t2 = _projected_param(s2, end1), _projected_param(s1, end2)
    both = t_end and (u_end or _in_endpoint_band(u1)) or u_end and _in_endpoint_band(t2)
    if (t_end or both) and not _in_range(u1) or (u_end or both) and not _in_range(t2):
        return Disjoint()
    return AtSharedEndpoint(end1) if both else EndpointOnInterior(end1 if t_end else end2)
