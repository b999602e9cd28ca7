"""Planar geometric primitives.

Points, unit vectors, angles (degrees, unsigned), exact quarter-turn
rotation, and robust segment-intersection classification: one classifier,
_classify, whose first stage settles arrays of segment pairs in numpy,
and intersect, which decides one pair on floats, the pairs that stage
leaves open included. The first stage has two halves, _legs_overlap for
a pair with an end in common and _apart for one without: _classify
tells the two by equal coordinates, and net._segment_pairs by equal end
rows. Everything is an immutable value; everything else in the package
builds on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

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


# Kind codes of _classify: the index of each kind in _KINDS, and _OPEN for
# a pair that its first stage leaves to intersect. _CONTACTS are the kinds
# that verify reports and planarize acts on.
_KINDS = (Disjoint, AtSharedEndpoint, ProperCrossing, EndpointOnInterior, CollinearOverlap)
_DISJOINT, _SHARED, _CROSSING, _ON_INTERIOR, _OVERLAP, _OPEN = range(len(_KINDS) + 1)
_CONTACTS = _KINDS[_CROSSING:]


def _contact_pad(length: np.ndarray) -> np.ndarray:
    """How far beyond its bounding box a segment of each length may meet
    another by _classify's bands, COINCIDENCE_EPS across and PARAM_EPS *
    length along it, made 1% wider so that rounding cannot drop a pair."""
    return (COINCIDENCE_EPS + PARAM_EPS * length) * 1.01


def _projected_param(p, q, w) -> float:
    """Parametric coordinate of w's orthogonal projection onto the line
    through p and q, each an (x, y) pair: 0 at p and 1 at q."""
    (px, py), (qx, qy), (wx, wy) = p, q, w
    dx, dy = qx - px, qy - py
    return ((wx - px) * dx + (wy - py) * dy) / (dx * dx + dy * dy)


# _classify's first stage runs on coordinate arrays, and on the plain floats
# of intersect's one pair. These helpers act alike on both; ~ is no logical
# negation on a Python bool.
def _not(c):
    return c ^ True


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _where(c, a, b):
    return np.where(c, a, b) if isinstance(c, np.ndarray) else (a if c else b)


def _outside(t):
    return (t < -PARAM_EPS) | (t > 1.0 + PARAM_EPS)


def _in_end_band(t):
    return (t <= PARAM_EPS) | (t >= 1.0 - PARAM_EPS)


def _legs_overlap(same, flip, d1, d2, len1, len2):
    """The common-end half of _classify's first stage: whether segments
    of vectors d1 and d2, each an (x, y) pair, and lengths len1 and len2,
    that have an end w in common overlap along the shorter. same holds
    when w is the first end of both or the second of both, flip when it
    is the first of one and the second of the other; where neither holds
    the answer is False. The legs from w overlap when they leave w on
    the same side and the far end of the shorter lies within
    COINCIDENCE_EPS of the longer one's line; otherwise they meet only
    at w."""
    (d1x, d1y), (d2x, d2y) = d1, d2
    legs_dot = d1x * d2x + d1y * d2y
    abs_den = abs(d1x * d2y - d1y * d2x)
    return ((same & (legs_dot > 0.0) | flip & (legs_dot < 0.0))
            & ((abs_den / len1 <= COINCIDENCE_EPS) | (abs_den / len2 <= COINCIDENCE_EPS)))


def _apart(d1, d2, e, f, h, len1, len2):
    """The apart half of _classify's first stage, for segments p-q and
    r-s of lengths len1 and len2 with no end in common, given as the
    vectors d1 = q - p, d2 = s - r, e = r - p, f = s - p and h = q - r,
    each an (x, y) pair: whether they may meet, whether they are
    parallel, and the t and u of the solve below.

    Parallel segments may meet only when collinear: each one's ends lie
    within COINCIDENCE_EPS of the other's line. Other segments meet only
    where the solve of p + t*d1 = r + u*d2 puts t and u in [-PARAM_EPS,
    1 + PARAM_EPS]. Any other pair is Disjoint.
    """
    (d1x, d1y), (d2x, d2y), (ex, ey), (fx, fy), (hx, hy) = d1, d2, e, f, h
    den = d1x * d2y - d1y * d2x
    # The offset of each segment's ends from the other's line, times that
    # one's length: r and s from p-q's (c_r, c_s), p and q from r-s's.
    c_r, c_s = d1x * ey - d1y * ex, d1x * fy - d1y * fx
    c_p, c_q = ex * d2y - ey * d2x, d2x * hy - d2y * hx
    parallel = abs(den) <= _PARALLEL_EPS * (len1 * len2)
    collinear = (parallel & (abs(c_r) / len1 <= COINCIDENCE_EPS) & (abs(c_s) / len1 <= COINCIDENCE_EPS)
                 & (abs(c_p) / len2 <= COINCIDENCE_EPS) & (abs(c_q) / len2 <= COINCIDENCE_EPS))
    den = _where(parallel, 1.0, den)
    t, u = c_p / den, -c_r / den
    return _where(parallel, collinear, _not(_outside(t) | _outside(u))), parallel, t, u


def _classify(p, q, r, s):
    """How segment p-q meets segment r-s, each end an (x, y) pair of
    coordinate arrays, or of floats for one pair.

    The tests run in stages, as in a filtered predicate (Shewchuk 1997),
    and each stage is exact. The first is _legs_overlap for a pair with
    an end in common (equal coordinates), else _apart. On arrays only
    the first stage runs, and each row gets _SHARED or _DISJOINT when it
    settles the row, else _OPEN. On floats the pair is decided: the kind
    code, the contact point (x, y) and the far end (x, y) of an overlap;
    unreported kinds hold stale coordinates. Each test reads both
    segments alike, so the kind does not depend on their order or
    direction, short of rounding within a few ulps of a band's edge. A
    contact point is one of the four ends, or p + t * (q - p) on the
    first segment.
    """
    (px, py), (qx, qy), (rx, ry), (sx, sy) = p, q, r, s
    d1x, d1y, d2x, d2y = qx - px, qy - py, sx - rx, sy - ry
    nn1, nn2 = d1x * d1x + d1y * d1y, d2x * d2x + d2y * d2y
    len1, len2 = _sqrt(nn1), _sqrt(nn2)
    ex, ey, fx, fy, hx, hy = rx - px, ry - py, sx - px, sy - py, qx - rx, qy - ry
    d1, d2, e, f, h = (d1x, d1y), (d2x, d2y), (ex, ey), (fx, fy), (hx, hy)
    pr, ps = (px == rx) & (py == ry), (px == sx) & (py == sy)
    qr, qs = (qx == rx) & (qy == ry), (qx == sx) & (qy == sy)
    at_p = pr | ps
    shared = at_p | qr | qs
    if isinstance(shared, np.ndarray):
        left = (_legs_overlap(pr | qs, ps | qr, d1, d2, len1, len2)
                | _not(shared) & _apart(d1, d2, e, f, h, len1, len2)[0])
        return np.where(left, _OPEN, np.where(shared, _SHARED, _DISJOINT))
    w = p if at_p else q
    if shared:
        if not _legs_overlap(pr | qs, ps | qr, d1, d2, len1, len2):
            return _SHARED, w, w
        # the legs overlap from w to the far end of the shorter one
        return _OVERLAP, w, (q if at_p else p) if len1 < len2 else (s if pr | qr else r)
    left, parallel, t, u = _apart(d1, d2, e, f, h, len1, len2)
    if not left:
        return _DISJOINT, w, w

    # r and s projected on p-q's line, as a parameter of it.
    t_r, t_s = (ex * d1x + ey * d1y) / nn1, (fx * d1x + fy * d1y) / nn1

    # Collinear segments overlap by more than COINCIDENCE_EPS, from p +
    # lo*d1 to p + hi*d1, or touch end to end across a gap inside both
    # segments' end bands, at the end of p-q nearer the gap.
    if parallel:
        lo, hi = (t_r, t_s) if t_r <= t_s else (t_s, t_r)
        lo, hi = 0.0 if lo < 0.0 else lo, 1.0 if hi > 1.0 else hi
        gap = (lo - hi) * len1
        if -gap > COINCIDENCE_EPS:
            return _OVERLAP, (px + lo * d1x, py + lo * d1y), (px + hi * d1x, py + hi * d1y)
        if gap <= PARAM_EPS * len1 and gap <= PARAM_EPS * len2:
            return _SHARED, (p if lo + hi <= 1.0 else q), w
        return _DISJOINT, w, w

    # A ProperCrossing lies strictly inside both end bands. Near parallel,
    # t and u carry rounding far above PARAM_EPS, so an end in a band is
    # confirmed by projecting it onto the other segment (u1 on r-s, t2 on
    # p-q): outside [-PARAM_EPS, 1 + PARAM_EPS] the pair is Disjoint, and in
    # an end band the two ends meet once the other end's projection is
    # confirmed the same way. The contact is then the end of p-q nearer t,
    # else the end of r-s nearer u.
    t_end, u_end = _in_end_band(t), _in_end_band(u)
    if not (t_end or u_end):
        return _CROSSING, (px + t * d1x, py + t * d1y), w
    end1_p, end2_r = t <= 0.5, u <= 0.5
    u1 = -(ex * d2x + ey * d2y) / nn2 if end1_p else (hx * d2x + hy * d2y) / nn2
    t2 = t_r if end2_r else t_s
    both = (t_end or _in_end_band(t2)) and (u_end or _in_end_band(u1))
    if (t_end or both) and _outside(u1) or (u_end or both) and _outside(t2):
        return _DISJOINT, w, w
    end = (p if end1_p else q) if t_end or both else (r if end2_r else s)
    return (_SHARED if both else _ON_INTERIOR), end, w


def intersect(s1: Segment, s2: Segment) -> IntersectionKind:
    """Classify how two segments meet.

    Returns one of Disjoint, AtSharedEndpoint, ProperCrossing,
    EndpointOnInterior, or CollinearOverlap: _classify's answer on the
    floats of one pair, the one place where a pair is decided beyond its
    first stage. The kind is the same for either argument order and
    either direction of each segment, and a point is p + t * (q - p) on
    s1, or an end. A ProperCrossing point lies strictly inside both
    segments (parametric coordinate in [PARAM_EPS, 1 - PARAM_EPS]);
    contact inside the band is reported as endpoint contact instead, so
    planarization cannot fabricate near-endpoint crossings. Segments with
    an endpoint in common are decided first and exactly, and parallel
    ones are collinear when each one's ends lie within COINCIDENCE_EPS of
    the other's line.
    """
    ends = (s1.p.x, s1.p.y), (s1.q.x, s1.q.y), (s2.p.x, s2.p.y), (s2.q.x, s2.q.y)
    code, (x0, y0), (x1, y1) = _classify(*ends)
    if code == _OVERLAP:
        return CollinearOverlap(Segment(Point(x0, y0), Point(x1, y1)))
    return Disjoint() if code == _DISJOINT else _KINDS[code](Point(x0, y0))
