"""Geodesic-net data model, balance checking, verification, planarization.

A net is an embedded straight-line graph whose vertices are either
unbalanced (pinned boundary points) or balanced (free points where the
unit vectors along incident edges must sum to zero).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .geom import (
    COINCIDENCE_EPS,
    PARAM_EPS,
    _PARALLEL_EPS,
    CollinearOverlap,
    EndpointOnInterior,
    IntersectionKind,
    Point,
    ProperCrossing,
    Segment,
    Vec,
    _projected_param,
    distance,
    intersect,
    rotate,
)

Edge = Tuple[str, str]

# Default balance tolerance. Coordinates are O(1) and double precision
# contributes ~1e-15 per unit-vector term; 1e-9 leaves headroom for
# accumulated trigonometric rounding.
DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


class InvariantViolation(ValueError):
    """A net-level structural invariant is broken."""


class CoincidentVertices(InvariantViolation):
    """Two vertices lie within COINCIDENCE_EPS of each other."""

    def __init__(self, a: str, b: str):
        super().__init__(f"vertices {a} and {b} coincide within {COINCIDENCE_EPS}")
        self.ids = (a, b)


class UnknownVertex(KeyError):
    """Vertex id not present in the net."""


class IsolatedVertex(ValueError):
    """Vertex has no incident edges where at least one is required."""


class OverlayEdges(ValueError):
    """Two edges overlap collinearly (edge multiplicity would exceed 1)."""


class VertexKind(enum.Enum):
    UNBALANCED = "unbalanced"
    BALANCED = "balanced"


@dataclass(frozen=True)
class Vertex:
    id: str
    pos: Point
    kind: VertexKind
    label: Optional[str] = None


def edge_key(u: str, v: str) -> Edge:
    """Canonical unordered edge representation."""
    return (u, v) if u <= v else (v, u)


def _first_repeat(items: Sequence):
    """The first item equal to its successor, else None. In a sorted
    sequence this is the smallest repeated item."""
    return next((a for a, b in zip(items, items[1:]) if a == b), None)


def _checked_id(v: Vertex) -> str:
    """v.id, once v's fields have types a net document can hold. As Net's
    sort key it runs for every vertex before any two ids are compared."""
    vid = v.id
    if not isinstance(vid, str) or not vid:
        raise InvariantViolation(f"vertex id {vid!r} is not a non-empty string")
    if not isinstance(v.pos, Point):
        raise InvariantViolation(f"vertex {vid}: pos {v.pos!r} is not a Point")
    if not isinstance(v.kind, VertexKind):
        raise InvariantViolation(f"vertex {vid}: kind {v.kind!r} is not a VertexKind")
    if v.label is not None and not isinstance(v.label, str):
        raise InvariantViolation(f"vertex {vid}: label {v.label!r} is not a string")
    return vid


# Boxes are widened by this factor beyond the distance they must cover, so
# that rounding in their ends and in the predicates they stand in for
# cannot drop a pair.
_BOX_SLACK = 1.01


def _xy(points: Sequence[Point]) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(len(points), 2)


def _box_pairs(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the closed boxes [lo[i], hi[i]] (rows
    of x, y) that overlap, sorted lexicographically by (i, j).

    A sort and sweep (Bentley & Ottmann 1979): the boxes are sorted by
    low x, the x window of each is the run of later boxes whose low x is
    at most its high x (one searchsorted end), and of those the pairs
    whose y ranges overlap too are kept. Time and memory grow with the
    pairs in the x windows, not with the square of the number of boxes.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    ends = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    counts = ends - np.arange(1, len(order) + 1)
    first = np.repeat(np.arange(len(order)), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[np.arange(len(first)) - starts + first + 1]
    keep = (lo[a, 1] <= hi[b, 1]) & (lo[b, 1] <= hi[a, 1])
    i, j = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    pick = np.lexsort((j, i))
    return i[pick], j[pick]


def _close_pairs(points: Sequence[Point], radius: float) -> Iterator[Tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order, with distance(points[i],
    points[j]) <= radius: _box_pairs on boxes padded by radius, then distance."""
    xy = _xy(points)
    i, j = _box_pairs(xy - radius, xy + radius)
    for a, b in zip(i.tolist(), j.tolist()):
        if distance(points[a], points[b]) <= radius:
            yield a, b


@dataclass(frozen=True)
class Net:
    """Immutable net value. Vertices are stored sorted by id, edges sorted
    as canonical (min, max) pairs; two nets with the same content compare
    equal regardless of construction order. As in a net document, each
    vertex has a non-empty str id, a Point pos, a VertexKind kind and a str
    or None label; Net raises InvariantViolation for any other field."""

    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[str]]):
        verts = tuple(sorted(vertices, key=_checked_id))
        ids = [v.id for v in verts]
        dup = _first_repeat(ids)
        if dup is not None:
            raise InvariantViolation(f"duplicate vertex id: {dup}")
        id_set = set(ids)
        canon: List[Edge] = []
        for e in edges:
            try:
                if isinstance(e, str):
                    raise TypeError  # a string would unpack into its characters
                u, v = e
                u_in, v_in = u in id_set, v in id_set
            except (TypeError, ValueError):
                raise InvariantViolation(f"edge row {e!r} is not a pair of vertex ids") from None
            if u == v:
                raise InvariantViolation(f"self-loop edge at {u}")
            if not (u_in and v_in):
                raise InvariantViolation(f"edge endpoint {v if u_in else u} is not a vertex")
            canon.append(edge_key(u, v))
        canon.sort()
        dup_e = _first_repeat(canon)
        if dup_e is not None:
            raise InvariantViolation(f"duplicate edge: {dup_e}")
        for i, j in _close_pairs([v.pos for v in verts], COINCIDENCE_EPS):
            raise CoincidentVertices(verts[i].id, verts[j].id)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def by_id(self) -> Dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def adjacency(self) -> Dict[str, Tuple[str, ...]]:
        adj: Dict[str, List[str]] = {v.id: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {k: tuple(sorted(vs)) for k, vs in adj.items()}

    @cached_property
    def arrays(self) -> "NetArrays":
        return NetArrays.of(self)

    def vertex(self, vid: str) -> Vertex:
        try:
            return self.by_id[vid]
        except KeyError:
            raise UnknownVertex(vid) from None

    def degree(self, vid: str) -> int:
        self.vertex(vid)
        return len(self.adjacency[vid])

    def incident_edges(self, vid: str) -> Tuple[Edge, ...]:
        self.vertex(vid)
        return tuple(edge_key(vid, w) for w in self.adjacency[vid])

    def segment(self, e: Edge) -> Segment:
        return Segment(self.vertex(e[0]).pos, self.vertex(e[1]).pos)


@dataclass(frozen=True, eq=False)
class NetArrays:
    """Read-only index view of a net for the numeric kernels.

    Row k of pos is net.vertices[k] and row i of edges is net.edges[i].
    """

    ids: Tuple[str, ...]
    index: Dict[str, int]
    edge_index: Dict[Edge, int]
    pos: np.ndarray
    edges: np.ndarray
    free: np.ndarray

    @classmethod
    def of(cls, net: Net) -> "NetArrays":
        ids = tuple(v.id for v in net.vertices)
        index = {vid: k for k, vid in enumerate(ids)}
        pos = _xy([v.pos for v in net.vertices])
        edges = np.array([[index[u], index[v]] for u, v in net.edges], dtype=np.int64)
        edges = edges.reshape(len(net.edges), 2)
        free = np.array(
            [k for k, v in enumerate(net.vertices) if v.kind is VertexKind.BALANCED],
            dtype=np.int64,
        )
        for a in (pos, edges, free):
            a.setflags(write=False)
        edge_index = {e: i for i, e in enumerate(net.edges)}
        return cls(ids, index, edge_index, pos, edges, free)

    @cached_property
    def residuals(self) -> np.ndarray:
        """Balance residual of every vertex, row k for vertex k."""
        res = _kernels.residuals(self.pos, self.edges)
        res.setflags(write=False)
        return res


def balance_residual(net: Net, vid: str) -> Vec:
    """Sum of unit vectors along all edges leaving vid.

    Zero (within tolerance) exactly at balanced vertices of a valid net.
    """
    net.vertex(vid)
    if not net.adjacency[vid]:
        raise IsolatedVertex(f"vertex {vid} has no incident edges")
    a = net.arrays
    rx, ry = a.residuals[a.index[vid]]
    return (float(rx), float(ry))


@dataclass
class VerifyReport:
    residuals: Dict[str, float]
    max_residual: float
    degree_violations: List[Tuple[str, int]]
    overlay_findings: List[Tuple[Edge, Edge, IntersectionKind]]
    unplanarized_crossings: List[Tuple[Edge, Edge, Point]]
    unbalanced_to_unbalanced_edges: List[Edge]
    connected: bool
    passed: bool = field(default=False)


def verify(net: Net, tol: float = DEFAULT_TOL, *, min_balanced_degree: int = 3) -> VerifyReport:
    """Full validity check of a net.

    Reports per-balanced-vertex residual magnitudes, balanced vertices of
    degree below min_balanced_degree, collinear edge overlays, interior
    crossings that were never planarized, edges joining two unbalanced
    vertices, and connectivity. passed is true iff everything is clean and
    max_residual <= tol.

    min_balanced_degree is 3 for top-level nets; subnet re-verification
    relaxes it to 1 because collinear pass-through vertices of degree 2
    are legitimate there (their residual check still applies).

    Raises ValueError unless tol is finite and nonnegative.
    """
    _check_tol(tol)
    a = net.arrays
    norm = _kernels.norms(a.residuals)
    residuals: Dict[str, float] = {}
    degree_violations: List[Tuple[str, int]] = []
    for k in a.free:
        vid = a.ids[k]
        deg = len(net.adjacency[vid])
        if deg < min_balanced_degree:
            degree_violations.append((vid, deg))
        if deg >= 1:
            residuals[vid] = float(norm[k])
    max_residual = max(residuals.values(), default=0.0)

    overlay_findings: List[Tuple[Edge, Edge, IntersectionKind]] = []
    unplanarized: List[Tuple[Edge, Edge, Point]] = []
    for e1, e2, kind in _segment_pairs(net):
        if isinstance(kind, CollinearOverlap):
            overlay_findings.append((e1, e2, kind))
        else:
            unplanarized.append((e1, e2, kind.point))

    balanced = np.zeros(len(a.ids), dtype=bool)
    balanced[a.free] = True
    unb_unb = [net.edges[k] for k in np.flatnonzero(~balanced[a.edges].any(axis=1)).tolist()]

    # from vertex row 0, when there is one
    connected = _kernels.reaches_all(len(a.ids), range(len(a.ids))[:1], a.edges)
    passed = (
        max_residual <= tol
        and not degree_violations
        and not overlay_findings
        and not unplanarized
        and not unb_unb
        and connected
    )
    return VerifyReport(
        residuals=residuals,
        max_residual=max_residual,
        degree_violations=degree_violations,
        overlay_findings=overlay_findings,
        unplanarized_crossings=unplanarized,
        unbalanced_to_unbalanced_edges=unb_unb,
        connected=connected,
        passed=passed,
    )


# The kinds of contact that verify reports and planarize acts on.
_REPORTED = (ProperCrossing, EndpointOnInterior, CollinearOverlap)


def _candidate_pairs(net: Net) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge index arrays (i, j), i < j, of the broad phase's candidate
    pairs in lexicographic order, and the mask of those that intersect may
    report (_REPORTED). A pair outside the mask is one that intersect
    calls Disjoint or AtSharedEndpoint.

    The broad phase keeps the pairs whose bounding boxes overlap once each
    box is padded by intersect's own acceptance bands, COINCIDENCE_EPS +
    PARAM_EPS * length, and _BOX_SLACK. A pair whose padded boxes are
    apart is one that intersect calls Disjoint in exact arithmetic. Only
    rounding in intersect's parametric solve of a nearly parallel pair
    could accept such a pair, at a point that lies on neither segment; the
    index drops it.

    The mask is a filtered predicate (Shewchuk 1997): it drops a pair only
    where intersect's answer is clear. dot, cross, den, t and u below are
    intersect's own IEEE expressions on the same coordinates, so they are
    its values bit for bit. Only the lengths differ: _kernels.norms and
    math.hypot each round a length to within a few ulps, so no test that
    reads a length can flip under a bound twice intersect's.

    - Edges with a common vertex w (by index: Net rejects distinct
      vertices within COINCIDENCE_EPS, so this is intersect's coordinate
      equality) leave w along legs a and b. intersect answers
      AtSharedEndpoint when dot(a, b) <= 0, and also when
      |cross(a, b)| / max(|a|, |b|) > COINCIDENCE_EPS. The mask drops
      the first exactly and the second past 2 * COINCIDENCE_EPS.
    - Other edges are Disjoint when they are not parallel, |den| >
      _PARALLEL_EPS * len1 * len2, and their parametric t or u lies outside
      [-PARAM_EPS, 1 + PARAM_EPS]. The mask drops them past twice the
      parallel threshold, and outside [-2 * PARAM_EPS, 1 + 2 * PARAM_EPS]
      for spare.
    """
    a = net.arrays
    ends, pos = a.edges, a.pos
    p0, p1 = pos[ends[:, 0]], pos[ends[:, 1]]
    length = _kernels.norms(p1 - p0)
    pad = (COINCIDENCE_EPS + PARAM_EPS * length) * _BOX_SLACK
    i, j = _box_pairs(np.minimum(p0, p1) - pad[:, None], np.maximum(p0, p1) + pad[:, None])
    ei, ej = ends[i], ends[j]
    same = (ei[:, :, None] == ej[:, None, :]).reshape(-1, 4)
    shared = same.any(axis=1)
    keep = np.ones(len(i), dtype=bool)

    # column k of ei and column m of ej hold the common vertex w
    s = np.flatnonzero(shared)
    k, m = np.divmod(same[s].argmax(axis=1), 2)
    w = pos[ei[s, k]]
    la, lb = pos[ei[s, 1 - k]] - w, pos[ej[s, 1 - m]] - w
    dot = la[:, 0] * lb[:, 0] + la[:, 1] * lb[:, 1]
    cross = la[:, 0] * lb[:, 1] - la[:, 1] * lb[:, 0]
    wide = np.abs(cross) > 2.0 * COINCIDENCE_EPS * np.maximum(length[i[s]], length[j[s]])
    keep[s] = ~((dot <= 0.0) | wide)

    n = np.flatnonzero(~shared)
    p, r = pos[ei[n, 0]], pos[ej[n, 0]]
    d1, d2, e = pos[ei[n, 1]] - p, pos[ej[n, 1]] - r, r - p
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (e[:, 0] * d2[:, 1] - e[:, 1] * d2[:, 0]) / den
        u = (e[:, 0] * d1[:, 1] - e[:, 1] * d1[:, 0]) / den
    band = 2.0 * PARAM_EPS
    nonparallel = np.abs(den) > 2.0 * _PARALLEL_EPS * length[i[n]] * length[j[n]]
    outside = (t < -band) | (t > 1.0 + band) | (u < -band) | (u > 1.0 + band)
    keep[n] = ~(nonparallel & outside)
    return i, j, keep


def _segment_pairs(net: Net) -> Iterator[Tuple[Edge, Edge, IntersectionKind]]:
    """Every pair of edges that cross, touch at an interior point or
    overlap, as (e1, e2, kind) with e1 before e2 in net.edges, in
    lexicographic order of the pair; kind is intersect's answer, one of
    _REPORTED. Pairs that meet only at a shared endpoint are left out.

    intersect decides only the candidate pairs that _candidate_pairs
    cannot rule out in numpy; see there for the bound argument. Each
    Segment is built once, for the edges those pairs touch.
    """
    edges = net.edges
    i, j, keep = _candidate_pairs(net)
    i, j = i[keep].tolist(), j[keep].tolist()
    segs = {k: net.segment(edges[k]) for k in {*i, *j}}
    for k, m in zip(i, j):
        kind = intersect(segs[k], segs[m])
        if isinstance(kind, _REPORTED):
            yield edges[k], edges[m], kind


def planarize(net: Net) -> Net:
    """Subdivide edges so they meet only at vertices.

    Every proper crossing and every endpoint-on-interior contact lands on
    a vertex: the first vertex of the net, else the first vertex minted so
    far, within COINCIDENCE_EPS of the contact point. When there is none,
    a balanced vertex x<n> is minted there at once, n the smallest number
    whose id is not taken. Each edge of the pair that the vertex lies
    strictly inside is cut at it, so a contact at an existing vertex keeps
    that vertex and its kind. Edge pairs are processed in lexicographic
    id-pair order, so the ids and the output are canonical. Collinear
    overlaps, and two edges cut into the same piece, raise OverlayEdges.

    There is no merge-radius parameter: contacts merge at COINCIDENCE_EPS,
    the distance below which Net rejects two vertices as coincident.
    A net with no interior intersections is returned unchanged.
    """
    contacts: List[Tuple[Edge, Edge, Point]] = []
    for e1, e2, kind in _segment_pairs(net):
        if isinstance(kind, CollinearOverlap):
            raise OverlayEdges(f"edges {e1} and {e2} overlap collinearly")
        contacts.append((e1, e2, kind.point))
    if not contacts:
        return net

    # Point k of the net's vertices followed by the contact points is owned
    # by a vertex at that position: net vertex k, or the vertex minted at
    # contact k - nv. A contact lands on the first owner within
    # COINCIDENCE_EPS among the points before it; owners are net vertices
    # in id order, then minted ones in the order they were minted.
    nv = len(net.vertices)
    near: List[List[int]] = [[] for _ in contacts]
    points = [*(v.pos for v in net.vertices), *(pt for _, _, pt in contacts)]
    for i, j in _close_pairs(points, COINCIDENCE_EPS):
        if j >= nv:
            near[j - nv].append(i)
    owner: List[Optional[Vertex]] = [*net.vertices, *(None for _ in contacts)]
    taken = {v.id for v in net.vertices}
    fresh = (vid for vid in (f"x{n}" for n in itertools.count(1)) if vid not in taken)
    minted: List[Vertex] = []
    cuts: Dict[Edge, Dict[str, float]] = {}
    for k, (e1, e2, pt) in enumerate(contacts):
        vtx = next((owner[c] for c in near[k] if owner[c] is not None), None)
        if vtx is None:
            vtx = owner[nv + k] = Vertex(next(fresh), pt, VertexKind.BALANCED)
            minted.append(vtx)
        for e in (e1, e2):
            t = _projected_param(net.segment(e), vtx.pos)
            if PARAM_EPS < t < 1.0 - PARAM_EPS:
                cuts.setdefault(e, {}).setdefault(vtx.id, t)

    if not cuts:
        return net

    # Each piece maps to the edge it was cut from; two edges cut into the
    # same piece overlap along it.
    pieces: Dict[Edge, Edge] = {}
    for e in net.edges:
        on_e = cuts.get(e, {})
        chain = [e[0], *sorted(on_e, key=on_e.get), e[1]]
        for piece in map(edge_key, chain, chain[1:]):
            first = pieces.setdefault(piece, e)
            if first != e:
                raise OverlayEdges(f"edges {first} and {e} overlap along {piece}")
    return Net([*net.vertices, *minted], list(pieces))


def is_symmetric_under_quarter_turn(net: Net, tol: float = DEFAULT_TOL) -> bool:
    """True iff a 90-degree rotation about the origin maps the net onto
    itself up to relabeling (positions within tol, kinds and adjacency
    preserved).

    Raises ValueError unless tol is finite and nonnegative.
    """
    _check_tol(tol)
    verts = net.vertices
    nv = len(verts)
    hits: List[List[Vertex]] = [[] for _ in verts]
    for i, j in _close_pairs([*(v.pos for v in verts), *(rotate(v.pos, 1) for v in verts)], tol):
        if i < nv <= j:
            hits[j - nv].append(verts[i])
    mapping: Dict[str, str] = {}
    for v, found in zip(verts, hits):
        if len(found) != 1 or found[0].kind is not v.kind:
            return False
        mapping[v.id] = found[0].id
    if len(set(mapping.values())) != len(net.vertices):
        return False
    mapped = {edge_key(mapping[u], mapping[v]) for u, v in net.edges}
    return mapped == set(net.edges)


def relabeled(net: Net, mapping: Dict[str, str]) -> Net:
    """Rename vertices through mapping (ids not mentioned stay put).

    The mapping is applied atomically, so permutations are fine.
    """
    def rename(vid: str) -> str:
        return mapping.get(vid, vid)

    verts = [Vertex(rename(v.id), v.pos, v.kind, v.label) for v in net.vertices]
    return Net(verts, [(rename(u), rename(v)) for u, v in net.edges])


def edge_subnet(net: Net, edges: Iterable[Edge]) -> Net:
    """Materialize an edge subset as a net; vertices incident to no chosen
    edge are dropped."""
    chosen = {edge_key(*e) for e in edges}
    parent = set(net.edges)
    for e in chosen:
        if e not in parent:
            raise InvariantViolation(f"edge {e} is not in the parent net")
    keep = {u for e in chosen for u in e}
    verts = [v for v in net.vertices if v.id in keep]
    return Net(verts, sorted(chosen))

