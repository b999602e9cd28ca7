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
    CollinearOverlap,
    Disjoint,
    EndpointOnInterior,
    IntersectionKind,
    Point,
    ProperCrossing,
    Segment,
    Vec,
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


@dataclass(frozen=True)
class Net:
    """Immutable net value. Vertices are stored sorted by id, edges sorted
    as canonical (min, max) pairs; two nets with the same content compare
    equal regardless of construction order."""

    vertices: Tuple[Vertex, ...]
    edges: Tuple[Edge, ...]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[str]]):
        verts = tuple(sorted(vertices, key=lambda v: v.id))
        ids = [v.id for v in verts]
        dup = _first_repeat(ids)
        if dup is not None:
            raise InvariantViolation(f"duplicate vertex id: {dup}")
        id_set = set(ids)
        canon: List[Edge] = []
        for e in edges:
            u, v = e
            if u == v:
                raise InvariantViolation(f"self-loop edge at {u}")
            if u not in id_set or v not in id_set:
                missing = u if u not in id_set else v
                raise InvariantViolation(f"edge endpoint {missing} is not a vertex")
            canon.append(edge_key(u, v))
        canon.sort()
        dup_e = _first_repeat(canon)
        if dup_e is not None:
            raise InvariantViolation(f"duplicate edge: {dup_e}")
        for i, a in enumerate(verts):
            for b in verts[i + 1:]:
                if distance(a.pos, b.pos) <= COINCIDENCE_EPS:
                    raise CoincidentVertices(a.id, b.id)
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

    Row k of pos is net.vertices[k] and row i of edges and units is
    net.edges[i]; units[i] points from edges[i, 0] toward edges[i, 1].
    """

    ids: Tuple[str, ...]
    index: Dict[str, int]
    edge_index: Dict[Edge, int]
    pos: np.ndarray
    edges: np.ndarray
    free: np.ndarray
    units: np.ndarray

    @classmethod
    def of(cls, net: Net) -> "NetArrays":
        ids = tuple(v.id for v in net.vertices)
        index = {vid: k for k, vid in enumerate(ids)}
        pos = np.array([[v.pos.x, v.pos.y] for v in net.vertices], dtype=np.float64)
        pos = pos.reshape(len(ids), 2)
        edges = np.array([[index[u], index[v]] for u, v in net.edges], dtype=np.int64)
        edges = edges.reshape(len(net.edges), 2)
        free = np.array(
            [k for k, v in enumerate(net.vertices) if v.kind is VertexKind.BALANCED],
            dtype=np.int64,
        )
        units = _kernels.unit_vectors(pos, edges)
        for a in (pos, edges, free, units):
            a.setflags(write=False)
        edge_index = {e: i for i, e in enumerate(net.edges)}
        return cls(ids, index, edge_index, pos, edges, free, units)

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


def _connected(net: Net) -> bool:
    if len(net.vertices) <= 1:
        return True
    start = net.vertices[0].id
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for w in net.adjacency[cur]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(net.vertices)


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
    res = a.residuals
    residuals: Dict[str, float] = {}
    degree_violations: List[Tuple[str, int]] = []
    for k in a.free:
        vid = a.ids[k]
        deg = len(net.adjacency[vid])
        if deg < min_balanced_degree:
            degree_violations.append((vid, deg))
        if deg >= 1:
            residuals[vid] = math.hypot(res[k, 0], res[k, 1])
    max_residual = max(residuals.values(), default=0.0)

    overlay_findings: List[Tuple[Edge, Edge, IntersectionKind]] = []
    unplanarized: List[Tuple[Edge, Edge, Point]] = []
    for e1, e2, kind in _segment_pairs(net):
        if isinstance(kind, CollinearOverlap):
            overlay_findings.append((e1, e2, kind))
        elif isinstance(kind, (ProperCrossing, EndpointOnInterior)):
            unplanarized.append((e1, e2, kind.point))

    unb_unb = [
        e
        for e in net.edges
        if net.by_id[e[0]].kind is VertexKind.UNBALANCED
        and net.by_id[e[1]].kind is VertexKind.UNBALANCED
    ]

    connected = _connected(net)
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


def _segment_pairs(net: Net) -> Iterator[Tuple[Edge, Edge, IntersectionKind]]:
    """Every pair of edges that meet, as (e1, e2, kind) with e1 before e2
    in net.edges, in lexicographic order of the pair. Tests all pairs."""
    edges = net.edges
    segs = [net.segment(e) for e in edges]
    for i, s1 in enumerate(segs):
        for j in range(i + 1, len(segs)):
            kind = intersect(s1, segs[j])
            if not isinstance(kind, Disjoint):
                yield edges[i], edges[j], kind


def _interior_param(seg: Segment, pt: Point) -> Optional[float]:
    """Parametric coordinate of pt along seg if strictly interior, else None."""
    dx, dy = seg.q.x - seg.p.x, seg.q.y - seg.p.y
    ll = dx * dx + dy * dy
    t = ((pt.x - seg.p.x) * dx + (pt.y - seg.p.y) * dy) / ll
    if PARAM_EPS < t < 1.0 - PARAM_EPS:
        return t
    return None


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
    overlaps are structural errors, not crossings.

    There is no merge-radius parameter: contacts merge at COINCIDENCE_EPS,
    the distance below which Net rejects two vertices as coincident.
    A net with no interior intersections is returned unchanged.
    """
    taken = {v.id for v in net.vertices}
    fresh = (vid for vid in (f"x{n}" for n in itertools.count(1)) if vid not in taken)
    minted: List[Vertex] = []
    cuts: Dict[Edge, Dict[str, float]] = {}

    def landing(pt: Point) -> Vertex:
        for vtx in itertools.chain(net.vertices, minted):
            if distance(vtx.pos, pt) <= COINCIDENCE_EPS:
                return vtx
        minted.append(Vertex(next(fresh), pt, VertexKind.BALANCED))
        return minted[-1]

    for e1, e2, kind in _segment_pairs(net):
        if isinstance(kind, CollinearOverlap):
            raise OverlayEdges(f"edges {e1} and {e2} overlap collinearly")
        if isinstance(kind, (ProperCrossing, EndpointOnInterior)):
            vtx = landing(kind.point)
            for e in (e1, e2):
                t = _interior_param(net.segment(e), vtx.pos)
                if t is not None:
                    cuts.setdefault(e, {}).setdefault(vtx.id, t)

    if not cuts:
        return net

    new_edges: List[Edge] = []
    for e in net.edges:
        on_e = cuts.get(e, {})
        chain = [e[0], *sorted(on_e, key=on_e.get), e[1]]
        new_edges.extend(edge_key(a, b) for a, b in zip(chain, chain[1:]))
    return Net([*net.vertices, *minted], new_edges)


def is_symmetric_under_quarter_turn(net: Net, tol: float = DEFAULT_TOL) -> bool:
    """True iff a 90-degree rotation about the origin maps the net onto
    itself up to relabeling (positions within tol, kinds and adjacency
    preserved)."""
    mapping: Dict[str, str] = {}
    for v in net.vertices:
        target = rotate(v.pos, 1)
        hits = [w for w in net.vertices if distance(w.pos, target) <= tol]
        if len(hits) != 1 or hits[0].kind is not v.kind:
            return False
        mapping[v.id] = hits[0].id
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

