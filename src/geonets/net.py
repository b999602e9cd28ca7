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
    _CONTACTS,
    COINCIDENCE_EPS,
    CollinearOverlap,
    IntersectionKind,
    Point,
    Segment,
    Vec,
    _apart,
    _contact_pad,
    _legs_overlap,
    _projected_param,
    intersect,
)

Edge = Tuple[str, str]

# Default balance tolerance. Coordinates are O(1) and double precision
# contributes ~1e-15 per unit-vector term; 1e-9 leaves headroom for
# accumulated trigonometric rounding.
DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _check_int(name: str, value, least: int) -> None:
    """Raises ValueError unless value is an int >= least; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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


def _valid_id(vid) -> str:
    """vid, once it is a non-empty str, as a net document's ids are."""
    if not isinstance(vid, str) or not vid:
        raise InvariantViolation(f"vertex id {vid!r} is not a non-empty string")
    return vid


def _checked_id(v: Vertex) -> str:
    """v.id, once v's fields have types a net document can hold. Net runs
    it on every vertex, in order, before any two ids are compared."""
    vid = _valid_id(v.id)
    if not isinstance(v.pos, Point):
        raise InvariantViolation(f"vertex {vid}: pos {v.pos!r} is not a Point")
    if not isinstance(v.kind, VertexKind):
        raise InvariantViolation(f"vertex {vid}: kind {v.kind!r} is not a VertexKind")
    if v.label is not None and not isinstance(v.label, str):
        raise InvariantViolation(f"vertex {vid}: label {v.label!r} is not a string")
    return vid


def _edge_pair(e) -> Tuple:
    """The two ends of the edge row e, once e is a pair (a str is not) of
    hashable items; raises InvariantViolation for any other row."""
    try:
        if isinstance(e, str):
            raise TypeError  # a string would unpack into its characters
        u, v = e
        hash((u, v))
    except (TypeError, ValueError):
        raise InvariantViolation(f"edge row {e!r} is not a pair of vertex ids") from None
    return u, v


def _edge_row(e) -> Edge:
    """edge_key of the row e, once e is a pair of str ids (_edge_pair)."""
    u, v = _edge_pair(e)
    if not (isinstance(u, str) and isinstance(v, str)):
        raise InvariantViolation(f"edge row {e!r} is not a pair of vertex ids")
    return edge_key(u, v)


def _named(ids: Sequence[str], ends: np.ndarray, rows) -> List[Edge]:
    """The (min, max) id pair of each edge row in rows (anything that
    indexes the rows of ends): the one place edge rows are named by ids."""
    lo, hi = ends[rows].T.tolist()
    return list(zip(map(ids.__getitem__, lo), map(ids.__getitem__, hi)))


def _checked_ends(rows: Sequence, index: Dict[str, int]) -> Iterator[int]:
    """The vertex rows of the ends of each edge row in turn, once that edge
    row is a pair of distinct vertex ids; raises for the first that is not."""
    for e in rows:
        u, v = _edge_pair(e)
        if u == v:
            raise InvariantViolation(f"self-loop edge at {u}")
        if u not in index or v not in index:
            raise InvariantViolation(f"edge endpoint {v if u in index else u} is not a vertex")
        yield index[u]
        yield index[v]


def _box_pairs(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the closed boxes [lo[i], hi[i]] (rows
    of x, y) that overlap, sorted lexicographically by (i, j).

    A sort and sweep (Bentley & Ottmann 1979): the boxes are sorted by
    low x, the x window of each is the run of later boxes whose low x is
    at most its high x (one searchsorted end), and of those the pairs
    whose y ranges overlap too are kept. Time and memory grow with the
    pairs in the x windows, not with the square of the number of boxes.
    When no x window holds a box, as in Net's coincidence check when no
    two vertices are that close in x, the empty answer comes straight
    after the searchsorted. The y test runs on positions in the sorted
    order, so only the kept pairs are mapped back to box indices.
    """
    (x0, y0), (x1, y1) = lo.T, hi.T
    order = x0.argsort(kind="stable")
    n = len(order)
    stop = x0[order].searchsorted(x1[order], side="right")
    counts = stop - np.arange(1, n + 1)
    if not counts.any():
        return order[:0], order[:0]
    # Pair t is (first, second) in sorted positions. The window of first
    # holds positions first + 1 to stop - 1, and its pairs start at
    # t = cumsum - counts, so second = t + stop - cumsum.
    first = np.arange(n).repeat(counts)
    second = np.arange(len(first)) + (stop - counts.cumsum()).repeat(counts)
    y0, y1 = y0[order], y1[order]
    keep = (y0[first] <= y1[second]) & (y0[second] <= y1[first])
    a, b = order[first[keep]], order[second[keep]]
    i, j = np.minimum(a, b), np.maximum(a, b)
    # i * n + j orders the pairs as (i, j) does, and no two pairs tie
    pick = (i * n + j).argsort()
    return i[pick], j[pick]


def _close_pairs(xy: np.ndarray, radius: float) -> Iterator[Tuple[int, int]]:
    """Index pairs (i, j), i < j, in lexicographic order, of the rows of the
    (n, 2) array xy within radius of each other: _box_pairs on boxes padded
    by radius, then geom.distance's math.hypot of the difference."""
    i, j = _box_pairs(xy - radius, xy + radius)
    for a, b, (dx, dy) in zip(i.tolist(), j.tolist(), (xy[j] - xy[i]).tolist()):
        if math.hypot(dx, dy) <= radius:
            yield a, b


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Net:
    """Immutable net value, held as columns sorted by id: ids, balanced,
    labels and pos (x, y) per vertex; ends, the sorted (min, max) vertex
    rows of the edges, and edges, their id pairs, built on first read;
    index maps each id to its row. balanced, pos and ends are read-only
    numpy arrays. Nets with the same content are equal regardless of
    construction order. As in a net document, each Vertex given to Net has
    a non-empty str id, a Point pos, a VertexKind kind and a str or None
    label; Net raises InvariantViolation for any other field."""

    ids: Tuple[str, ...]
    balanced: np.ndarray
    labels: Tuple[Optional[str], ...]
    pos: np.ndarray
    ends: np.ndarray
    index: Dict[str, int]

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[str]]):
        verts = list(vertices)
        ids = [_checked_id(v) for v in verts]
        balanced = [v.kind is VertexKind.BALANCED for v in verts]
        xy = [(v.pos.x, v.pos.y) for v in verts]
        vars(self).update(vars(Net._from_columns(ids, balanced, [v.label for v in verts], xy, edges)))

    @classmethod
    def _from_columns(cls, ids, balanced, labels, pos, edges) -> "Net":
        """The net of the well-typed columns in any row order, checked as
        Net() checks its vertices. It finds the smallest duplicate id, the
        first edge row in input order that is not a pair of distinct vertex
        ids and the smallest duplicate edge (the topology half), then the
        first coincident pair (the geometry half, all that _with_pos runs)."""
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = tuple(map(ids.__getitem__, order))
        index = dict(zip(ids, range(len(ids))))
        if len(index) < len(ids):  # ids are sorted, so the first repeat is the smallest
            first = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise InvariantViolation(f"duplicate vertex id: {first}")
        rows = edges if isinstance(edges, (list, tuple)) else list(edges)
        try:
            if str in {*map(type, rows)} or {*map(len, rows)} - {2}:
                raise TypeError  # a string would unpack into its characters
            endpoints = itertools.chain.from_iterable(rows)
            ends = np.fromiter(map(index.__getitem__, endpoints), np.int64, 2 * len(rows))
        except (TypeError, KeyError, ValueError):  # some row is not a pair of vertex ids
            ends = np.fromiter(_checked_ends(rows, index), np.int64)
        # each row as (min, max), still in input order: rows are in id
        # order, so these are the rows of the canonical (min, max) id pairs
        ends = ends.reshape(-1, 2)
        ends.sort(axis=1)
        lo, hi = ends.T
        loops = lo == hi
        if loops.any():
            raise InvariantViolation(f"self-loop edge at {ids[lo[loops.argmax()]]}")
        keys = lo * len(ids) + hi
        ends = ends[keys.argsort()]
        keys.sort()
        repeats = keys[1:] == keys[:-1]
        if repeats.any():
            raise InvariantViolation(f"duplicate edge: {_named(ids, ends, [repeats.argmax()])[0]}")
        # Fancy indexing copies, so no caller's array is frozen below.
        take = np.fromiter(order, np.intp, len(order))
        pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)[take]
        for i, j in _close_pairs(pos, COINCIDENCE_EPS):
            raise CoincidentVertices(ids[i], ids[j])
        labels = tuple(map(labels.__getitem__, order))
        return cls._derived(ids, np.asarray(balanced, dtype=bool)[take], labels, pos, ends, index)

    @classmethod
    def _derived(cls, ids, balanced, labels, pos, ends, index) -> "Net":
        """The net of columns in id order whose topology comes from a checked
        net, unchecked: relax and moved check new positions (_with_pos), and
        edge_subnet renumbers a row subset, which needs no check."""
        net = cls.__new__(cls)
        vars(net).update(ids=ids, balanced=_read_only(balanced), labels=labels,
                         pos=_read_only(pos), ends=_read_only(ends), index=index)
        return net

    def _with_pos(self, pos: np.ndarray) -> "Net":
        """This net at pos, a fresh (n, 2) array it keeps read-only, once no
        two vertices coincide. Positions equal to this net's passed that
        check already, so they skip it."""
        if not np.array_equal(pos, self.pos):
            for i, j in _close_pairs(pos, COINCIDENCE_EPS):
                raise CoincidentVertices(self.ids[i], self.ids[j])
        return Net._derived(self.ids, self.balanced, self.labels, pos, self.ends, self.index)

    def __reduce__(self):
        # a pickled or copied net passes the checking path again, which
        # leaves its arrays read-only
        return Net._from_columns, (self.ids, self.balanced, self.labels, self.pos, self.edges)

    def _content(self) -> tuple:
        # pos by float value, so that 0.0 and -0.0 compare and hash alike
        xy = tuple(self.pos.ravel().tolist())
        return (self.ids, self.ends.tobytes(), self.labels, self.balanced.tobytes(), xy)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def __repr__(self) -> str:
        return f"Net(vertices={self.vertices!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        """The canonical (min, max) id pair of each row of ends."""
        return tuple(_named(self.ids, self.ends, slice(None)))

    @cached_property
    def edge_index(self) -> Dict[Edge, int]:
        """The row of each canonical edge: the one place id pairs are
        looked up as edge rows."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def free(self) -> np.ndarray:
        """Rows of the balanced vertices, ascending."""
        return _read_only(np.flatnonzero(self.balanced))

    @cached_property
    def _degrees(self) -> np.ndarray:
        """Number of edges at every vertex, row k for vertex k."""
        return _read_only(np.bincount(self.ends.ravel(), minlength=len(self.ids)))

    @cached_property
    def residuals(self) -> np.ndarray:
        """Balance residual of every vertex, row k for vertex k."""
        return _read_only(_kernels.residuals(self.pos, self.ends))

    @cached_property
    def vertices(self) -> Tuple[Vertex, ...]:
        kinds = (VertexKind.UNBALANCED, VertexKind.BALANCED)
        rows = zip(self.ids, self.pos.tolist(), self.balanced.tolist(), self.labels)
        return tuple(Vertex(vid, Point(x, y), kinds[b], label) for vid, (x, y), b, label in rows)

    @cached_property
    def by_id(self) -> Dict[str, Vertex]:
        return dict(zip(self.ids, self.vertices))

    @cached_property
    def adjacency(self) -> Dict[str, Tuple[str, ...]]:
        adj: Dict[str, List[str]] = {vid: [] for vid in self.ids}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {k: tuple(sorted(vs)) for k, vs in adj.items()}

    def _row(self, vid: str) -> int:
        try:
            return self.index[vid]
        except KeyError:
            raise UnknownVertex(vid) from None

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self._row(vid)]

    def degree(self, vid: str) -> int:
        return int(self._degrees[self._row(vid)])

    def incident_edges(self, vid: str) -> Tuple[Edge, ...]:
        self._row(vid)
        return tuple(edge_key(vid, w) for w in self.adjacency[vid])


def balance_residual(net: Net, vid: str) -> Vec:
    """Sum of unit vectors along all edges leaving vid.

    Zero (within tolerance) exactly at balanced vertices of a valid net.
    """
    k = net._row(vid)
    if not net._degrees[k]:
        raise IsolatedVertex(f"vertex {vid} has no incident edges")
    rx, ry = net.residuals[k]
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

    Raises ValueError unless tol is finite and nonnegative and
    min_balanced_degree an int >= 0 (a bool or a float is refused).
    """
    _check_tol(tol)
    _check_int("min_balanced_degree", min_balanced_degree, 0)
    norm = _kernels.norms(net.residuals).tolist()
    degrees = net._degrees.tolist()
    residuals: Dict[str, float] = {}
    degree_violations: List[Tuple[str, int]] = []
    for k in net.free.tolist():
        vid, deg = net.ids[k], degrees[k]
        if deg < min_balanced_degree:
            degree_violations.append((vid, deg))
        if deg >= 1:
            residuals[vid] = norm[k]
    max_residual = max(residuals.values(), default=0.0)

    overlay_findings: List[Tuple[Edge, Edge, IntersectionKind]] = []
    unplanarized: List[Tuple[Edge, Edge, Point]] = []
    for e1, e2, kind in _segment_pairs(net):
        if isinstance(kind, CollinearOverlap):
            overlay_findings.append((e1, e2, kind))
        else:
            unplanarized.append((e1, e2, kind.point))

    pinned = ~net.balanced[net.ends].any(axis=1)
    unb_unb = _named(net.ids, net.ends, pinned)

    # every root is vertex row 0, the lowest
    connected = bool((_kernels.unions(len(net.ids), *net.ends.T.tolist())[1] == 0).all())
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
    """Every pair of edges that cross, touch at an interior point or
    overlap, as (e1, e2, kind) with e1 before e2 in net.edges, in
    lexicographic order of the pair, and kind intersect's answer: a
    ProperCrossing, EndpointOnInterior or CollinearOverlap. Pairs that
    meet only at a shared endpoint are left out.

    The candidates are the pairs whose bounding boxes overlap once each is
    padded by geom._contact_pad. The first stage of geom._classify
    settles those that meet at a common vertex or not at all, keyed here
    by end rows rather than coordinates: Net holds no two vertices within
    COINCIDENCE_EPS, so two edges share an end exactly when they share a
    row of ends. geom._legs_overlap runs on every candidate, from the
    edge vectors and lengths that also size the pads, and geom._apart
    only on the candidates with no end row in common. intersect decides
    each pair they leave open. The segment of each edge in an open pair
    is built once from its own rows of p0 and p1.
    """
    ends, pos = net.ends, net.pos
    # take gathers the rows of a two-column array in about a tenth of the
    # time that indexing by an index array takes (numpy 2.4)
    p0, p1 = pos.take(ends[:, 0], axis=0), pos.take(ends[:, 1], axis=0)
    d = p1 - p0
    length = _kernels.norms(d)
    pad = _contact_pad(length)[:, None]
    i, j = _box_pairs(np.minimum(p0, p1) - pad, np.maximum(p0, p1) + pad)
    (a0, a1), (b0, b1) = ends.take(i, axis=0).T, ends.take(j, axis=0).T
    same, flip = (a0 == b0) | (a1 == b1), (a0 == b1) | (a1 == b0)
    left = _legs_overlap(same, flip, d.take(i, axis=0).T, d.take(j, axis=0).T, length[i], length[j])
    apart = np.flatnonzero(~(same | flip))
    if apart.size:
        k, m = i[apart], j[apart]
        p, q, r, s = p0.take(k, axis=0), p1.take(k, axis=0), p0.take(m, axis=0), p1.take(m, axis=0)
        vectors = (q - p).T, (s - r).T, (r - p).T, (s - p).T, (q - r).T
        left[apart] = _apart(*vectors, length[k], length[m])[0]
    i, j = i[left].tolist(), j[left].tolist()
    rows = list(dict.fromkeys(i + j))
    segs = {k: Segment(Point(*p0[k].tolist()), Point(*p1[k].tolist())) for k in rows}
    names = dict(zip(rows, _named(net.ids, ends, rows)))
    for k, m in zip(i, j):
        if isinstance(kind := intersect(segs[k], segs[m]), _CONTACTS):
            yield names[k], names[m], kind


def planarize(net: Net) -> Net:
    """Subdivide edges so they meet only at vertices.

    Every proper crossing and every endpoint-on-interior contact lands on
    a vertex: the first vertex of the net, else the first vertex minted so
    far, within COINCIDENCE_EPS of the contact point. When there is none,
    a balanced vertex x<n> is minted there at once, n the smallest number
    whose id is not taken. Each edge of the pair is cut at that vertex
    unless the vertex is one of the edge's two end rows, so a contact at an
    existing vertex keeps that vertex and its kind, and every contact cuts
    at least one edge: two edges that share an end are never reported as
    meeting elsewhere. The cuts on an edge are ordered by their projection
    onto it. Edge pairs are processed in lexicographic id-pair order, so
    the ids and the output are canonical. Collinear overlaps, and two edges
    cut into the same piece, raise OverlayEdges.

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
    # contact k - nv; owner[k] is its row among the net's vertices followed
    # by the minted ones. A contact lands on the first owner within
    # COINCIDENCE_EPS among the points before it; owners are net vertices
    # in id order, then minted ones in the order they were minted.
    nv = len(net.ids)
    near: List[List[int]] = [[] for _ in contacts]
    points = np.concatenate((net.pos, [(pt.x, pt.y) for *_, pt in contacts]))
    for i, j in _close_pairs(points, COINCIDENCE_EPS):
        if j >= nv:
            near[j - nv].append(i)
    owner: List[Optional[int]] = [*range(nv), *(None for _ in contacts)]
    index, ids, xy = net.index, list(net.ids), net.pos.tolist()
    taken = set(ids)
    fresh = (vid for vid in (f"x{n}" for n in itertools.count(1)) if vid not in taken)
    # the cuts on each edge, keyed by its (min, max) end rows: the parameter
    # along the edge of each vertex row it is cut at
    cuts: Dict[Tuple[int, int], Dict[int, float]] = {}
    for k, (e1, e2, pt) in enumerate(contacts):
        row = next((owner[c] for c in near[k] if owner[c] is not None), None)
        if row is None:
            row = owner[nv + k] = len(ids)
            ids.append(next(fresh))
            xy.append((pt.x, pt.y))
        for a, b in ((index[e1[0]], index[e1[1]]), (index[e2[0]], index[e2[1]])):
            if row != a and row != b:
                cuts.setdefault((a, b), {}).setdefault(row, _projected_param(xy[a], xy[b], xy[row]))

    # Each piece, keyed by its (min, max) vertex rows, maps to the edge it
    # was cut from; two edges cut into the same piece overlap along it.
    pieces: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for a, b in net.ends.tolist():
        on_e = cuts.get((a, b), {})
        chain = [a, *sorted(on_e, key=on_e.get), b]
        for piece in zip(map(min, chain, chain[1:]), map(max, chain, chain[1:])):
            first = pieces.setdefault(piece, (a, b))
            if first != (a, b):
                f, e, p = (edge_key(ids[u], ids[v]) for u, v in (first, (a, b), piece))
                raise OverlayEdges(f"edges {f} and {e} overlap along {p}")
    minted = len(ids) - nv
    balanced = [*net.balanced.tolist(), *[True] * minted]
    edges = [(ids[u], ids[v]) for u, v in pieces]
    return Net._from_columns(ids, balanced, [*net.labels, *[None] * minted], xy, edges)


def is_symmetric_under_quarter_turn(net: Net, tol: float = DEFAULT_TOL) -> bool:
    """True iff a 90-degree rotation about the origin maps the net onto
    itself up to relabeling (positions within tol, kinds and adjacency
    preserved).

    Raises ValueError unless tol is finite and nonnegative.
    """
    _check_tol(tol)
    pos, nv = net.pos, len(net.ids)
    # geom.rotate's quarter turn, (x, y) -> (-y, x), exactly
    turned = np.stack((-pos[:, 1], pos[:, 0]), axis=1)
    hits: List[List[int]] = [[] for _ in range(nv)]
    for i, j in _close_pairs(np.concatenate((pos, turned)), tol):
        if i < nv <= j:
            hits[j - nv].append(i)
    # image[k] is the row that vertex row k turns onto
    image: List[int] = []
    for k, found in enumerate(hits):
        if len(found) != 1 or net.balanced[found[0]] != net.balanced[k]:
            return False
        image.append(found[0])
    if len(set(image)) != nv:
        return False
    lo, hi = np.sort(np.asarray(image, dtype=np.int64)[net.ends], axis=1).T
    return np.array_equal(np.sort(lo * nv + hi), np.sort(net.ends[:, 0] * nv + net.ends[:, 1]))


def relabeled(net: Net, mapping: Dict[str, str]) -> Net:
    """Rename vertices through mapping (ids not mentioned stay put).

    The mapping is applied atomically, so permutations are fine.
    """
    ids = [_valid_id(mapping.get(vid, vid)) for vid in net.ids]
    return Net._from_columns(ids, net.balanced, net.labels, net.pos, _named(ids, net.ends, slice(None)))


def edge_subnet(net: Net, edges: Iterable[Edge]) -> Net:
    """Materialize an edge subset as a net; vertices incident to no chosen
    edge are dropped. Raises InvariantViolation at the first row, in input
    order, that is not a pair of vertex ids or not an edge of net."""
    chosen = set()
    for e in map(_edge_row, edges):
        if e not in net.edge_index:
            raise InvariantViolation(f"edge {e} is not in the parent net")
        chosen.add(net.edge_index[e])
    # the kept rows keep their order, so renumbering them keeps ends sorted
    picked = net.ends[sorted(chosen)]
    keep, ends = np.unique(picked.ravel(), return_inverse=True)
    ids = tuple(map(net.ids.__getitem__, keep.tolist()))
    labels = tuple(map(net.labels.__getitem__, keep.tolist()))
    index = dict(zip(ids, range(len(ids))))
    return Net._derived(ids, net.balanced[keep], labels, net.pos[keep], ends.reshape(-1, 2), index)
