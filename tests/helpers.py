"""Shared test utilities: random nets, brute-force oracles, tree covers."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from geonets import (
    Edge,
    IntersectionKind,
    Irreducible,
    Net,
    Point,
    Segment,
    Triangle,
    Vertex,
    VertexKind,
    WideAngleTriangle,
    balanced_edge_subsets,
    build_paper_net,
    edge_key,
    fermat_point,
    planarize,
    unit_vector,
)
from geonets.geom import _CONTACTS, _OPEN, COINCIDENCE_EPS, _classify, distance, intersect


B = VertexKind.BALANCED
U = VertexKind.UNBALANCED


def vertex(vid: str, x: float, y: float, kind: VertexKind = U, label: Optional[str] = None) -> Vertex:
    """Vertex vid at (x, y), a pin unless kind says otherwise."""
    return Vertex(vid, Point(x, y), kind, label)


def run_python(args: Sequence[str], **env: str) -> subprocess.CompletedProcess:
    """Run this interpreter on args in a new process, with the repository's
    src first on PYTHONPATH and env added to the environment; its output is
    captured as text."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)


def random_net(rng: random.Random) -> Net:
    """A small random connected net on jittered grid points.

    Vertex kinds are random, so the net is generally not balanced; it is
    still a legal Net (distinct positions, connected, no self loops) and
    that is all the gradient checks need.
    """
    n = rng.randint(4, 9)
    cols = 3
    vertices = []
    for i in range(n):
        gx, gy = i % cols, i // cols
        x = 2.0 * gx + rng.uniform(-0.6, 0.6)
        y = 2.0 * gy + rng.uniform(-0.6, 0.6)
        kind = VertexKind.BALANCED if rng.random() < 0.6 else VertexKind.UNBALANCED
        vertices.append(Vertex(f"v{i}", Point(x, y), kind))
    # random spanning tree, then a few extra edges
    edges: Set[Edge] = set()
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        edges.add(edge_key(f"v{a}", f"v{b}"))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add(edge_key(f"v{a}", f"v{b}"))
    return Net(vertices, sorted(edges))


# all_segment_pairs settles at most this many pairs in one array call,
# which holds its memory to a few MB.
_ORACLE_BLOCK = 1 << 14


def edge_segment(net: Net, e: Edge) -> Segment:
    """The Segment of edge e, between the net.pos rows of its ends."""
    p, q = net.pos[[net.index[e[0]], net.index[e[1]]]].tolist()
    return Segment(Point(*p), Point(*q))


def all_segment_pairs(net: Net) -> List[Tuple[Edge, Edge, IntersectionKind]]:
    """Oracle for net._segment_pairs: every pair of edges, without a broad
    phase, in lexicographic order of the pair, from the coordinates of
    edge_segment. The first stage of geom._classify runs over them in
    array calls of _ORACLE_BLOCK pairs, intersect decides each pair it
    leaves open, and the pairs that cross, touch at an interior point or
    overlap are kept, each with intersect's answer."""
    edges = net.edges
    segs = [edge_segment(net, e) for e in edges]
    # rows px, py, qx, qy of the edges
    xy = np.array([(s.p.x, s.p.y, s.q.x, s.q.y) for s in segs]).reshape(-1, 4).T.copy()
    i, j = np.triu_indices(len(segs), 1)
    codes = [np.empty(0, dtype=int)]
    for k in range(0, len(i), _ORACLE_BLOCK):
        a, b = xy[:, i[k:k + _ORACLE_BLOCK]], xy[:, j[k:k + _ORACLE_BLOCK]]
        codes.append(_classify((a[0], a[1]), (a[2], a[3]), (b[0], b[1]), (b[2], b[3])))
    left = np.concatenate(codes) == _OPEN
    answers = ((edges[k], edges[m], intersect(segs[k], segs[m]))
               for k, m in zip(i[left].tolist(), j[left].tolist()))
    return [answer for answer in answers if isinstance(answer[2], _CONTACTS)]


def first_coincident_pair(vertices: Sequence[Vertex]) -> Optional[Tuple[str, str]]:
    """Oracle for Net's coincidence check: the first pair of vertices, in
    id order, within COINCIDENCE_EPS of each other, else None."""
    verts = sorted(vertices, key=lambda v: v.id)
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            if distance(a.pos, b.pos) <= COINCIDENCE_EPS:
                return a.id, b.id
    return None


def jitter(rng: random.Random, *points: Tuple[float, float]) -> List[Point]:
    """The points, each coordinate moved by a uniform draw in [-0.5, 0.5]."""
    return [Point(x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5)) for x, y in points]


def perturbed(net: Net, seed: int, a: float, kind: VertexKind = B) -> Net:
    """net with each vertex of kind, in id order, moved by a uniform draw
    in [-a, a] from random.Random(seed) for x and then for y; the other
    vertices stay where they were."""
    rng = random.Random(seed)
    vertices = [
        Vertex(v.id, Point(v.pos.x + rng.uniform(-a, a), v.pos.y + rng.uniform(-a, a)), v.kind, v.label)
        if v.kind is kind else v
        for v in net.vertices
    ]
    return Net(vertices, net.edges)


def pinned_paper16(seed: int, a: float) -> Net:
    """paper16, the paper's net of 4 pins and 16 balanced vertices, with
    every pin perturbed by a from seed; the balanced vertices stay where
    they were, so the net needs relaxing."""
    return perturbed(build_paper_net(), seed, a, U)


def honeycomb(cols: int, rows: int) -> Net:
    """A patch of a honeycomb of unit edges, cols columns by rows zigzag
    rows: vertex (i, j) joins (i + 1, j), and (i, j + 1) when i + j is
    even. Vertices with fewer than three edges are pins, and edges between
    two pins are left out."""
    def pos(i: int, j: int) -> Point:
        return Point(i * math.sqrt(3.0) / 2.0, 1.5 * j + (0.25 if (i + j) % 2 == 0 else -0.25))

    cells = [((i, j), (i + 1, j)) for j in range(rows) for i in range(cols - 1)]
    cells += [((i, j), (i, j + 1)) for j in range(rows - 1) for i in range(cols) if (i + j) % 2 == 0]
    degree: Dict[Tuple[int, int], int] = {}
    for a, b in cells:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    pins = {c for c, d in degree.items() if d < 3}
    cells = [(a, b) for a, b in cells if not (a in pins and b in pins)]
    used = sorted({c for e in cells for c in e})
    vertices = [
        Vertex(f"h{i}_{j}", pos(i, j), VertexKind.UNBALANCED if (i, j) in pins else VertexKind.BALANCED)
        for i, j in used
    ]
    return Net(vertices, [(f"h{a[0]}_{a[1]}", f"h{b[0]}_{b[1]}") for a, b in cells])


def subset_is_balanced(net: Net, edges: Sequence[Edge], tol: float = 1e-9) -> bool:
    """Brute-force subnet predicate: every balanced vertex touched by the
    subset has incident unit vectors summing to zero within tol."""
    incident: Dict[str, List[Edge]] = {}
    for e in edges:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    for vid, inc in incident.items():
        v = net.vertex(vid)
        if v.kind is not VertexKind.BALANCED:
            continue
        sx = sy = 0.0
        for a, b in inc:
            other = b if a == vid else a
            u = unit_vector(v.pos, net.vertex(other).pos)
            sx += u.dx
            sy += u.dy
        if math.hypot(sx, sy) > tol:
            return False
    return True


def enumerate_proper_subnets(net: Net, tol: float = 1e-9) -> List[FrozenSet[Edge]]:
    """All proper non-empty edge subsets that satisfy subset_is_balanced."""
    m = len(net.edges)
    assert m <= 16, "exhaustive enumeration only meant for tiny nets"
    found = []
    for r in range(1, m):
        for combo in itertools.combinations(net.edges, r):
            if subset_is_balanced(net, combo, tol):
                found.append(frozenset(combo))
    return found


def _subset_norms(net: Net, vertex_id: str) -> List[Tuple[Tuple[Edge, ...], float]]:
    """Every subset of the edges at vertex_id, in ascending bit-mask order
    over them in net.edges order, with the math.hypot norm of its
    unit-vector sum, summed one leg at a time."""
    v = net.vertex(vertex_id)
    inc = sorted(net.incident_edges(vertex_id))
    units = []
    for a, b in inc:
        other = b if a == vertex_id else a
        units.append(unit_vector(v.pos, net.vertex(other).pos))
    out = []
    for mask in range(1 << len(inc)):
        sx = sum(units[i].dx for i in range(len(inc)) if mask & (1 << i))
        sy = sum(units[i].dy for i in range(len(inc)) if mask & (1 << i))
        out.append((tuple(inc[i] for i in range(len(inc)) if mask & (1 << i)), math.hypot(sx, sy)))
    return out


def brute_force_balanced_subsets(
    net: Net, vertex_id: str, tol: float = 1e-9
) -> List[Tuple[Edge, ...]]:
    """Independent oracle for balanced_edge_subsets: direct iteration over
    all 2^deg subsets in the same order, ascending bit masks over the
    vertex's edges in net.edges order."""
    return [sub for sub, norm in _subset_norms(net, vertex_id) if norm <= tol]


def least_rejected_norm(net: Net, tol: float = 1e-9) -> float:
    """Independent oracle for the high end of tol_margin: the least norm
    above tol of an edge subset at any balanced vertex, over all 2^deg
    subsets of each; inf when there is none."""
    return min(
        (norm for v in net.vertices if v.kind is VertexKind.BALANCED
         for _, norm in _subset_norms(net, v.id) if norm > tol),
        default=math.inf,
    )


def _root(parent: Dict[Edge, Edge], e: Edge) -> Edge:
    while parent[e] != e:
        parent[e] = parent[parent[e]]
        e = parent[e]
    return e


def _classes_of(net: Net, parent: Dict[Edge, Edge]) -> List[FrozenSet[Edge]]:
    """The classes of a union-find forest over net.edges, in net.edges
    order of their lowest edge."""
    classes: Dict[Edge, Set[Edge]] = {}
    for e in net.edges:
        classes.setdefault(_root(parent, e), set()).add(e)
    return [frozenset(c) for c in classes.values()]


def edge_classes(net: Net, tol: float = 1e-9) -> List[FrozenSet[Edge]]:
    """Oracle for the search's edge classes, from balanced_edge_subsets
    alone: two edges at a balanced vertex are tied when every subset in its
    table holds both or neither, and the classes are the transitive
    closure of the ties, in net.edges order of their lowest edge."""
    parent = {e: e for e in net.edges}
    for v in net.vertices:
        if v.kind is not VertexKind.BALANCED:
            continue
        table = [set(s) for s in balanced_edge_subsets(net, v.id, tol)]
        for e, f in itertools.combinations(net.incident_edges(v.id), 2):
            if all((e in s) == (f in s) for s in table):
                a, b = _root(parent, e), _root(parent, f)
                parent[b] = a
    return _classes_of(net, parent)


def replay_ties(net: Net, cert: Irreducible, tol: float = 1e-9) -> List[FrozenSet[Edge]]:
    """Check the ties and seed steps of an irreducibility certificate
    against balanced_edge_subsets alone, without the search's tables or
    propagation, and return the edge classes in seed order.

    The ties come first. Each one names a balanced vertex and two of its
    edges that every subset in the vertex's table holds both or neither,
    and joins two classes. Each class is then seeded exactly once, by its
    lowest edge in net.edges order, in ascending order, and the classes of
    the seeds cover every edge.
    """
    ties = [step for step in cert.trace if step.tie]
    assert cert.trace[: len(ties)] == tuple(ties), "ties must come before the seeds"
    parent = {e: e for e in net.edges}
    for step in ties:
        e, vid, (f,) = step.seed, step.vertex, step.forced_in
        assert step.forced_out == () and step.conflict is None, step
        assert net.vertex(vid).kind is VertexKind.BALANCED, step
        assert {e, f} <= set(net.incident_edges(vid)), step
        for subset in balanced_edge_subsets(net, vid, tol):
            assert (e in subset) == (f in subset), (step, subset)
        a, b = _root(parent, e), _root(parent, f)
        assert a != b, f"tie {step} joins no two classes"
        parent[b] = a
    classes = _classes_of(net, parent)
    seeds = [s for s in cert.trace if s.vertex is None and s.conflict is None]
    assert all(s.forced_in == (s.seed,) and s.forced_out == () for s in seeds)
    order = {e: i for i, e in enumerate(net.edges)}
    lowest = [min(c, key=order.__getitem__) for c in classes]
    assert [s.seed for s in seeds] == lowest
    by_seed = dict(zip(lowest, classes))
    covered = frozenset().union(*(by_seed[s.seed] for s in seeds))
    assert covered == frozenset(net.edges), "ties and seeds must reach every edge"
    return [by_seed[s.seed] for s in seeds]


def edges_on_segment(net: Net, p: Point, q: Point, eps: float = 1e-9) -> FrozenSet[Edge]:
    """All net edges whose endpoints both lie on the closed segment pq."""
    dx, dy = q.x - p.x, q.y - p.y
    ln = math.hypot(dx, dy)

    def on(r: Point) -> bool:
        off = abs(dx * (r.y - p.y) - dy * (r.x - p.x)) / ln
        if off > eps:
            return False
        t = (dx * (r.x - p.x) + dy * (r.y - p.y)) / (ln * ln)
        return -1e-12 <= t <= 1.0 + 1e-12

    keep = []
    for e in net.edges:
        if on(net.vertex(e[0]).pos) and on(net.vertex(e[1]).pos):
            keep.append(e)
    return frozenset(keep)


def overlay_component_trees(net: Net) -> List[FrozenSet[Edge]]:
    """The constituent trees of the overlay net as planarized edge sets.

    Reconstructed from the generator segments: four tripods, two double
    tripods, and the two straight chains between opposite terminals.
    """
    pos = {v.id: v.pos for v in net.vertices}
    generators = [
        [("B1", "A"), ("B1", "C"), ("B1", "X")],
        [("B3", "A"), ("B3", "C"), ("B3", "Z")],
        [("Y1", "A"), ("Y1", "X"), ("Y1", "Z")],
        [("Y3", "C"), ("Y3", "X"), ("Y3", "Z")],
        [("B2", "A"), ("B2", "C"), ("B2", "Y2"), ("Y2", "X"), ("Y2", "Z")],
        [("L", "A"), ("L", "X"), ("L", "N"), ("N", "C"), ("N", "Z")],
        [("A", "Z")],
        [("C", "X")],
    ]
    trees = []
    for segs in generators:
        cover: Set[Edge] = set()
        for u, v in segs:
            cover |= edges_on_segment(net, pos[u], pos[v])
        trees.append(frozenset(cover))
    return trees


def _circle_point(angle: float, radius: float = 5.0) -> Point:
    return Point(radius * math.cos(angle), radius * math.sin(angle))


def raw_tripod_overlay(n: int, seed: int) -> Net:
    """Overlay of Fermat tripods on n pins, before planarization.

    Pin p<k> sits on a circle of radius 5 at angle 2*pi*k/n, jittered by
    up to 0.1 rad from random.Random(seed). A balanced f<j> is placed at
    the Fermat point of every pin triple without an angle of 120 degrees
    or more, and joined to its three pins.
    """
    rng = random.Random(seed)
    pins = [_circle_point(2 * math.pi * k / n + rng.uniform(-0.1, 0.1)) for k in range(n)]
    vertices = [Vertex(f"p{k}", p, VertexKind.UNBALANCED) for k, p in enumerate(pins)]
    edges = []
    for triple in itertools.combinations(range(n), 3):
        try:
            f = fermat_point(Triangle(*(pins[k] for k in triple)))
        except WideAngleTriangle:
            continue
        fid = f"f{len(vertices) - n}"
        vertices.append(Vertex(fid, f, VertexKind.BALANCED))
        edges += [(fid, f"p{k}") for k in triple]
    return Net(vertices, edges)


def tripod_overlay(n: int, seed: int) -> Net:
    """raw_tripod_overlay(n, seed) with its crossings planarized."""
    return planarize(raw_tripod_overlay(n, seed))


def chord_arrangement(k: int, seed: int) -> Tuple[Net, List[Tuple[Point, Point]]]:
    """Planarized arrangement of k random chords of a radius-5 circle,
    pinned at both ends, and the chords' end points.

    The net need not be valid: a chord that crosses no other is an edge
    between two pins, and the chords need not form one component.
    """
    rng = random.Random(seed)
    chords = [
        (_circle_point(rng.uniform(0, 2 * math.pi)), _circle_point(rng.uniform(0, 2 * math.pi)))
        for _ in range(k)
    ]
    vertices = [
        Vertex(f"p{2 * c + end}", chord[end], VertexKind.UNBALANCED)
        for c, chord in enumerate(chords)
        for end in (0, 1)
    ]
    net = Net(vertices, [(f"p{2 * c}", f"p{2 * c + 1}") for c in range(k)])
    return planarize(net), chords
