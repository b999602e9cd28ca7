"""Proper-subnet search and irreducibility certificates.

A proper subnet is a nonempty proper subset of the edges such that every
balanced vertex stays balanced with respect to the edges chosen at it
(a vertex with no chosen edges is trivially balanced; pins carry no
constraint). A net with no proper subnet is irreducible.

The search treats each balanced vertex as a constraint whose admissible
values are its balanced edge subsets. Edges that every subset at some
vertex holds together or not at all are tied, and the ties split the
edges into classes (union-find; equivalent-literal substitution in SAT
terms), so each class is decided as one. The search runs unit propagation
over shared edges: from every vertex of the seed class, then after every
branch from the vertices at the edges the branch decided, so a vertex is
checked again whenever one of its edges is decided. Seeding every class
in turn either finds a subnet (then shrunk to a minimal one) or proves
that no edge lies in any proper subnet, with the ties and a propagation
trace as the certificate.

A search state is a pair of edge bitsets (ins, outs): bit i stands for
net.edges[i], ins holds the edges chosen so far and outs the edges ruled
out. Each balanced vertex's subsets are edge bitsets too, so a subset fits
a state when it holds every chosen edge at the vertex and no ruled-out
one; the edges every fitting subset holds are forced in, and the edges
none holds are forced out. A branch picks one fitting subset m at a
vertex with incident edges inc and moves to (ins | m, outs | inc & ~m).
The search branches at the first balanced vertex of the lowest open edge,
one neither chosen nor ruled out; a state with no open edge is complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .net import DEFAULT_TOL, Edge, Net, _check_tol, edge_key, verify

MAX_SUBSET_DEGREE = 24
_NODE_BUDGET = 100_000_000


class DegreeTooLarge(ValueError):
    """Vertex degree exceeds the subset-enumeration limit."""


class SearchBudgetExceeded(RuntimeError):
    """Subnet search exceeded its node budget."""


def _tables(
    net: Net, vids: Sequence[str], tol: float
) -> Tuple[List[int], List[List[int]], float, float]:
    """The subset tables of the balanced vertices vids, in edge bitsets
    (bit r for net.edges[r]): each vertex's edges, and its balanced subsets
    in ascending order. Then the largest norm among those subsets, and the
    least norm among the rejected ones (inf if there is none); a subset is
    accepted when its norm is at most tol. The unit vectors of all legs
    come from one call, and the stars of each degree share one
    star_subsets call at tol.
    """
    stars = [net.adjacency[vid] for vid in vids]
    for vid, star in zip(vids, stars):
        if len(star) > MAX_SUBSET_DEGREE:
            raise DegreeTooLarge(f"vertex {vid} has degree {len(star)} > {MAX_SUBSET_DEGREE}")
    # A star's legs go to its neighbours in id order, which is also the
    # order of its edges in net.edges, so leg i is the star's i-th lowest
    # edge bit and ascending leg masks map to ascending edge bitsets.
    bits = [[1 << net.edge_index[edge_key(vid, w)] for w in star] for vid, star in zip(vids, stars)]
    legs = [[net.index[vid], net.index[w]] for vid, star in zip(vids, stars) for w in star]
    vecs = _kernels.unit_vectors(net.pos, np.array(legs, dtype=np.int64).reshape(-1, 2))
    starts = np.cumsum([0] + [len(star) for star in stars])
    by_degree: Dict[int, List[int]] = {}
    for k, star in enumerate(stars):
        by_degree.setdefault(len(star), []).append(k)
    masks: List[List[int]] = [[] for _ in vids]
    accepted, rejected = 0.0, np.inf
    for d, members in by_degree.items():
        legs_of = starts[members][:, None] + np.arange(d)
        star, mask, norm, least = _kernels.star_subsets(vecs[legs_of], tol)
        accepted = max(accepted, float(norm.max()))
        rejected = min(rejected, least)
        for k, m in zip(star.tolist(), mask.tolist()):
            k = members[k]
            masks[k].append(sum(b for i, b in enumerate(bits[k]) if m >> i & 1))
    return [sum(b) for b in bits], masks, accepted, rejected


def balanced_edge_subsets(
    net: Net, vertex_id: str, tol: float = DEFAULT_TOL
) -> List[Tuple[Edge, ...]]:
    """All subsets of the edges at a balanced vertex whose unit vectors
    sum to zero within tol, each in net.edges order. They come in
    ascending order of their bit masks over the vertex's edges (bit i for
    its i-th edge in net.edges order), which is not by size.

    Always contains the empty subset, and the full set whenever the
    vertex is balanced in the net. Raises DegreeTooLarge above degree 24,
    ValueError for unbalanced vertices, which carry no constraint, and
    ValueError unless tol is finite and nonnegative.
    """
    _check_tol(tol)
    if not net.balanced[net._row(vertex_id)]:
        raise ValueError(
            f"vertex {vertex_id} is unbalanced; every edge subset is admissible"
        )
    _, (masks,), _, _ = _tables(net, [vertex_id], tol)
    return [tuple(net.edges[r] for r in _rows(m)) for m in masks]


@dataclass(frozen=True)
class TraceStep:
    """One step of an irreducibility certificate: a tie, or a propagation
    event while testing a seed edge class.

    A tie step is TraceStep(e, vertex, (f,), (), tie=True): every balanced
    subset at vertex holds both e and f or neither, so seeding e forces f
    in and no subnet holds one of them without the other. The ties come
    first, one for each union of two edge classes, so a net with E edges
    and C classes has E - C of them.

    The other steps belong to the seed named by their seed field. vertex is
    None for the seed assignment itself and for the whole-net conflict;
    conflict is a reason string when the step ended the seed. A seed
    assignment is TraceStep(seed, None, (seed,), ()), where seed is the
    lowest edge of its class in net.edges order: the classes are seeded
    once each, in ascending order of that edge, and each class's search
    excludes exactly the classes seeded before it.
    """

    seed: Edge
    vertex: Optional[str]
    forced_in: Tuple[Edge, ...]
    forced_out: Tuple[Edge, ...]
    conflict: Optional[str] = None
    tie: bool = False


@dataclass(frozen=True)
class Irreducible:
    trace: Tuple[TraceStep, ...]
    tol_margin: Tuple[float, float]


@dataclass(frozen=True)
class Reducible:
    witness: FrozenSet[Edge]
    tol_margin: Tuple[float, float]


SubnetCertificate = Union[Irreducible, Reducible]


class _Ctx:
    """Immutable search tables plus a shared node budget.

    Edge i is bit i of every edge bitset. Balanced vertex k is named
    balanced[k]; inc_bits[k] and masks[k] are its edges and its balanced
    subsets, as _tables gives them. One walk over each vertex's rows,
    ascending, with the vertices in balanced order, builds the rest:
    vertices_of[r] lists the k at edge r; two edges at a vertex are tied
    when their columns in its table are equal, and ties holds one (vertex
    id, e, f) for each union that joined two classes, with e the lowest row
    at the vertex that shares f's column; classes holds the edge classes as
    bitsets, in ascending order of their lowest edge.
    """

    def __init__(
        self, edges: Sequence[Edge], balanced: Sequence[str], inc: List[int], masks: List[List[int]]
    ):
        self.edges: List[Edge] = list(edges)
        self.full = (1 << len(self.edges)) - 1
        self.balanced: List[str] = list(balanced)
        self.inc_bits: List[int] = list(inc)
        self.masks: List[List[int]] = list(masks)
        self.vertices_of: List[List[int]] = [[] for _ in self.edges]
        parent = list(range(len(self.edges)))

        def find(r: int) -> int:
            while parent[r] != r:
                parent[r] = parent[parent[r]]
                r = parent[r]
            return r

        self.ties: List[Tuple[str, int, int]] = []
        for k, (vid, bits, table) in enumerate(zip(self.balanced, self.inc_bits, self.masks)):
            lead: Dict[Tuple[int, ...], int] = {}
            for f in _rows(bits):
                self.vertices_of[f].append(k)
                e = lead.setdefault(tuple(m >> f & 1 for m in table), f)
                a, b = find(e), find(f)
                if a != b:
                    # Each root is the lowest row of its class.
                    parent[max(a, b)] = min(a, b)
                    self.ties.append((vid, e, f))
        classes: Dict[int, int] = {}
        for r in range(len(self.edges)):
            root = find(r)
            classes[root] = classes.get(root, 0) | 1 << r
        self.classes: List[int] = list(classes.values())
        self.nodes_left = _NODE_BUDGET

    def charge(self) -> None:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise SearchBudgetExceeded(f"exceeded {_NODE_BUDGET} search nodes")

    def edges_of(self, rows: Iterable[int]) -> Tuple[Edge, ...]:
        return tuple(self.edges[r] for r in rows)


def _lowest(bits: int) -> int:
    """Index of the lowest set bit."""
    return (bits & -bits).bit_length() - 1


def _rows(bits: int) -> List[int]:
    """Indices of the set bits, ascending."""
    rows = []
    while bits:
        bit = bits & -bits
        rows.append(bit.bit_length() - 1)
        bits ^= bit
    return rows


def _conflict(
    trace: Optional[List[TraceStep]], seed: Edge, vertex: Optional[str], reason: str
) -> None:
    if trace is not None:
        trace.append(TraceStep(seed, vertex, (), (), conflict=reason))


def _fitting(ctx: _Ctx, k: int, ins: int, outs: int) -> List[int]:
    """The balanced subsets at vertex k that hold every chosen edge there
    and no ruled-out one."""
    need = ins & ctx.inc_bits[k]
    return [m for m in ctx.masks[k] if m & need == need and not m & outs]


def _propagate(
    ctx: _Ctx, ins: int, outs: int, queue: List[int], trace: Optional[List[TraceStep]], seed: Edge
) -> Optional[Tuple[int, int]]:
    """Unit propagation to fixpoint from the vertices k in queue. Returns
    (ins, outs), or None on a conflict."""
    pending = set(queue)
    work = list(queue)
    while work:
        k = work.pop()
        pending.discard(k)
        ctx.charge()
        cands = _fitting(ctx, k, ins, outs)
        vid = ctx.balanced[k]
        if not cands:
            _conflict(trace, seed, vid, "no balanced edge subset fits the current selection")
            return None
        inc = ctx.inc_bits[k]
        every, some = inc, 0
        for m in cands:
            every &= m
            some |= m
        free = inc & ~(ins | outs)
        new_in, new_out = free & every, free & ~some
        if new_in or new_out:
            ins |= new_in
            outs |= new_out
            rows_in, rows_out = _rows(new_in), _rows(new_out)
            if trace is not None:
                trace.append(TraceStep(seed, vid, ctx.edges_of(rows_in), ctx.edges_of(rows_out)))
            for r in rows_in + rows_out:
                for w in ctx.vertices_of[r]:
                    if w not in pending:
                        pending.add(w)
                        work.append(w)
    return ins, outs


def _search(ctx: _Ctx, cls: int, excluded: int, trace: Optional[List[TraceStep]]) -> Optional[int]:
    """Depth-first search for a complete consistent state that holds the
    edge class cls and avoids excluded; returns its chosen edges, or None.

    The stack holds (ins, outs, queue) states, each propagated from its
    queue when popped: the root from every vertex of the class, a branch
    from the vertices at the edges it decided. Only the root is traced.
    A propagated state branches over the fitting subsets of the first
    balanced vertex at its lowest open edge. verify rejects edges between
    two pins, so that vertex exists, and a state with no open edge has no
    open balanced vertex: it is complete.
    """
    seed = ctx.edges[_lowest(cls)]
    root = list(dict.fromkeys(w for r in _rows(cls) for w in ctx.vertices_of[r]))
    stack = [(cls, excluded, root)]
    branched = False
    while stack:
        ins, outs, queue = stack.pop()
        if branched:
            ctx.charge()
        log = None if branched else trace
        state = _propagate(ctx, ins, outs, queue, log, seed)
        if state is None:
            continue
        ins, outs = state
        # ins and outs are disjoint, so ins == full means nothing is excluded.
        if ins == ctx.full:
            _conflict(log, seed, None, "propagation selects every edge; the subnet is not proper")
            continue
        free = ctx.full & ~(ins | outs)
        if not free:
            return ins
        k = ctx.vertices_of[_lowest(free)][0]
        inc = ctx.inc_bits[k]
        decided = list(dict.fromkeys(w for r in _rows(inc & free) for w in ctx.vertices_of[r]))
        for m in reversed(_fitting(ctx, k, ins, outs)):
            stack.append((ins | m, outs | inc & ~m, decided))
        branched = True
    if branched:
        reason = "exhaustive search found no proper subnet containing this edge class"
        _conflict(trace, seed, None, reason)
    return None


def _first_subnet(ctx: _Ctx, excluded: int, trace: Optional[List[TraceStep]]) -> Optional[int]:
    """Seed each edge class outside excluded, which is a union of classes,
    in ascending order of its lowest edge and return the first subnet
    found. A refuted class joins excluded whole."""
    for cls in ctx.classes:
        if cls & excluded:
            continue
        if trace is not None:
            seed = ctx.edges[_lowest(cls)]
            trace.append(TraceStep(seed, None, (seed,), ()))
        found = _search(ctx, cls, excluded, trace)
        if found is not None:
            return found
        excluded |= cls
    return None


def _minimize(ctx: _Ctx, witness: int) -> int:
    """Shrink witness to a subnet of it from which no edge class can be
    dropped. Each class is tested once, in ascending order of its lowest
    edge: a class that no subnet inside the witness avoids stays
    unavoidable inside every smaller one. Every subnet is a union of
    classes, so no single edge can be dropped either."""
    for cls in ctx.classes:
        if cls & witness:
            smaller = _first_subnet(ctx, ctx.full & ~witness | cls, None)
            if smaller is not None:
                witness = smaller
    return witness


def find_proper_subnet(net: Net, tol: float = DEFAULT_TOL) -> SubnetCertificate:
    """Search for a proper subnet of a valid net.

    The search seeds edge classes, not edges. Two edges at a balanced
    vertex are tied when every balanced subset there holds both or
    neither; the transitive closure of the ties splits the edges into
    classes, and every subnet is a union of classes.

    Returns Reducible with a minimal witness edge set (no single edge can
    be dropped and leave a proper subnet inside the rest of the witness),
    or Irreducible with a trace: first the ties, one TraceStep(e, vertex,
    (f,), (), tie=True) per union of two classes, then every class's
    propagation, from every vertex of the class up to its conflict. A
    seed step names its class's lowest edge; the classes come once each,
    in ascending order of that edge, and each class's search excludes the
    classes before it, which its seed step does not repeat. Branch
    refutations are not recorded, only that a class's branches all
    failed. Branches live on an explicit stack, so deep searches do not
    hit Python's recursion limit.

    Both carry tol_margin = (low, high). A subset passes the accept test
    when the norm of its unit-vector sum is at most tol. low is the least
    tolerance at which every balanced subset passes it and the net passes
    verify: the largest of those norms and verify's residuals. high is the
    least norm of a rejected subset, inf when no subset is rejected. For
    every tol in [low, high) the subset tables, verdict and certificate are
    the same.

    The net must pass verify at the same tolerance first; like verify,
    raises ValueError unless tol is finite and nonnegative.
    """
    report = verify(net, tol)
    if not report.passed:
        raise ValueError("net does not verify; irreducibility is undefined for it")
    balanced = [net.ids[k] for k in net.free.tolist()]
    inc, masks, accepted, high = _tables(net, balanced, tol)
    # verify sums each star in another order than star_subsets; cover both.
    tol_margin = (max(report.max_residual, accepted), high)
    ctx = _Ctx(net.edges, balanced, inc, masks)
    trace = [TraceStep(ctx.edges[e], vid, (ctx.edges[f],), (), tie=True) for vid, e, f in ctx.ties]
    found = _first_subnet(ctx, 0, trace)
    if found is not None:
        # A frozenset's iteration order, and so its repr, depends on how it
        # was built. Building it from a set keeps printed certificates the
        # same across releases.
        witness = frozenset(set(ctx.edges_of(_rows(_minimize(ctx, found)))))
        return Reducible(witness, tol_margin)
    return Irreducible(tuple(trace), tol_margin)


def is_irreducible(net: Net, tol: float = DEFAULT_TOL) -> Tuple[bool, SubnetCertificate]:
    cert = find_proper_subnet(net, tol)
    return (isinstance(cert, Irreducible), cert)
