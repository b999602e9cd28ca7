"""Proper-subnet search and irreducibility certificates.

A proper subnet is a nonempty proper subset of the edges such that every
balanced vertex stays balanced with respect to the edges chosen at it
(a vertex with no chosen edges is trivially balanced; pins carry no
constraint). A net with no proper subnet is irreducible.

The search treats each balanced vertex as a constraint whose admissible
values are its balanced edge subsets and runs unit propagation over
shared edges: from the seed edge's ends, then after every branch from the
vertices at the edges the branch decided, so a vertex is checked again
whenever one of its edges is decided. Seeding every edge in turn either
finds a subnet (then shrunk to a minimal one) or proves that no edge lies
in any proper subnet, with a propagation trace as the certificate.

A search state is a pair of edge bitsets (ins, outs): bit i stands for
net.edges[i], ins holds the edges chosen so far and outs the edges ruled
out. Each balanced vertex's subsets are edge bitsets too, so a subset fits
a state when it holds every chosen edge at the vertex and no ruled-out
one; the edges every fitting subset holds are forced in, and the edges
none holds are forced out. A branch picks one fitting subset m at a
vertex with incident edges inc and moves to (ins | m, outs | inc & ~m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

import numpy as np

from . import _kernels
from .net import DEFAULT_TOL, Edge, Net, VertexKind, _check_tol, edge_key, verify

MAX_SUBSET_DEGREE = 24
_NODE_BUDGET = 100_000_000


class DegreeTooLarge(ValueError):
    """Vertex degree exceeds the subset-enumeration limit."""


class SearchBudgetExceeded(RuntimeError):
    """Subnet search exceeded its node budget."""


def _least_root(n2: float) -> float:
    """The least double x >= 0 with x * x >= n2, so that the accept test
    norm2 <= tol * tol passes n2 exactly when tol >= x."""
    x = math.sqrt(n2)
    # sqrt rounds to nearest, so the square of the double below x falls
    # short of n2; only x * x may round below it.
    while x * x < n2:
        x = math.nextafter(x, math.inf)
    return x


def _masks_for(net: Net, vid: str, tol: float) -> Tuple[List[int], np.ndarray, float, float]:
    """The rows of the edges at vid, the masks of its balanced subsets over
    them, the least tol that accepts all of them, and the least tol that
    accepts a subset rejected within 10*tol (10*tol if there is none)."""
    star = net.adjacency[vid]
    if len(star) > MAX_SUBSET_DEGREE:
        raise DegreeTooLarge(f"vertex {vid} has degree {len(star)} > {MAX_SUBSET_DEGREE}")
    a = net.arrays
    k = a.index[vid]
    rows = [a.edge_index[edge_key(vid, w)] for w in star]
    legs = np.array([[k, a.index[w]] for w in star], dtype=np.int64).reshape(len(star), 2)
    vecs = _kernels.unit_vectors(a.pos, legs)
    loose = _kernels.balanced_masks(vecs, tol * 10.0)
    sums = _kernels.subset_sums(loose, vecs)
    norm2 = (sums * sums).sum(axis=1)
    ok = norm2 <= tol * tol
    rejected = norm2[~ok]
    high = _least_root(float(rejected.min())) if rejected.size else tol * 10.0
    return rows, loose[ok], _least_root(float(norm2[ok].max())), high


def balanced_edge_subsets(
    net: Net, vertex_id: str, tol: float = DEFAULT_TOL
) -> List[Tuple[Edge, ...]]:
    """All subsets of the edges at a balanced vertex whose unit vectors
    sum to zero within tol, smallest subsets first (canonical order).

    Always contains the empty subset, and the full set whenever the
    vertex is balanced in the net. Raises DegreeTooLarge above degree 24,
    ValueError for unbalanced vertices, which carry no constraint, and
    ValueError unless tol is finite and nonnegative.
    """
    _check_tol(tol)
    v = net.vertex(vertex_id)
    if v.kind is not VertexKind.BALANCED:
        raise ValueError(
            f"vertex {vertex_id} is unbalanced; every edge subset is admissible"
        )
    rows, masks, _, _ = _masks_for(net, vertex_id, tol)
    return [
        tuple(net.edges[r] for i, r in enumerate(rows) if m >> i & 1) for m in masks.tolist()
    ]


@dataclass(frozen=True)
class TraceStep:
    """One propagation event while testing a seed edge.

    vertex is None for the seed assignment itself and for the whole-net
    conflict; conflict is a reason string when the step ended the seed.
    A seed assignment is TraceStep(seed, None, (seed,), ()): the seeds of
    a trace appear once each, in ascending net.edges order, and each
    seed's search excludes exactly the seeds before it.
    """

    seed: Edge
    vertex: Optional[str]
    forced_in: Tuple[Edge, ...]
    forced_out: Tuple[Edge, ...]
    conflict: Optional[str] = None


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
    """Immutable per-net search tables plus a shared node budget.

    Edge i of the net is bit i of every edge bitset. masks[vid] holds the
    balanced subsets at vid as edge bitsets, in the ascending order of
    _masks_for.
    """

    def __init__(self, net: Net, tol: float, low: float):
        self.edges: List[Edge] = list(net.edges)
        self.full = (1 << len(self.edges)) - 1
        self.balanced: List[str] = [
            v.id for v in net.vertices if v.kind is VertexKind.BALANCED
        ]
        self.inc_bits: Dict[str, int] = {}
        self.masks: Dict[str, List[int]] = {}
        self.vertices_of: Dict[int, List[str]] = {i: [] for i in range(len(self.edges))}
        high = tol * 10.0
        for vid in self.balanced:
            rows, masks, accepted, rejected = _masks_for(net, vid, tol)
            low, high = max(low, accepted), min(high, rejected)
            self.inc_bits[vid] = sum(1 << r for r in rows)
            self.masks[vid] = [
                sum(1 << r for i, r in enumerate(rows) if m >> i & 1) for m in masks.tolist()
            ]
            for r in rows:
                self.vertices_of[r].append(vid)
        self.tol_margin = (low, high)
        self.nodes_left = _NODE_BUDGET

    def charge(self) -> None:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise SearchBudgetExceeded(f"exceeded {_NODE_BUDGET} search nodes")

    def edges_of(self, rows: Iterable[int]) -> Tuple[Edge, ...]:
        return tuple(self.edges[r] for r in rows)


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


def _fitting(ctx: _Ctx, vid: str, ins: int, outs: int) -> List[int]:
    """The balanced subsets at vid that hold every chosen edge there and
    no ruled-out one."""
    need = ins & ctx.inc_bits[vid]
    return [m for m in ctx.masks[vid] if m & need == need and not m & outs]


def _propagate(
    ctx: _Ctx, ins: int, outs: int, queue: List[str], trace: Optional[List[TraceStep]], seed: Edge
) -> Optional[Tuple[int, int]]:
    """Unit propagation to fixpoint. Returns (ins, outs), or None on a
    conflict."""
    pending = set(queue)
    work = list(queue)
    while work:
        vid = work.pop()
        pending.discard(vid)
        ctx.charge()
        cands = _fitting(ctx, vid, ins, outs)
        if not cands:
            _conflict(trace, seed, vid, "no balanced edge subset fits the current selection")
            return None
        inc = ctx.inc_bits[vid]
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


def _search(ctx: _Ctx, i: int, excluded: int, trace: Optional[List[TraceStep]]) -> Optional[int]:
    """Depth-first search for a complete consistent state that holds edge
    i and avoids excluded; returns its chosen edges, or None.

    The stack holds (ins, outs, queue) states, each propagated from its
    queue when popped: the root from the seed edge's ends, a branch from
    the vertices at the edges it decided. Only the root is traced.
    """
    seed = ctx.edges[i]
    stack = [(1 << i, excluded, ctx.vertices_of[i])]
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
        open_vids = [v for v in ctx.balanced if ctx.inc_bits[v] & ~(ins | outs)]
        if not open_vids:
            return ins
        # Fewest fitting subsets first; min keeps the first in balanced order.
        vid = min(open_vids, key=lambda v: len(_fitting(ctx, v, ins, outs)))
        inc = ctx.inc_bits[vid]
        rows = _rows(inc & ~(ins | outs))
        decided = list(dict.fromkeys(w for r in rows for w in ctx.vertices_of[r]))
        for m in reversed(_fitting(ctx, vid, ins, outs)):
            stack.append((ins | m, outs | inc & ~m, decided))
        branched = True
    if branched:
        reason = "exhaustive search found no proper subnet containing this edge"
        _conflict(trace, seed, None, reason)
    return None


def _first_subnet(ctx: _Ctx, excluded: int, trace: Optional[List[TraceStep]]) -> Optional[int]:
    """Seed each edge outside excluded in ascending order and return the
    first subnet found. A refuted seed is excluded from the later seeds."""
    for i in _rows(ctx.full & ~excluded):
        seed = ctx.edges[i]
        if trace is not None:
            trace.append(TraceStep(seed, None, (seed,), ()))
        found = _search(ctx, i, excluded, trace)
        if found is not None:
            return found
        excluded |= 1 << i
    return None


def _minimize(ctx: _Ctx, witness: int) -> int:
    """Shrink witness to a subnet of it from which no edge can be dropped.
    Each edge is tested once, in ascending order: an edge that no subnet
    inside the witness avoids stays unavoidable inside every smaller one."""
    for f in _rows(witness):
        if witness >> f & 1:
            smaller = _first_subnet(ctx, ctx.full & ~witness | 1 << f, None)
            if smaller is not None:
                witness = smaller
    return witness


def find_proper_subnet(net: Net, tol: float = DEFAULT_TOL) -> SubnetCertificate:
    """Search for a proper subnet of a valid net.

    Returns Reducible with a minimal witness edge set (no single edge can
    be dropped and leave a proper subnet inside the rest of the witness),
    or Irreducible with the trace of every seed edge's propagation, from
    its two ends up to its conflict. The seeds come once each, in
    ascending net.edges order, and each seed's search excludes the seeds
    before it, which its seed step does not repeat. Branch refutations
    are not recorded, only that a seed's branches all failed. Branches
    live on an explicit stack, so deep searches do not hit Python's
    recursion limit.

    Both carry tol_margin = (low, high). low is the least tolerance at
    which every balanced subset passes the accept test norm2 <= tol * tol
    and the net passes verify; high is the least at which a rejected subset
    within 10*tol would pass, else 10*tol. For every tol in [low, high) the
    subset tables, verdict and certificate are the same.

    The net must pass verify at the same tolerance first; like verify,
    raises ValueError unless tol is finite and nonnegative.
    """
    report = verify(net, tol)
    if not report.passed:
        raise ValueError("net does not verify; irreducibility is undefined for it")
    # verify sums each star in another order than subset_sums; cover both.
    ctx = _Ctx(net, tol, report.max_residual)
    trace: List[TraceStep] = []
    found = _first_subnet(ctx, 0, trace)
    if found is not None:
        # A frozenset's iteration order, and so its repr, depends on how it
        # was built. Building it from a set keeps printed certificates the
        # same across releases.
        witness = frozenset(set(ctx.edges_of(_rows(_minimize(ctx, found)))))
        return Reducible(witness, ctx.tol_margin)
    return Irreducible(tuple(trace), ctx.tol_margin)


def is_irreducible(net: Net, tol: float = DEFAULT_TOL) -> Tuple[bool, SubnetCertificate]:
    cert = find_proper_subnet(net, tol)
    return (isinstance(cert, Irreducible), cert)
