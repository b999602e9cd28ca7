"""Proper-subnet search and irreducibility certificates.

A proper subnet is a nonempty proper subset of the edges such that every
balanced vertex stays balanced with respect to the edges chosen at it
(a vertex with no chosen edges is trivially balanced; pins carry no
constraint). A net with no proper subnet is irreducible.

The search treats each balanced vertex as a constraint whose admissible
values are its balanced edge subsets, runs unit propagation over shared
edges, and branches only where propagation stalls. Seeding every edge in
turn either finds a subnet (then shrunk to a minimal one) or proves that
no edge lies in any proper subnet, with a propagation trace as the
certificate.

A search state is a pair of edge bitsets (ins, outs): bit i stands for
net.edges[i], ins holds the edges chosen so far and outs the edges ruled
out. Each balanced vertex's subsets are edge bitsets too, so a subset fits
a state when it holds every chosen edge at the vertex and no ruled-out
one; the edges every fitting subset holds are forced in, and the edges
none holds are forced out. A branch picks one fitting subset m at a
vertex with incident edges inc and moves to (ins | m, outs | inc & ~m).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

import numpy as np

from . import _kernels
from .net import DEFAULT_TOL, Edge, Net, VertexKind, _check_tol, verify

MAX_SUBSET_DEGREE = 24
_NODE_BUDGET = 100_000_000


class DegreeTooLarge(ValueError):
    """Vertex degree exceeds the subset-enumeration limit."""


class SearchBudgetExceeded(RuntimeError):
    """Subnet search exceeded its node budget."""


def _masks_for(net: Net, vid: str, tol: float) -> Tuple[List[Edge], np.ndarray]:
    a = net.arrays
    incident = list(net.incident_edges(vid))
    rows = np.array([a.edge_index[e] for e in incident], dtype=np.int64)
    # Rows point away from vid: flip the edges that end there.
    sign = np.where(a.edges[rows, 0] == a.index[vid], 1.0, -1.0)
    vecs = a.units[rows] * sign[:, None]
    if len(incident) > MAX_SUBSET_DEGREE:
        raise DegreeTooLarge(
            f"vertex {vid} has degree {len(incident)} > {MAX_SUBSET_DEGREE}"
        )
    # One enumeration at 10*tol; the subsets at tol and both warnings come
    # from the same sums.
    loose = _kernels.balanced_masks(vecs, tol * 10.0)
    sums = _kernels.subset_sums(loose, vecs)
    norm2 = (sums * sums).sum(axis=1)
    ok = norm2 <= tol * tol
    masks = loose[ok]
    if len(masks) != len(loose):
        warnings.warn(
            f"vertex {vid}: {len(loose) - len(masks)} edge subsets have residual "
            f"between tol and 10*tol; the subset list is tolerance-sensitive",
            stacklevel=3,
        )
    if (norm2[ok] > (tol * 0.1) ** 2).any():
        warnings.warn(
            f"vertex {vid}: a balanced subset has residual above tol/10; "
            f"the subset list is tolerance-sensitive",
            stacklevel=3,
        )
    return incident, masks


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
    incident, masks = _masks_for(net, vertex_id, tol)
    out: List[Tuple[Edge, ...]] = []
    for m in masks:
        out.append(tuple(incident[i] for i in range(len(incident)) if m & (1 << i)))
    return out


@dataclass(frozen=True)
class TraceStep:
    """One propagation event while testing a seed edge.

    vertex is None for the seed assignment itself and for the whole-net
    conflict; conflict is a reason string when the step ended the seed.
    """

    seed: Edge
    vertex: Optional[str]
    forced_in: Tuple[Edge, ...]
    forced_out: Tuple[Edge, ...]
    conflict: Optional[str] = None


@dataclass(frozen=True)
class Irreducible:
    trace: Tuple[TraceStep, ...]


@dataclass(frozen=True)
class Reducible:
    witness: FrozenSet[Edge]


SubnetCertificate = Union[Irreducible, Reducible]


class _Ctx:
    """Immutable per-net search tables plus a shared node budget.

    Edge i of the net is bit i of every edge bitset. masks[vid] holds the
    balanced subsets at vid as edge bitsets, in the ascending order of
    _masks_for; incident[vid] lists the edge rows at vid in adjacency order.
    """

    def __init__(self, net: Net, tol: float):
        self.edges: List[Edge] = list(net.edges)
        self.full = (1 << len(self.edges)) - 1
        eidx = net.arrays.edge_index
        self.balanced: List[str] = [
            v.id for v in net.vertices if v.kind is VertexKind.BALANCED
        ]
        self.incident: Dict[str, List[int]] = {}
        self.inc_bits: Dict[str, int] = {}
        self.masks: Dict[str, List[int]] = {}
        self.vertices_of: Dict[int, List[str]] = {i: [] for i in range(len(self.edges))}
        for vid in self.balanced:
            inc, masks = _masks_for(net, vid, tol)
            rows = [eidx[e] for e in inc]
            self.incident[vid] = rows
            self.inc_bits[vid] = sum(1 << r for r in rows)
            self.masks[vid] = [
                sum(1 << r for i, r in enumerate(rows) if m >> i & 1) for m in masks.tolist()
            ]
            for r in rows:
                self.vertices_of[r].append(vid)
        self.nodes_left = _NODE_BUDGET

    def charge(self) -> None:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise SearchBudgetExceeded(f"exceeded {_NODE_BUDGET} search nodes")

    def edges_of(self, rows: Iterable[int]) -> Tuple[Edge, ...]:
        return tuple(self.edges[r] for r in rows)


def _rows(bits: int) -> List[int]:
    """Indices of the set bits, ascending."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def _conflict(seed: Edge, vertex: Optional[str], reason: str) -> TraceStep:
    return TraceStep(seed, vertex, (), (), conflict=reason)


def _propagate(
    ctx: _Ctx,
    ins: int,
    outs: int,
    queue: List[str],
    trace: Optional[List[TraceStep]],
    seed: Edge,
) -> Optional[Tuple[int, int]]:
    """Unit propagation to fixpoint. Returns (ins, outs), or None on a
    conflict."""
    pending = set(queue)
    work = list(queue)
    while work:
        vid = work.pop()
        pending.discard(vid)
        ctx.charge()
        inc = ctx.inc_bits[vid]
        need = ins & inc
        cands = [m for m in ctx.masks[vid] if m & need == need and not m & outs]
        if not cands:
            if trace is not None:
                trace.append(
                    _conflict(seed, vid, "no balanced edge subset fits the current selection")
                )
            return None
        every, some = inc, 0
        for m in cands:
            every &= m
            some |= m
        free = inc & ~(ins | outs)
        new_in, new_out = free & every, free & ~some
        if new_in or new_out:
            ins |= new_in
            outs |= new_out
            rows_in = [r for r in ctx.incident[vid] if new_in >> r & 1]
            rows_out = [r for r in ctx.incident[vid] if new_out >> r & 1]
            if trace is not None:
                trace.append(TraceStep(seed, vid, ctx.edges_of(rows_in), ctx.edges_of(rows_out)))
            for r in rows_in + rows_out:
                for w in ctx.vertices_of[r]:
                    if w not in pending:
                        pending.add(w)
                        work.append(w)
            if vid not in pending:
                pending.add(vid)
                work.append(vid)
    return ins, outs


def _search(
    ctx: _Ctx,
    ins: int,
    outs: int,
    queue: List[str],
    need_out: bool,
    trace: Optional[List[TraceStep]],
    seed: Edge,
) -> Optional[int]:
    """DFS with propagation; returns the chosen edges of a complete
    consistent state, or None. Branch refutations are not traced."""
    state = _propagate(ctx, ins, outs, queue, trace, seed)
    if state is None:
        return None
    ins, outs = state
    if need_out and ins == ctx.full:
        if trace is not None:
            trace.append(
                _conflict(seed, None, "propagation selects every edge; the subnet is not proper")
            )
        return None
    branch_vid: Optional[str] = None
    branch_cands: List[int] = []
    for vid in ctx.balanced:
        inc = ctx.inc_bits[vid]
        if not inc & ~(ins | outs):
            continue
        need = ins & inc
        cands = [m for m in ctx.masks[vid] if m & need == need and not m & outs]
        if branch_vid is None or len(cands) < len(branch_cands):
            branch_vid, branch_cands = vid, cands
    if branch_vid is None:
        return ins
    inc = ctx.inc_bits[branch_vid]
    for m in branch_cands:
        ctx.charge()
        found = _search(ctx, ins | m, outs | (inc & ~m), [branch_vid], need_out, None, seed)
        if found is not None:
            return found
    if trace is not None:
        trace.append(
            _conflict(seed, None, "exhaustive search found no proper subnet containing this edge")
        )
    return None


def _first_subnet(ctx: _Ctx, excluded: int, trace: Optional[List[TraceStep]]) -> Optional[int]:
    """Seed each edge outside excluded in ascending order and return the
    first subnet found. A refuted seed is excluded from the later seeds;
    a subnet must leave some edge out only while nothing is excluded."""
    for i in _rows(ctx.full & ~excluded):
        seed = ctx.edges[i]
        if trace is not None:
            trace.append(TraceStep(seed, None, (seed,), ctx.edges_of(_rows(excluded))))
        found = _search(ctx, 1 << i, excluded, list(ctx.balanced), not excluded, trace, seed)
        if found is not None:
            return found
        excluded |= 1 << i
    return None


def _minimize(ctx: _Ctx, witness: int) -> int:
    """Replace witness by a subnet of it that avoids one of its edges,
    until no edge can be avoided."""
    while True:
        for f in _rows(witness):
            smaller = _first_subnet(ctx, ctx.full & ~witness | 1 << f, None)
            if smaller is not None:
                witness = smaller
                break
        else:
            return witness


def find_proper_subnet(net: Net, tol: float = DEFAULT_TOL) -> SubnetCertificate:
    """Search for a proper subnet of a valid net.

    Returns Reducible with a minimal witness edge set (no single edge can
    be dropped and leave a proper subnet inside the rest of the witness),
    or Irreducible with the full propagation trace showing how every seed
    edge leads to a contradiction.

    The net must pass verify at the same tolerance first; like verify,
    raises ValueError unless tol is finite and nonnegative.
    """
    report = verify(net, tol)
    if not report.passed:
        raise ValueError("net does not verify; irreducibility is undefined for it")
    ctx = _Ctx(net, tol)
    trace: List[TraceStep] = []
    found = _first_subnet(ctx, 0, trace)
    if found is not None:
        # A frozenset's iteration order, and so its repr, depends on how it
        # was built. Building it from a set keeps printed certificates the
        # same across releases.
        return Reducible(witness=frozenset(set(ctx.edges_of(_rows(_minimize(ctx, found))))))
    return Irreducible(trace=tuple(trace))


def is_irreducible(net: Net, tol: float = DEFAULT_TOL) -> Tuple[bool, SubnetCertificate]:
    cert = find_proper_subnet(net, tol)
    return (isinstance(cert, Irreducible), cert)
