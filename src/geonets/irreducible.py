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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import _kernels
from .net import DEFAULT_TOL, Edge, Net, VertexKind, verify

MAX_SUBSET_DEGREE = 24
_NODE_BUDGET = 100_000_000

_UNKNOWN, _IN, _OUT = 0, 1, 2


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
    vertex is balanced in the net. Raises DegreeTooLarge above degree 24
    and ValueError for unbalanced vertices, which carry no constraint.
    """
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
    """Immutable per-net search tables plus a shared node budget."""

    def __init__(self, net: Net, tol: float):
        self.edges: List[Edge] = list(net.edges)
        self.eidx: Dict[Edge, int] = net.arrays.edge_index
        self.balanced: List[str] = [
            v.id for v in net.vertices if v.kind is VertexKind.BALANCED
        ]
        self.incident: Dict[str, List[int]] = {}
        self.masks: Dict[str, np.ndarray] = {}
        for vid in self.balanced:
            inc, masks = _masks_for(net, vid, tol)
            self.incident[vid] = [self.eidx[e] for e in inc]
            self.masks[vid] = masks
        self.vertices_of: Dict[int, List[str]] = {i: [] for i in range(len(self.edges))}
        for vid in self.balanced:
            for ei in self.incident[vid]:
                self.vertices_of[ei].append(vid)
        self.nodes_left = _NODE_BUDGET

    def charge(self) -> None:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise SearchBudgetExceeded(f"exceeded {_NODE_BUDGET} search nodes")


def _candidates(ctx: _Ctx, vid: str, state: List[int]) -> List[int]:
    inc = ctx.incident[vid]
    cands = []
    for m in ctx.masks[vid]:
        ok = True
        for i, ei in enumerate(inc):
            s = state[ei]
            bit = (m >> i) & 1
            if (s == _IN and not bit) or (s == _OUT and bit):
                ok = False
                break
        if ok:
            cands.append(int(m))
    return cands


def _propagate(
    ctx: _Ctx,
    state: List[int],
    queue: List[str],
    trace: Optional[List[TraceStep]],
    seed: Edge,
) -> Tuple[bool, Optional[str]]:
    """Unit propagation to fixpoint. Returns (ok, conflict_vertex)."""
    pending = set(queue)
    work = list(queue)
    while work:
        vid = work.pop()
        pending.discard(vid)
        ctx.charge()
        inc = ctx.incident[vid]
        cands = _candidates(ctx, vid, state)
        if not cands:
            if trace is not None:
                trace.append(
                    TraceStep(
                        seed,
                        vid,
                        (),
                        (),
                        conflict="no balanced edge subset fits the current selection",
                    )
                )
            return False, vid
        forced_in = ~0
        union = 0
        for m in cands:
            forced_in &= m
            union |= m
        new_in: List[Edge] = []
        new_out: List[Edge] = []
        for i, ei in enumerate(inc):
            if state[ei] != _UNKNOWN:
                continue
            if (forced_in >> i) & 1:
                state[ei] = _IN
                new_in.append(ctx.edges[ei])
            elif not (union >> i) & 1:
                state[ei] = _OUT
                new_out.append(ctx.edges[ei])
        if new_in or new_out:
            if trace is not None:
                trace.append(
                    TraceStep(seed, vid, tuple(new_in), tuple(new_out))
                )
            for e in new_in + new_out:
                for w in ctx.vertices_of[ctx.eidx[e]]:
                    if w not in pending:
                        pending.add(w)
                        work.append(w)
            if vid not in pending:
                pending.add(vid)
                work.append(vid)
    return True, None


def _search(
    ctx: _Ctx,
    state: List[int],
    queue: List[str],
    need_out: bool,
    trace: Optional[List[TraceStep]],
    seed: Edge,
) -> Optional[List[int]]:
    """DFS with propagation; returns a complete consistent state or None."""
    ok, _ = _propagate(ctx, state, queue, trace, seed)
    if not ok:
        return None
    if need_out and all(s == _IN for s in state):
        if trace is not None:
            trace.append(
                TraceStep(
                    seed,
                    None,
                    (),
                    (),
                    conflict="propagation selects every edge; the subnet is not proper",
                )
            )
        return None
    branch_vid: Optional[str] = None
    branch_cands: List[int] = []
    for vid in ctx.balanced:
        if all(state[ei] != _UNKNOWN for ei in ctx.incident[vid]):
            continue
        cands = _candidates(ctx, vid, state)
        if branch_vid is None or len(cands) < len(branch_cands):
            branch_vid, branch_cands = vid, cands
    if branch_vid is None:
        return state
    for m in branch_cands:
        ctx.charge()
        trial = list(state)
        inc = ctx.incident[branch_vid]
        for i, ei in enumerate(inc):
            want = _IN if (m >> i) & 1 else _OUT
            if trial[ei] == _UNKNOWN:
                trial[ei] = want
            elif trial[ei] != want:
                break
        else:
            found = _search(ctx, trial, [branch_vid], need_out, None, seed)
            if found is not None:
                return found
    return None


def _solve(
    ctx: _Ctx,
    in_edges: Set[Edge],
    out_edges: Set[Edge],
    trace: Optional[List[TraceStep]],
    seed: Edge,
) -> Optional[FrozenSet[Edge]]:
    state = [_UNKNOWN] * len(ctx.edges)
    for e in in_edges:
        state[ctx.eidx[e]] = _IN
    for e in out_edges:
        state[ctx.eidx[e]] = _OUT
    if trace is not None:
        trace.append(TraceStep(seed, None, tuple(sorted(in_edges)), tuple(sorted(out_edges))))
    need_out = len(out_edges) == 0
    final = _search(ctx, state, list(ctx.balanced), need_out, trace, seed)
    if final is None:
        return None
    return frozenset(ctx.edges[i] for i, s in enumerate(final) if s == _IN)


def _minimize(ctx: _Ctx, witness: FrozenSet[Edge]) -> FrozenSet[Edge]:
    all_edges = set(ctx.edges)
    current = set(witness)
    shrunk = True
    while shrunk:
        shrunk = False
        for f in sorted(current):
            excluded = (all_edges - current) | {f}
            for e in sorted(current - {f}):
                if e in excluded:
                    continue
                sol = _solve(ctx, {e}, set(excluded), None, e)
                if sol is not None:
                    current = set(sol)
                    shrunk = True
                    break
                excluded.add(e)
            if shrunk:
                break
    return frozenset(current)


def find_proper_subnet(net: Net, tol: float = DEFAULT_TOL) -> SubnetCertificate:
    """Search for a proper subnet of a valid net.

    Returns Reducible with a minimal witness edge set (no single edge can
    be dropped and leave a proper subnet inside the rest of the witness),
    or Irreducible with the full propagation trace showing how every seed
    edge leads to a contradiction.

    The net must pass verify at the same tolerance first.
    """
    report = verify(net, tol)
    if not report.passed:
        raise ValueError("net does not verify; irreducibility is undefined for it")
    ctx = _Ctx(net, tol)
    trace: List[TraceStep] = []
    excluded: Set[Edge] = set()
    for seed in ctx.edges:
        if seed in excluded:
            continue
        before = len(trace)
        sol = _solve(ctx, {seed}, set(excluded), trace, seed)
        if sol is not None:
            return Reducible(witness=_minimize(ctx, sol))
        if not any(step.conflict for step in trace[before:]):
            trace.append(
                TraceStep(
                    seed,
                    None,
                    (),
                    (),
                    conflict="exhaustive search found no proper subnet containing this edge",
                )
            )
        excluded.add(seed)
    return Irreducible(trace=tuple(trace))


def is_irreducible(net: Net, tol: float = DEFAULT_TOL) -> Tuple[bool, SubnetCertificate]:
    cert = find_proper_subnet(net, tol)
    return (isinstance(cert, Irreducible), cert)
