"""Proper-subnet search and irreducibility certificates.

A proper subnet is a nonempty proper subset of the edges such that every
balanced vertex stays balanced with respect to the edges chosen at it
(a vertex with no chosen edges is trivially balanced; pins carry no
constraint). A net with no proper subnet is irreducible.

Each balanced vertex is a constraint whose admissible values are its
balanced edge subsets. Edges that every subset at some vertex holds
together or not at all are tied, and the ties split the edges into classes
(union-find; equivalent-literal substitution in SAT terms). Every subnet is
a union of classes, so the search decides classes, bit c of a class bitset
for class c in ascending order of lowest edge. A vertex keeps the subsets
that hold each class whole or not at all; if only the empty set and its
full star are left, it says no more than its ties and drops out.

A search state is a pair of class bitsets (ins, outs), chosen and ruled
out. The classes that every subset fitting the state at a vertex holds are
forced in, those that none holds forced out. Unit propagation runs from
every vertex of the seed class, then after every branch from the vertices
at the classes it decided. A branch picks one fitting subset m at a vertex
with classes inc: (ins | m, outs | inc & ~m). It is taken at the lowest
open class, at the first balanced vertex of its lowest edge; one that
dropped out offers the empty set and the class. Seeding every class in
turn either finds a subnet (then shrunk to a minimal one) or proves that no
edge lies in any proper subnet, with the ties and a propagation trace as
the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .net import DEFAULT_TOL, Edge, Net, _check_tol, _named, verify

MAX_SUBSET_DEGREE = 24
_NODE_BUDGET = 100_000_000


class DegreeTooLarge(ValueError):
    """Vertex degree exceeds the subset-enumeration limit."""


class SearchBudgetExceeded(RuntimeError):
    """Subnet search exceeded its node budget."""


def _tables(net: Net, rows: Sequence[int], tol: float) -> Tuple[list, float, float]:
    """The balanced subsets at the vertex rows, one star_subsets call per
    degree: (groups, accepted, rejected). A group holds the stars of one
    degree d as (members, legs, star, held): the stars' positions in rows,
    each star's d edges ascending, and per accepted subset its star and
    whether it holds each leg, each star's in ascending order of the bit
    masks over its legs. A subset is accepted when the norm of its
    unit-vector sum is at most tol; accepted is the largest such norm, and
    rejected the least norm of a rejected subset, inf if there is none."""
    degree = net._degrees[rows]
    degrees = degree.tolist()
    for k, d in zip(rows, degrees):
        if d > MAX_SUBSET_DEGREE:
            raise DegreeTooLarge(f"vertex {net.ids[k]} has degree {d} > {MAX_SUBSET_DEGREE}")
    rows = np.fromiter(rows, np.intp, len(rows))
    # Slot 2r + i of ends holds end i of edge r, a leg at that end; slot ^ 1
    # is its far end. Sorted stably by vertex, a star's legs are in edge order.
    flat = net.ends.ravel()
    wanted = np.zeros(len(net.ids), dtype=bool)
    wanted[rows] = True
    legs = np.flatnonzero(wanted[flat])
    legs = legs[np.argsort(flat[legs], kind="stable")]
    first = np.searchsorted(flat[legs], rows)
    groups, accepted, rejected = [], 0.0, np.inf
    for d in sorted(set(degrees)):
        members = np.flatnonzero(degree == d)
        slot = legs[first[members][:, None] + np.arange(d)]
        vecs = _kernels.unit_vectors(net.pos, np.stack((flat[slot], flat[slot ^ 1]), axis=-1).reshape(-1, 2))
        star, mask, norm, least = _kernels.star_subsets(vecs.reshape(len(members), d, 2), tol)
        accepted = max(accepted, float(norm.max()))
        rejected = min(rejected, least)
        groups.append((members, slot >> 1, star, (mask[:, None] >> np.arange(d) & 1).astype(bool)))
    return groups, accepted, rejected


def balanced_edge_subsets(net: Net, vertex_id: str, tol: float = DEFAULT_TOL) -> List[Tuple[Edge, ...]]:
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
    k = net._row(vertex_id)
    if not net.balanced[k]:
        raise ValueError(f"vertex {vertex_id} is unbalanced; every edge subset is admissible")
    ((_, (legs,), _, held),), _, _ = _tables(net, [k], tol)
    names = _named(net.ids, net.ends, legs)
    return [tuple(e for e, h in zip(names, row) if h) for row in held.tolist()]


@dataclass(frozen=True)
class TraceStep:
    """One step of an irreducibility certificate: a tie or a search event.

    A tie step is TraceStep(e, vertex, (f,), (), tie=True): every balanced
    subset at vertex holds both e and f or neither, so no subnet holds one
    of them without the other. The ties come first, one for each union of
    two edge classes: E - C of them for E edges and C classes.

    The other steps belong to the seed named by their seed field, and name
    each class by its lowest edge in net.edges order: the seed assignment
    TraceStep(seed, None, (seed,), ()), once per class in ascending order,
    its search excluding the classes seeded before it; forcing steps, with
    the classes forced in and out at vertex, each ascending; and a
    conflict with its reason, at a vertex or (vertex None) the whole net.

    The search builds neither kind: it keeps the ties as integer columns,
    one row (vertex row, edge row, edge row) each, and the search events
    as rows (seed class, vertex row or -1, in-mask, out-mask, conflict
    code), the masks class bitsets. Irreducible.trace builds the steps
    from those columns on first read.
    """

    seed: Edge
    vertex: Optional[str]
    forced_in: Tuple[Edge, ...]
    forced_out: Tuple[Edge, ...]
    conflict: Optional[str] = None
    tie: bool = False


# The reason of each conflict code of a search event; code 0 is no conflict.
_REASONS = (
    None,
    "no balanced edge subset fits the current selection",
    "propagation selects every edge; the subnet is not proper",
    "exhaustive search found no proper subnet containing this edge class",
)
_NO_FIT, _ALL_EDGES, _EXHAUSTED = 1, 2, 3


@dataclass(frozen=True, init=False)
class Irreducible:
    """An irreducibility certificate: its trace (see TraceStep) and tol_margin.

    One from find_proper_subnet holds the search's integer columns and
    builds trace from them on first read; equality, hashing and repr go by
    trace and tol_margin, as for one built from a trace. A copy or pickle
    keeps the form of its original: columns, steps or both."""

    # trace stays a field, so that fields(), replace() and the generated
    # ==, hash and repr read it; for a certificate from the search, the
    # cached property below builds it.
    trace: Tuple[TraceStep, ...]
    tol_margin: Tuple[float, float]

    def __init__(self, trace: Tuple[TraceStep, ...], tol_margin: Tuple[float, float]):
        vars(self).update(trace=trace, tol_margin=tol_margin)

    @classmethod
    def _of_columns(cls, net: Net, ctx: "_Ctx", events: List[tuple], tol_margin) -> "Irreducible":
        cert = cls.__new__(cls)
        vars(cert).update(_columns=(net.ids, net.ends, ctx.seeds, ctx.ties, events), tol_margin=tol_margin)
        return cert

    @cached_property
    def trace(self) -> Tuple[TraceStep, ...]:
        """The ties, then the search events, named by their ids."""
        ids, ends, seeds, ties, events = self._columns
        vertex, e, f = ties.T
        tied = zip(_named(ids, ends, e), vertex.tolist(), _named(ids, ends, f))
        steps = [TraceStep(a, ids[k], (b,), (), tie=True) for a, k, b in tied]
        seed = _named(ids, ends, seeds)
        for c, k, ins, outs, code in events:
            steps.append(TraceStep(seed[c], ids[k] if k >= 0 else None, tuple(seed[d] for d in _rows(ins)),
                                   tuple(seed[d] for d in _rows(outs)), _REASONS[code]))
        return tuple(steps)

    def _counts(self) -> Tuple[int, int, int]:
        """The trace's ties, seeded classes and forcing steps, counted in
        the columns of a certificate from find_proper_subnet."""
        _, _, _, ties, events = self._columns
        seeded = sum(k < 0 and not code for _, k, _, _, code in events)
        forced = sum(k >= 0 and not code for _, k, _, _, code in events)
        return len(ties), seeded, forced


@dataclass(frozen=True)
class Reducible:
    witness: FrozenSet[Edge]
    tol_margin: Tuple[float, float]

    def __repr__(self) -> str:
        # sorted: a frozenset of str pairs iterates in per-process hash order
        body = "{" + ", ".join(map(repr, sorted(self.witness))) + "}" if self.witness else ""
        return f"{type(self).__qualname__}(witness=frozenset({body}), tol_margin={self.tol_margin!r})"


SubnetCertificate = Union[Irreducible, Reducible]


def _class_tables(group: tuple, class_of: np.ndarray, bit: np.ndarray) -> list:
    """(star, classes, table) for each star of a _tables group that says
    more than its ties: its position in rows, its classes and its subsets
    that hold each class whole or not at all, as bitsets of bit[c] = 1 << c."""
    members, legs, star, held = group
    cls = class_of[legs]
    # rep[s, i] is the lowest leg of star s in leg i's class.
    rep = (cls[:, :, None] == cls[:, None, :]).argmax(axis=2)
    full = np.bincount(star[held.all(axis=1)], minlength=len(members)) > 0
    keep = ~((rep == 0).all(axis=1) & full)
    if not keep.any():
        return []
    rows = keep[star] & (held == np.take_along_axis(held, rep[star], axis=1)).all(axis=1)
    weight = bit[np.where(rep == np.arange(legs.shape[1]), cls, -1)]  # bit[-1] is 0
    tables: Dict[int, List[int]] = {s: [] for s in np.flatnonzero(keep).tolist()}
    values = np.where(held[rows], weight[star[rows]], 0).sum(axis=1)
    for s, m in zip(star[rows].tolist(), values.tolist()):
        tables[s].append(m)
    return [(int(members[s]), int(weight[s].sum()), table) for s, table in tables.items()]


class _Ctx:
    """Class-level search tables, over n edge rows, from _tables' groups at
    the vertex rows vrows, and a shared node budget. ties is an (E - C, 3)
    integer array with one row (vertex row, e, f) per union of two classes,
    e the edge row of f's lead. class_of[r] is edge r's class, and seeds[c]
    the lowest edge row of class c. The vertices that _class_tables keeps
    have vertex rows rows, in vrows order, classes inc[k] and table
    masks[k]; vertices_of[c] lists those at class c. branch[c] is (k, inc,
    masks) of the first vertex at class c's lowest edge, where the search
    branches when c is the lowest open class; k is -1 when that vertex
    dropped out. Nothing here names an edge or a vertex by its id.
    """

    def __init__(self, n: int, vrows: Sequence[int], groups: list):
        # A leg's lead is the lowest leg whose column over its star's
        # subsets equals its own. at[r] is the first star at edge r.
        found = [(np.empty(0, dtype=np.int64),) * 4]
        at = np.full(n, len(vrows))
        for members, legs, star, held in groups:
            starts = np.searchsorted(star, np.arange(len(members)))
            lead = np.logical_or.reduceat(held[:, :, None] != held[:, None, :], starts, axis=0).argmin(axis=2)
            s, leg = np.nonzero(lead != np.arange(legs.shape[1]))
            found.append((members[s], leg, legs[s, lead[s, leg]], legs[s, leg]))
            np.minimum.at(at, legs.ravel(), members.repeat(legs.shape[1]))
        on, leg, lead_edge, leg_edge = (np.concatenate(parts) for parts in zip(*found))
        order = np.lexsort((leg, on))
        ks, es, fs = (column[order] for column in (on, lead_edge, leg_edge))
        joined, root = _kernels.unions(n, es.tolist(), fs.tolist())
        joined = np.array(joined, dtype=np.int64)
        self.ties = np.stack((np.asarray(vrows, dtype=np.int64)[ks[joined]], es[joined], fs[joined]), axis=1)
        is_root = root == np.arange(len(root))
        lowest = np.flatnonzero(is_root)
        self.seeds: List[int] = lowest.tolist()
        self.class_of = np.cumsum(is_root)[root] - 1
        self.full = (1 << len(self.seeds)) - 1

        bit = np.array([1 << c for c in range(len(self.seeds))] + [0], dtype=object)
        kept = sorted(row for group in groups for row in _class_tables(group, self.class_of, bit))
        self.rows: List[int] = [vrows[k] for k, _, _ in kept]
        self.inc: List[int] = [inc for _, inc, _ in kept]
        self.masks: List[List[int]] = [table for _, _, table in kept]
        self.vertices_of: List[List[int]] = [[] for _ in self.seeds]
        for k, inc in enumerate(self.inc):
            for c in _rows(inc):
                self.vertices_of[c].append(k)
        slot = {vertex: k for k, (vertex, _, _) in enumerate(kept)}
        self.branch = [(k, self.inc[k], self.masks[k]) if k >= 0 else (k, 1 << c, [0, 1 << c])
                       for c, k in enumerate(slot.get(v, -1) for v in at[lowest].tolist())]
        self.nodes_left = _NODE_BUDGET

    def charge(self) -> None:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise SearchBudgetExceeded(f"exceeded {_NODE_BUDGET} search nodes")


def _rows(bits: int) -> List[int]:
    """Indices of the set bits, ascending."""
    rows = []
    while bits:
        bit = bits & -bits
        rows.append(bit.bit_length() - 1)
        bits ^= bit
    return rows


def _fitting(inc: int, masks: List[int], ins: int, outs: int) -> List[int]:
    """The subsets in masks, at a vertex with classes inc, that hold every
    chosen class there and no ruled-out one."""
    need = ins & inc
    return [m for m in masks if m & need == need and not m & outs]


def _propagate(ctx: _Ctx, ins: int, outs: int, queue: List[int], events: List[tuple],
               seed: int) -> Optional[Tuple[int, int]]:
    """Unit propagation to fixpoint from the vertices k in queue, appending
    its events for the seed class to events. Returns (ins, outs), or None
    on a conflict."""
    pending = set(queue)
    work = list(queue)
    while work:
        k = work.pop()
        pending.discard(k)
        ctx.charge()
        inc = ctx.inc[k]
        cands = _fitting(inc, ctx.masks[k], ins, outs)
        if not cands:
            events.append((seed, ctx.rows[k], 0, 0, _NO_FIT))
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
            events.append((seed, ctx.rows[k], new_in, new_out, 0))
            for c in _rows(new_in | new_out):
                for w in ctx.vertices_of[c]:
                    if w not in pending:
                        pending.add(w)
                        work.append(w)
    return ins, outs


def _search(ctx: _Ctx, c: int, excluded: int, events: List[tuple]) -> Optional[int]:
    """Depth-first search for a complete consistent state that holds class
    c and avoids excluded; returns its chosen classes, or None. Each state
    popped off the stack is charged one node and propagated from its queue:
    the root, which is the seed, from every vertex of the class, a branch
    from the vertices at the classes it decided but the one it branched
    at. Only the root's events, and an exhaustion after it branched, reach events."""
    stack = [(1 << c, excluded, ctx.vertices_of[c])]
    log = events
    while stack:
        ins, outs, queue = stack.pop()
        ctx.charge()
        state = _propagate(ctx, ins, outs, queue, log, c)
        if state is None:
            continue
        ins, outs = state
        # ins and outs are disjoint, so ins == full means nothing is excluded.
        if ins == ctx.full:
            log.append((c, -1, 0, 0, _ALL_EDGES))
            continue
        free = ctx.full & ~(ins | outs)
        if not free:
            return ins
        k, inc, masks = ctx.branch[(free & -free).bit_length() - 1]
        decided = list(dict.fromkeys(w for d in _rows(inc & free) for w in ctx.vertices_of[d] if w != k))
        for m in reversed(_fitting(inc, masks, ins, outs)):
            stack.append((ins | m, outs | inc & ~m, decided))
        # Later states' events are dropped; a new list per branch point bounds them.
        log = []
    if log is not events:
        events.append((c, -1, 0, 0, _EXHAUSTED))
    return None


def _first_subnet(ctx: _Ctx, excluded: int, events: List[tuple]) -> Optional[int]:
    """Seed each class outside excluded in ascending order and return the
    first subnet found. A refuted class joins excluded. The search events
    are appended to events (see TraceStep)."""
    for c in range(len(ctx.seeds)):
        if excluded >> c & 1:
            continue
        events.append((c, -1, 1 << c, 0, 0))
        found = _search(ctx, c, excluded, events)
        if found is not None:
            return found
        excluded |= 1 << c
    return None


def _minimize(ctx: _Ctx, witness: int) -> int:
    """Shrink witness to a subnet of it from which no class, and so no
    edge, can be dropped. Each class is tested once, in ascending order: a
    class that no subnet inside the witness avoids stays unavoidable."""
    for c in _rows(witness):
        if witness >> c & 1:
            smaller = _first_subnet(ctx, ctx.full & ~witness | 1 << c, [])
            if smaller is not None:
                witness = smaller
    return witness


def find_proper_subnet(net: Net, tol: float = DEFAULT_TOL) -> SubnetCertificate:
    """Search for a proper subnet of a valid net.

    The search decides edge classes, not edges. Two edges at a balanced
    vertex are tied when every balanced subset there holds both or
    neither; the transitive closure of the ties splits the edges into
    classes, and every subnet is a union of classes.

    Returns Reducible with a minimal witness edge set (no single edge can
    be dropped and leave a proper subnet inside the rest of the witness),
    or Irreducible with a trace: first the ties, one per union of two
    classes, then every class's seed and propagation up to its conflict,
    naming each class by its lowest edge (see TraceStep). Propagation visits
    only vertices whose subsets say more than their ties, so a net of one
    class is refuted by its seed alone. Branch refutations are not
    recorded, only that a class's branches all failed. Branches live on an
    explicit stack, so deep searches do not hit Python's recursion limit.

    The search works on vertex and edge rows and builds neither TraceStep
    nor net.edges: it keeps the ties and search events as integer columns,
    from which Irreducible.trace builds its steps on first read, and names
    only the witness's own edges, from net.ids and net.ends.

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
    rows = net.free.tolist()
    groups, accepted, high = _tables(net, rows, tol)
    # verify sums each star in another order than star_subsets; cover both.
    tol_margin = (max(report.max_residual, accepted), high)
    ctx = _Ctx(len(net.ends), rows, groups)
    events: List[tuple] = []
    found = _first_subnet(ctx, 0, events)
    if found is not None:
        chosen = np.zeros(len(ctx.seeds), dtype=bool)
        chosen[_rows(_minimize(ctx, found))] = True
        witness = frozenset(_named(net.ids, net.ends, np.flatnonzero(chosen[ctx.class_of])))
        return Reducible(witness, tol_margin)
    return Irreducible._of_columns(net, ctx, events, tol_margin)


def is_irreducible(net: Net, tol: float = DEFAULT_TOL) -> Tuple[bool, SubnetCertificate]:
    cert = find_proper_subnet(net, tol)
    return (isinstance(cert, Irreducible), cert)
