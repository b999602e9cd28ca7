import copy
import hashlib
import inspect
import itertools
import math
import pickle
import random
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from geonets import (
    DEFAULT_OVERLAY_TERMINALS,
    DegreeTooLarge,
    Irreducible,
    Net,
    Point,
    Reducible,
    SearchBudgetExceeded,
    TraceStep,
    Triangle,
    Vertex,
    WideAngleTriangle,
    balanced_edge_subsets,
    build_double_tripod,
    build_fermat_tripod,
    build_overlay_net,
    edge_key,
    edge_subnet,
    find_proper_subnet,
    is_irreducible,
    planarize,
    relabeled,
    relax,
    rotate,
    unit_vector,
    verify,
)
from geonets import irreducible

from helpers import (
    B,
    brute_force_balanced_subsets,
    chord_arrangement,
    edge_classes,
    edges_on_segment,
    enumerate_proper_subnets,
    honeycomb,
    jitter,
    least_rejected_norm,
    pinned_paper16,
    raw_tripod_overlay,
    replay_ties,
    run_python,
    subset_is_balanced,
    tripod_overlay,
    vertex,
)


def planarized_x_net() -> Net:
    return planarize(
        Net(
            vertices=(
                vertex("p1", -1, -1),
                vertex("p2", 1, -1),
                vertex("p3", 1, 1),
                vertex("p4", -1, 1),
            ),
            edges=(("p1", "p3"), ("p2", "p4")),
        )
    )


# --- balanced edge subsets --------------------------------------------------

def test_subsets_at_paper_inner_ring_vertex(paper_net):
    subs = balanced_edge_subsets(paper_net, "a1")
    assert len(subs) == 2
    assert subs[0] == ()
    assert subs[1] == paper_net.incident_edges("a1")
    assert len(paper_net.incident_edges("a1")) == 5


def test_subsets_at_paper_degree_three_vertex(paper_net):
    subs = balanced_edge_subsets(paper_net, "b1")
    assert subs == [(), paper_net.incident_edges("b1")]


def test_subsets_at_triple_crossing(paper_net):
    # three straight chords through x1: any union of opposite pairs balances
    subs = balanced_edge_subsets(paper_net, "x1")
    assert paper_net.degree("x1") == 6
    assert len(subs) == 8
    sizes = sorted(len(s) for s in subs)
    assert sizes == [0, 2, 2, 2, 4, 4, 4, 6]


def _bent_star(bend):
    """A balanced vertex c with three opposite pairs of edges on axes 120
    degrees apart, each pair bent by `bend`. The bends cancel, so c
    balances; every union of one or two pairs has residual 2*sin(bend/2),
    and each of the two tripods sums to zero."""
    verts, edges = [vertex("c", 0, 0, B)], []
    for k in range(3):
        axis = 2 * math.pi * k / 3
        for side, angle in (("a", axis), ("b", axis + math.pi + bend)):
            verts.append(vertex(f"{side}{k}", math.cos(angle), math.sin(angle)))
            edges.append(("c", f"{side}{k}"))
    return Net(verts, edges)


@pytest.mark.parametrize(
    "net, vid, tol, low, high",
    [
        # the pairs are rejected at 5e-9: the high end
        (_bent_star(5e-9), "c", 1e-9, 0.0, 5e-9),
        # the pairs are accepted at 5e-10: the low end; the least rejected
        # subset is one leg, or a pair and one leg, near 1
        (_bent_star(5e-10), "c", 1e-9, 5e-10, 1.0),
        # opposite unit vectors cancel exactly, so tol = 0 certifies; the
        # least rejected subset is one leg or three
        (planarized_x_net(), "x1", 0.0, 0.0, 1.0),
    ],
    ids=["rejected-within-10tol", "none-rejected", "tol0"],
)
def test_tolerance_margin(net, vid, tol, low, high):
    cert = find_proper_subnet(net, tol)
    assert isinstance(cert, Reducible)
    got_low, got_high = cert.tol_margin
    assert got_low == pytest.approx(low, rel=1e-6, abs=1e-15)
    assert got_high == pytest.approx(high, rel=1e-6)
    # high is the least rejected norm of a full enumeration, up to the
    # rounding of a sum of unit vectors
    assert got_high == pytest.approx(least_rejected_norm(net, tol), rel=0.0, abs=1e-15)
    # the margin is a true statement about every subset, up to rounding
    balanced = set(balanced_edge_subsets(net, vid, tol))
    assert set(brute_force_balanced_subsets(net, vid, got_low + 1e-15)) == balanced
    assert set(brute_force_balanced_subsets(net, vid, max(got_high - 1e-15, 0.0))) == balanced
    # at both ends of the margin the subset table and the certificate
    # do not change: at low itself and at the largest double below high
    if got_low < got_high:
        for end in (got_low, math.nextafter(got_high, 0.0)):
            assert set(balanced_edge_subsets(net, vid, end)) == balanced
            assert find_proper_subnet(net, end).witness == cert.witness


def test_margin_high_end_is_the_least_rejected_norm(paper_net, paper_cert, overlay_net, overlay_cert):
    # a full enumeration, up to the rounding of a sum of unit vectors
    hexes = honeycomb(8, 6)
    for net, cert in ((paper_net, paper_cert), (overlay_net, overlay_cert),
                      (hexes, find_proper_subnet(hexes))):
        assert cert.tol_margin[1] == pytest.approx(least_rejected_norm(net), rel=0.0, abs=1e-15)


def test_margin_of_a_net_with_no_balanced_vertex():
    # one lone pin: no subset table, so nothing is accepted or rejected
    cert = find_proper_subnet(Net([vertex("p", 0.0, 0.0)], []))
    assert cert.tol_margin == (0.0, math.inf)


def test_paper_net_margin_ends_are_exact(paper_net, paper_cert):
    # low is the largest norm of a balanced subset or verify residual, so
    # the accept test norm <= tol passes every balanced subset at low and
    # fails one at the double below it; high is the least rejected norm
    low, high = paper_cert.tol_margin
    balanced = [v.id for v in paper_net.vertices if v.kind is B]
    tables = {vid: balanced_edge_subsets(paper_net, vid) for vid in balanced}
    for end in (low, math.nextafter(high, 0.0)):
        assert {vid: balanced_edge_subsets(paper_net, vid, end) for vid in balanced} == tables
        assert find_proper_subnet(paper_net, end).trace == paper_cert.trace
    below = math.nextafter(low, 0.0)
    assert any(balanced_edge_subsets(paper_net, vid, below) != tables[vid] for vid in balanced)


def test_subsets_at_crossing_of_two_chords():
    net = planarized_x_net()
    subs = balanced_edge_subsets(net, "x1")
    assert len(subs) == 4
    assert sorted(len(s) for s in subs) == [0, 2, 2, 4]


def test_subsets_reject_unbalanced_vertex(paper_net):
    with pytest.raises(ValueError):
        balanced_edge_subsets(paper_net, "c1")


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_subsets_reject_a_bad_tolerance(paper_net, tol):
    # the subset test is norm <= tol, so tol = -1 would reject even the
    # empty subset, and tol = nan every subset
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        balanced_edge_subsets(paper_net, "x1", tol)


def _regular_star(n):
    """A balanced vertex c with n legs to pins t0..t{n-1}, 360/n degrees
    apart."""
    verts = [vertex("c", 0, 0, B)]
    for i in range(n):
        ang = 2 * math.pi * i / n
        verts.append(vertex(f"t{i}", math.cos(ang), math.sin(ang)))
    return Net(verts, [("c", f"t{i}") for i in range(n)])


def test_subsets_match_brute_force(paper_net, tripod_net, double_tripod_net):
    # the subsets come in ascending mask order over the edges, not by size
    hexagon = _regular_star(6)
    assert [len(s) for s in balanced_edge_subsets(hexagon, "c")] == [0, 2, 2, 3, 4, 2, 3, 4, 4, 6]
    nets = [tripod_net, double_tripod_net, planarized_x_net(), hexagon]
    for net in nets:
        for v in net.vertices:
            if v.kind is B:
                assert balanced_edge_subsets(net, v.id) == brute_force_balanced_subsets(
                    net, v.id
                )
    # spot checks on the big net (the full sweep is an acceptance test)
    for vid in ("b2", "d3", "x2"):
        assert balanced_edge_subsets(paper_net, vid) == brute_force_balanced_subsets(
            paper_net, vid
        )


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"array work ({name}) before the degree check")


def test_subsets_degree_cap(monkeypatch):
    net = _regular_star(25)
    assert verify(net).passed
    # the cap is checked before any array is built
    monkeypatch.setattr(irreducible, "np", _NoArrays())
    monkeypatch.setattr(irreducible, "_kernels", _NoArrays())
    with pytest.raises(DegreeTooLarge, match="degree 25 > 24"):
        balanced_edge_subsets(net, "c")
    with pytest.raises(DegreeTooLarge, match="degree 25 > 24"):
        find_proper_subnet(net)


# --- subnet search -----------------------------------------------------------

def _steps_by_seed(cert):
    """The steps after the ties, grouped by the seed they belong to."""
    by_seed = {}
    for step in cert.trace:
        if not step.tie:
            by_seed.setdefault(step.seed, []).append(step)
    return by_seed


def test_tripod_is_irreducible(tripod_net):
    flag, cert = is_irreducible(tripod_net)
    assert flag
    assert isinstance(cert, Irreducible)
    # the three legs are tied at the centre: one class, two ties
    assert replay_ties(tripod_net, cert) == [frozenset(tripod_net.edges)]
    assert sum(step.tie for step in cert.trace) == 2
    for steps in _steps_by_seed(cert).values():
        assert steps[-1].conflict is not None


def test_double_tripod_is_irreducible(double_tripod_net):
    flag, cert = is_irreducible(double_tripod_net)
    assert flag
    assert isinstance(cert, Irreducible)


def test_x_net_is_reducible():
    net = planarized_x_net()
    flag, cert = is_irreducible(net)
    assert not flag
    assert isinstance(cert, Reducible)
    # one straight chord through the crossing
    assert len(cert.witness) == 2
    assert subset_is_balanced(net, sorted(cert.witness))
    sub = edge_subnet(net, cert.witness)
    assert verify(sub, min_balanced_degree=1).passed


def test_find_proper_subnet_requires_a_valid_net():
    crossed = Net(
        vertices=(
            vertex("p1", -1, -1),
            vertex("p2", 1, -1),
            vertex("p3", 1, 1),
            vertex("p4", -1, 1),
        ),
        edges=(("p1", "p3"), ("p2", "p4")),
    )
    with pytest.raises(ValueError):
        find_proper_subnet(crossed)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_find_proper_subnet_rejects_a_bad_tolerance(tripod_net, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        find_proper_subnet(tripod_net, tol)


def test_paper_net_certificate(paper_cert, paper_net):
    assert isinstance(paper_cert, Irreducible)
    # 43 ties, each read off one vertex's table, join all 44 edges
    classes = replay_ties(paper_net, paper_cert)
    assert classes == [frozenset(paper_net.edges)]
    assert sum(step.tie for step in paper_cert.trace) == 43
    by_seed = _steps_by_seed(paper_cert)
    assert list(by_seed) == [paper_net.edges[0]]
    for seed, steps in by_seed.items():
        assert steps[0].forced_in == (seed,)
        assert steps[-1].conflict is not None
        # every seed is refuted by its own propagation, without branching
        assert not steps[-1].conflict.startswith("exhaustive"), seed
    touched = {step.vertex for step in paper_cert.trace if step.vertex is not None}
    assert touched == {v.id for v in paper_net.vertices if v.kind is B}


@pytest.mark.parametrize("name", ["paper", "honeycomb"])
def test_certificate_is_linear_in_its_steps(request, name):
    # A seed step names only its class's lowest edge: the classes its
    # search excludes are the classes before it, so no step repeats them.
    # The ties number E - C for E edges and C classes.
    if name == "paper":
        net, cert = request.getfixturevalue("paper_net"), request.getfixturevalue("paper_cert")
    else:
        net = planarize(honeycomb(8, 6))
        cert = find_proper_subnet(net)
    assert isinstance(cert, Irreducible)
    refs = sum(len(step.forced_in) + len(step.forced_out) for step in cert.trace)
    max_degree = max(net.degree(v.id) for v in net.vertices)
    assert refs <= max_degree * len(cert.trace)
    classes = replay_ties(net, cert)
    assert classes == edge_classes(net)
    assert sum(step.tie for step in cert.trace) == len(net.edges) - len(classes)
    assert len(cert.trace) <= 2 * len(net.edges)
    touched = {step.vertex for step in cert.trace if step.vertex is not None}
    assert touched == {v.id for v in net.vertices if v.kind is B}
    for steps in _steps_by_seed(cert).values():
        assert steps[-1].conflict is not None


@pytest.fixture(
    scope="module", params=["default", 0, 1, 2], ids=["default", "jitter0", "jitter1", "jitter2"]
)
def overlay_case(request, overlay_net, overlay_cert):
    if request.param == "default":
        return overlay_net, overlay_cert
    # terminals moved by up to 0.3: 68 edges, and the search branches
    rng = random.Random(request.param)
    terminals = [
        Point(p.x + rng.uniform(-0.3, 0.3), p.y + rng.uniform(-0.3, 0.3))
        for p in DEFAULT_OVERLAY_TERMINALS
    ]
    net = build_overlay_net(*terminals)
    return net, find_proper_subnet(net)


def test_overlay_certificate(overlay_case):
    net, cert = overlay_case
    assert isinstance(cert, Reducible)
    w = cert.witness
    assert len(w) == 8
    assert len(w) < len(net.edges)
    sub = edge_subnet(net, w)
    report = verify(sub, min_balanced_degree=1)
    assert report.passed
    assert report.max_residual < 1e-9


def test_a_reducible_prints_the_same_under_any_hash_seed(overlay_cert):
    # A frozenset of str pairs iterates in the order of the per-process
    # string hash, so the generated repr listed the overlay's witness in a
    # different order under each seed.
    script = ("from geonets import build_overlay_net, find_proper_subnet\n"
              "print(find_proper_subnet(build_overlay_net()))\n")
    printed = set()
    for seed in ("0", "1", "2"):
        done = run_python(["-c", script], PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        printed.add(done.stdout)
    witness = ", ".join(map(repr, sorted(overlay_cert.witness)))
    margin = overlay_cert.tol_margin
    assert printed == {f"Reducible(witness=frozenset({{{witness}}}), tol_margin={margin!r})\n"}
    assert eval(repr(overlay_cert)) == overlay_cert
    empty = Reducible(frozenset(), (0.0, 1.0))
    assert repr(empty) == "Reducible(witness=frozenset(), tol_margin=(0.0, 1.0))"
    assert eval(repr(empty)) == empty


def test_overlay_witness_is_minimal(overlay_case):
    net, cert = overlay_case
    w = sorted(cert.witness)
    for drop in range(len(w)):
        rest = [e for i, e in enumerate(w) if i != drop]
        # no balanced sub-subset survives dropping any single edge
        assert not any(
            subset_is_balanced(net, subset)
            for subset in _nonempty_subsets(rest)
        )


def _nonempty_subsets(edges):
    out = []
    m = len(edges)
    for mask in range(1, 1 << m):
        out.append([edges[i] for i in range(m) if mask & (1 << i)])
    return out


@pytest.mark.parametrize(
    "name, nodes", [("paper", 1), ("overlay", 42), ("x", 3)], ids=["paper", "overlay", "x"]
)
def test_search_node_budget_boundary(request, monkeypatch, name, nodes):
    # every seed, every vertex check in propagation and every branch costs
    # one node; paper16 is one edge class, so its seed alone refutes it
    net = planarized_x_net() if name == "x" else request.getfixturevalue(f"{name}_net")
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", nodes)
    find_proper_subnet(net)
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", nodes - 1)
    with pytest.raises(SearchBudgetExceeded, match=f"exceeded {nodes - 1} search nodes"):
        find_proper_subnet(net)


@pytest.mark.parametrize(
    "name, verdict, ties", [("overlay", Reducible, 0), ("tripod", Reducible, 0), ("paper", Irreducible, 43)],
    ids=["overlay", "tripod_overlay(6, 0)", "paper"],
)
def test_tie_steps_are_built_only_for_an_irreducible_verdict(request, monkeypatch, name, verdict, ties):
    # The search keeps its trace as integer columns and builds no step for
    # any verdict; an Irreducible builds its steps on the first read of
    # trace, once. The session's paper_cert may have been read already, so
    # the certificate here is a fresh one.
    net = tripod_overlay(6, 0) if name == "tripod" else request.getfixturevalue(f"{name}_net")
    built = []

    class Counted(TraceStep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.tie)

    monkeypatch.setattr(irreducible, "TraceStep", Counted)
    cert = find_proper_subnet(net)
    assert isinstance(cert, verdict)
    assert built == []
    if verdict is Irreducible:
        trace = cert.trace
        assert (sum(built), len(built)) == (ties, len(trace))
        assert cert.trace is trace
        assert len(built) == len(trace)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_a_searched_certificate_is_the_value_of_its_trace(paper_net, tripod_net, double_tripod_net, read):
    # A certificate from the search builds its trace from columns on first
    # read; before and after that read it equals, hashes, prints and
    # pickles as the certificate built from the same trace. The
    # SEARCH_SHA256 corpus holds no irreducible net, so these are the
    # fixtures' irreducible nets and a honeycomb.
    def searched():
        cert = find_proper_subnet(net)
        if read:
            cert.trace
        return cert

    round_trips = (lambda c: c, lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy)
    for net in (paper_net, honeycomb(8, 6), tripod_net, double_tripod_net):
        cert = find_proper_subnet(net)
        built = Irreducible(cert.trace, cert.tol_margin)
        assert isinstance(cert.trace, tuple) and all(type(step) is TraceStep for step in cert.trace)
        for round_trip in round_trips:
            assert round_trip(searched()) == built and built == round_trip(searched())
            assert hash(round_trip(searched())) == hash(built)
            assert repr(round_trip(searched())) == repr(built)
        assert searched() != Irreducible(cert.trace, (0.0, math.inf))
        assert searched() != Irreducible(cert.trace[1:], cert.tol_margin)
        assert {searched(), built} == {built}


def test_a_copy_of_a_searched_certificate_keeps_its_columns(paper_net, monkeypatch):
    # A copy or pickle of a certificate from the search carries its integer
    # columns: making it builds no step, it counts from its columns as the
    # original does, and it equals, hashes and prints as the certificate
    # built from the same trace. A built certificate copies as its steps.
    built = []

    class Counted(TraceStep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    round_trips = (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)))
    for net in (paper_net, honeycomb(8, 6)):
        first = find_proper_subnet(net)
        expected = Irreducible(first.trace, first.tol_margin)
        for round_trip in round_trips:
            cert = find_proper_subnet(net)
            with monkeypatch.context() as patched:
                patched.setattr(irreducible, "TraceStep", Counted)
                copied = round_trip(cert)
                assert copied._counts() == cert._counts() == first._counts()
            assert built == []
            assert copied == expected and hash(copied) == hash(expected)
            assert repr(copied) == repr(expected)
            assert round_trip(expected) == expected
            assert vars(round_trip(expected)).keys() == {"trace", "tol_margin"}


# sha256 over (trace, tol_margin, _counts()) of the irreducible
# certificates below. Every one of these nets is one edge class, so the
# trace is its ties and one seed; the hand-built tables further down pin
# the forcing, branching and exhaustion events.
TRACE_SHA256 = "031a627d02008c1c499e6c6c7c19231c8aabc6f5563868c22fe6ec6634dc2392"


def test_irreducible_traces_are_pinned(paper_net):
    nets = [
        paper_net,
        build_fermat_tripod(Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))),
        build_double_tripod(Point(-2.0, 1.0), Point(-2.0, -1.0), Point(2.0, 1.0), Point(2.0, -1.0)),
        honeycomb(4, 3), honeycomb(8, 6), honeycomb(20, 16),
    ]
    nets += [relax(pinned_paper16(s, 0.05)).net for s in range(6)]
    digest = hashlib.sha256()
    for net in nets:
        cert = find_proper_subnet(net)
        assert isinstance(cert, Irreducible)
        digest.update(repr((cert.trace, cert.tol_margin, cert._counts())).encode())
    assert digest.hexdigest() == TRACE_SHA256


def test_one_class_net_is_refuted_in_one_pass_over_its_vertices(monkeypatch):
    # 1,835 edges in one class: seeding each edge in turn took hundreds of
    # thousands of nodes, and checking each balanced vertex after the one
    # class seed took one per vertex. No vertex says more than its ties, so
    # the seed is the one node.
    net = honeycomb(40, 32)
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", 1)
    cert = find_proper_subnet(net)
    assert isinstance(cert, Irreducible)
    assert sum(step.tie for step in cert.trace) == len(net.edges) - 1


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 276 edges; the search branches hundreds of times from one seed
    net = tripod_overlay(6, 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        cert = find_proper_subnet(net)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(cert, Reducible)
    assert len(cert.witness) == 16
    assert verify(edge_subnet(net, cert.witness), min_balanced_degree=1).passed


def test_search_fits_each_node_once(monkeypatch):
    # _fitting runs once per vertex check and once per branch point. Each
    # check costs a node, and so does each popped state, the seed included,
    # which is where every branch point is. The one class seeded here finds
    # the witness, a single tripod that minimizing cannot shrink.
    counts = {"fitting": 0, "nodes": 0, "classes": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(irreducible, "_fitting", counted("fitting", irreducible._fitting))
    monkeypatch.setattr(irreducible._Ctx, "charge", counted("nodes", irreducible._Ctx.charge))
    monkeypatch.setattr(irreducible, "_search", counted("classes", irreducible._search))
    cert = find_proper_subnet(tripod_overlay(7, 0))
    assert len(cert.witness) == 23
    assert counts == {"fitting": 665, "nodes": 666, "classes": 1}
    assert counts["fitting"] <= counts["nodes"]


# sha256 over (verdict, trace or sorted witness, tol_margin) of each net
# below that verifies, as the search gave it when it branched at the vertex
# with the fewest fitting subsets
SEARCH_SHA256 = "4ad7c10ad10bc6029e44de8f9ae95b8cc00307e977423bf2906f4b0f36fb21ee"


def test_certificates_do_not_depend_on_the_branch_vertex():
    nets = [chord_arrangement(k, s)[0] for k in (4, 6, 8, 12) for s in range(10)]
    nets += [tripod_overlay(n, s) for n in (6, 7) for s in range(3)]
    digest = hashlib.sha256()
    for net in filter(lambda net: verify(net).passed, nets):
        cert = find_proper_subnet(net)
        body = cert.trace if isinstance(cert, Irreducible) else sorted(cert.witness)
        digest.update(repr((type(cert).__name__, body, cert.tol_margin)).encode())
    assert digest.hexdigest() == SEARCH_SHA256


# sha256 over (verdict, sorted witness, tol_margin, tie steps) of the same
# nets, as the edge-level search gave them: what a search over edge
# classes must keep, whatever its forcing steps say
OUTCOME_SHA256 = "22383ddc250c48e4efc15e34dc32536ce18472dbf95f38b14a3eadd70d7ed423"


def test_verdicts_witnesses_margins_and_ties_are_pinned():
    nets = [chord_arrangement(k, s)[0] for k in (4, 6, 8, 12) for s in range(10)]
    nets += [tripod_overlay(n, s) for n in (6, 7) for s in range(3)]
    digest = hashlib.sha256()
    for net in filter(lambda net: verify(net).passed, nets):
        cert = find_proper_subnet(net)
        ties = tuple(step for step in cert.trace if step.tie) if isinstance(cert, Irreducible) else ()
        witness = sorted(getattr(cert, "witness", ()))
        digest.update(repr((type(cert).__name__, witness, cert.tol_margin, ties)).encode())
    assert digest.hexdigest() == OUTCOME_SHA256


def _hand_ctx(n, tables):
    """A search context on edge rows 0..n-1 from hand-built tables
    {vid: (edge bitset, balanced subsets as ascending edge bitsets)},
    grouped by degree as _tables groups the stars of a net, the vertex
    row of each vid its position in tables; and a stand-in for the net,
    with ids and ends only, that names vertex row k by its vid and edge
    row r by _edges(r)."""
    ids = (*tables, "e", *map(str, range(n)))
    ends = np.array([(len(tables), len(tables) + 1 + r) for r in range(n)], dtype=np.int64).reshape(-1, 2)
    by_degree = {}
    for k, (inc, subsets) in enumerate(tables.values()):
        legs = irreducible._rows(inc)
        held = [[bool(m >> r & 1) for r in legs] for m in subsets]
        by_degree.setdefault(len(legs), []).append((k, legs, held))
    groups = [
        (np.array([k for k, _, _ in stars]), np.array([legs for _, legs, _ in stars]),
         np.array([s for s, (_, _, held) in enumerate(stars) for _ in held]),
         np.array([row for _, _, held in stars for row in held], dtype=bool))
        for stars in by_degree.values()
    ]
    return irreducible._Ctx(n, range(len(tables)), groups), SimpleNamespace(ids=ids, ends=ends)


def _edges(*rows):
    return tuple(("e", str(r)) for r in rows)


def _steps(ctx, net, events):
    """The search events, after the ties, as Irreducible.trace names them."""
    trace = irreducible.Irreducible._of_columns(net, ctx, events, (0.0, 0.0)).trace
    return list(trace[len(ctx.ties):])


NO_FIT = "no balanced edge subset fits the current selection"


def test_class_tables_drop_split_subsets_and_vertices_their_ties_decide(paper_net):
    # paper16 is one class, so every subset at a chord crossing that holds
    # one chord and not another splits it, and no vertex remains; the one
    # class branches on itself
    rows = paper_net.free.tolist()
    ctx = irreducible._Ctx(len(paper_net.ends), rows, irreducible._tables(paper_net, rows, 1e-9)[0])
    assert (ctx.seeds, ctx.rows, ctx.branch) == ([0], [], [(-1, 1, [0, 1])])
    # Hand-built: v0 holds edges 0-2 and v1 ties 1 and 2, so the subsets
    # {0, 1} and {0, 2} at v0 split class {1, 2}; v1 drops out.
    ctx, _ = _hand_ctx(3, {"v0": (0b111, [0, 0b011, 0b101, 0b111]), "v1": (0b110, [0, 0b110])})
    assert (ctx.ties.tolist(), ctx.class_of.tolist(), ctx.seeds) == ([[1, 1, 2]], [0, 1, 1], [0, 1])
    assert (ctx.rows, ctx.inc, ctx.masks) == ([0], [0b11], [[0, 0b11]])
    assert ctx.branch == [(0, 0b11, [0, 0b11]), (0, 0b11, [0, 0b11])]


def test_search_rechecks_a_vertex_whose_last_free_classes_a_branch_decides():
    # Hand-built tables on 5 edges in 3 classes: {0}, {1, 3} tied at v2 and
    # {2, 4} tied at v3. v1 takes class 0 with class 1 or with class 2.
    # Propagation from the seed decides nothing, and the search branches
    # at v0, the first vertex at edge 1. Its first subset leaves out both
    # classes, which only the recheck of v1 refutes.
    tables = {
        "v0": (0b00110, [0, 0b00010, 0b00100, 0b00110]),
        "v1": (0b11001, [0, 0b01001, 0b10001]),
        "v2": (0b01010, [0, 0b01010]),
        "v3": (0b10100, [0, 0b10100]),
    }
    ctx, net = _hand_ctx(5, tables)
    assert ctx.ties.tolist() == [[2, 1, 3], [3, 2, 4]]
    assert (ctx.rows, ctx.masks) == ([0, 1], [[0, 0b010, 0b100, 0b110], [0, 0b011, 0b101]])
    trace = []
    assert irreducible._first_subnet(ctx, 0, trace) == 0b011
    assert trace == [(0, -1, 0b001, 0, 0)]
    assert _steps(ctx, net, trace) == [TraceStep(_edges(0)[0], None, _edges(0), ())]
    assert irreducible._minimize(ctx, 0b011) == 0b011


def test_minimize_shrinks_a_first_subnet_that_is_not_minimal():
    # Seed edge 0 forces class {1, 2} in at v0, but {1, 2} alone is
    # balanced there too; v1 only holds edge 3 and admits none of it.
    ctx, _ = _hand_ctx(4, {"v0": (0b0111, [0, 0b0110, 0b0111]), "v1": (0b1000, [0])})
    assert (ctx.class_of.tolist(), ctx.masks) == ([0, 1, 1, 2], [[0, 0b10, 0b11], [0]])
    first = irreducible._first_subnet(ctx, 0, [])
    assert first == 0b011
    assert irreducible._minimize(ctx, first) == 0b010


def test_propagation_refutes_a_class_after_forcing_steps():
    # Seeding edge 0 forces class {1, 2, 3} in at v0, and v1 admits
    # neither of its edges 1 and 3. The ties at v0 and v1 join 1, 2 and 3.
    ctx, net = _hand_ctx(4, {"v0": (0b0111, [0, 0b110, 0b111]), "v1": (0b1010, [0])})
    assert (ctx.ties.tolist(), ctx.seeds, ctx.masks) == ([[0, 1, 2], [1, 1, 3]], [0, 1], [[0, 2, 3], [0]])
    trace = []
    assert irreducible._first_subnet(ctx, 0, trace) is None
    e0, e1 = _edges(0, 1)
    assert _steps(ctx, net, trace) == [
        TraceStep(e0, None, (e0,), ()),
        TraceStep(e0, "v0", (e1,), ()),
        TraceStep(e0, "v1", (), (), conflict=NO_FIT),
        TraceStep(e1, None, (e1,), ()),
        TraceStep(e1, "v1", (), (), conflict=NO_FIT),
    ]


def test_branching_refutes_a_class_that_propagation_leaves_open():
    # Edge 0 goes with edge 1 or edge 2 at v0, so propagation from the
    # seed decides nothing; v1 and v2 admit none of edges 1 and 2, so
    # either branch fails there.
    ctx, net = _hand_ctx(3, {"v0": (0b111, [0, 0b011, 0b101]), "v1": (0b010, [0]), "v2": (0b100, [0])})
    assert (ctx.ties.tolist(), ctx.rows) == ([], [0, 1, 2])
    trace = []
    assert irreducible._first_subnet(ctx, 0, trace) is None
    e0, e1, e2 = _edges(0, 1, 2)
    exhaustive = "exhaustive search found no proper subnet containing this edge class"
    assert _steps(ctx, net, trace) == [
        TraceStep(e0, None, (e0,), ()),
        TraceStep(e0, None, (), (), conflict=exhaustive),
        TraceStep(e1, None, (e1,), ()),
        TraceStep(e1, "v1", (), (), conflict=NO_FIT),
        TraceStep(e2, None, (e2,), ()),
        TraceStep(e2, "v2", (), (), conflict=NO_FIT),
    ]


@pytest.mark.parametrize("k", [3, 4, 6, 12])
def test_chord_arrangement_witness_is_one_whole_chord(k):
    # Generic chords meet in pairs, so every subnet is a union of whole
    # chords and every minimal one is a single chord.
    for seed in range(30):
        net, chords = chord_arrangement(k, seed)
        if not verify(net).passed:
            continue
        cert = find_proper_subnet(net)
        assert isinstance(cert, Reducible), seed
        assert cert.witness in {edges_on_segment(net, p, q) for p, q in chords}, seed
        if len(net.edges) <= 16:
            assert cert.witness in enumerate_proper_subnets(net), seed


def test_exhaustive_agreement_on_tiny_nets(tripod_net, double_tripod_net):
    for net in (tripod_net, double_tripod_net, planarized_x_net()):
        valid = enumerate_proper_subnets(net)
        flag, cert = is_irreducible(net)
        assert flag == (len(valid) == 0)
        if not flag:
            assert frozenset(cert.witness) in valid


def test_quarter_turn_rotation_preserves_the_verdict(paper_net, paper_cert):
    # relabel ids and rotate positions a quarter turn; verdict is unchanged
    from geonets import rotate

    rotated = Net(
        vertices=[
            Vertex(v.id, rotate(v.pos, 1), v.kind, v.label) for v in paper_net.vertices
        ],
        edges=paper_net.edges,
    )
    flag, cert = is_irreducible(rotated)
    assert flag
    assert isinstance(paper_cert, Irreducible)


# --- edge classes -------------------------------------------------------------

def _class_edges(net):
    """The edge classes of the search context of net, in class order."""
    rows = net.free.tolist()
    ctx = irreducible._Ctx(len(net.ends), rows, irreducible._tables(net, rows, 1e-9)[0])
    classes = ctx.class_of.tolist()
    return [frozenset(e for e, c in zip(net.edges, classes) if c == k) for k in range(len(ctx.seeds))]


def _star_of_groups(rng, groups):
    """A balanced vertex c whose legs come in groups at random angles and
    lengths: 2 for an opposite pair, 3 for a tripod. Generic angles make
    the balanced subsets exactly the unions of whole groups."""
    verts, edges = [vertex("c", 0, 0, B)], []
    for size in groups:
        turn = rng.uniform(0, 2 * math.pi)
        for k in range(size):
            angle, r = turn + 2 * math.pi * k / size, rng.uniform(1, 3)
            verts.append(vertex(f"t{len(edges)}", r * math.cos(angle), r * math.sin(angle)))
            edges.append(("c", f"t{len(edges)}"))
    return Net(verts, edges)


def _small_nets(rng, count):
    """count seeded nets with at most 14 edges that verify: chord
    arrangements, Fermat tripods, double tripods, honeycomb patches and
    stars of pairs and tripods."""
    families = [
        lambda: chord_arrangement(rng.randint(2, 5), rng.randrange(10**6))[0],
        lambda: build_fermat_tripod(Triangle(*jitter(rng, (0, 0), (4, 0), (1, 3)))),
        lambda: build_double_tripod(*jitter(rng, (0, 2), (0, -2), (6, 2), (6, -2))),
        lambda: honeycomb(*rng.choice([(4, 2), (3, 3), (4, 3), (5, 2)])),
        lambda: _star_of_groups(rng, [rng.choice((2, 3)) for _ in range(rng.randint(1, 4))]),
    ]
    found = []
    while len(found) < count:
        net = rng.choice(families)()
        if len(net.edges) <= 14 and verify(net).passed:
            found.append(net)
    return found


@pytest.mark.parametrize("seed", range(3))
def test_class_seeding_agrees_with_exhaustive_enumeration(seed):
    for net in _small_nets(random.Random(seed), 25):
        classes = edge_classes(net)
        assert _class_edges(net) == classes
        valid = enumerate_proper_subnets(net)
        # every subnet is a union of whole classes
        for sub in valid:
            assert all(c <= sub or not c & sub for c in classes), sub
        cert = find_proper_subnet(net)
        assert isinstance(cert, Irreducible) == (not valid), net.edges
        if isinstance(cert, Reducible):
            assert cert.witness in valid
            assert all(c <= cert.witness or not c & cert.witness for c in classes)
        else:
            assert replay_ties(net, cert) == classes


def _overlay_tripods(n, s):
    """tripod_overlay(n, s) and the planarized edges of each of its
    tripods."""
    raw = raw_tripod_overlay(n, s)
    net = planarize(raw)
    return net, {
        frozenset().union(*(edges_on_segment(net, v.pos, raw.vertex(p).pos)
                            for p in raw.adjacency[v.id]))
        for v in raw.vertices if v.kind is B
    }


@pytest.mark.parametrize("n", [6, 7, 8])
def test_tripod_overlay_classes_are_its_tripods(n):
    for s in range(3):
        net, tripods = _overlay_tripods(n, s)
        classes = _class_edges(net)
        assert len(classes) == len(tripods), s
        assert set(classes) == tripods, s
        cert = find_proper_subnet(net)
        assert cert.witness in tripods, s


# --- known-answer families ---------------------------------------------------

def _double_tripods(seed, count):
    """count seeded double tripods on jittered pins about a wide and a
    square rectangle; pins that admit none are skipped."""
    rng = random.Random(seed)
    bases = [((0, 2), (0, -2), (6, 2), (6, -2)), ((0, 1), (0, -1), (1, 1), (1, -1))]
    nets = []
    while len(nets) < count:
        try:
            nets.append(build_double_tripod(*jitter(rng, *bases[len(nets) % 2])))
        except WideAngleTriangle:
            pass
    return nets


def _moved(net, move):
    return Net([Vertex(v.id, move(v.pos), v.kind, v.label) for v in net.vertices], net.edges)


def _shuffled_ids(net, rng):
    ids = [v.id for v in net.vertices]
    return relabeled(net, dict(zip(ids, rng.sample(ids, len(ids)))))


def _symmetric_copies(net, rng):
    """net turned a quarter, scaled by 8 and by 1/8, moved by (0.5, -0.25)
    and with its ids shuffled from rng; quarter-turns and power-of-2
    scalings are exact."""
    return [
        _moved(net, lambda p: rotate(p, 1)),
        _moved(net, lambda p: Point(p.x * 8.0, p.y * 8.0)),
        _moved(net, lambda p: Point(p.x / 8.0, p.y / 8.0)),
        _moved(net, lambda p: Point(p.x + 0.5, p.y - 0.25)),
        _shuffled_ids(net, rng),
    ]


def _verdict(net):
    """Irreducible or not, the number of edge classes, and verify."""
    irreducible = isinstance(find_proper_subnet(net), Irreducible)
    return irreducible, len(_class_edges(net)), verify(net).passed


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _double_tripods(0, 10), id="double-tripods"),
    pytest.param(lambda: [honeycomb(4, 3)], id="honeycomb4x3"),
    pytest.param(lambda: [honeycomb(6, 5)], id="honeycomb6x5"),
    pytest.param(lambda: [honeycomb(8, 6)], id="honeycomb8x6"),
    pytest.param(lambda: [relax(pinned_paper16(seed, a)).net for a in (0.01, 0.05) for seed in range(5)],
                 id="pinned-paper16"),
])
def test_known_irreducible_family_keeps_its_verdict_under_symmetries(make):
    # double tripods, honeycomb patches and paper16 relaxed after its pins
    # move are irreducible and one edge class; quarter-turns and power-of-2
    # scalings are exact
    nets = make()
    rng = random.Random(1)
    for net in nets:
        assert _verdict(net) == (True, 1, True)
        cert = find_proper_subnet(net)
        assert sum(step.tie for step in cert.trace) == len(net.edges) - 1
        assert replay_ties(net, cert) == [frozenset(net.edges)]
        for moved in _symmetric_copies(net, rng):
            assert _verdict(moved) == (True, 1, True)


def _ids_back(net, shuffled):
    """Map each id of shuffled, a relabeling of net, back to net's id at
    the same position."""
    at = {v.pos: v.id for v in net.vertices}
    return {v.id: at[v.pos] for v in shuffled.vertices}


def _arrangement_chords(k, s):
    """chord_arrangement(k, s) and the edges of each of its chords."""
    net, chords = chord_arrangement(k, s)
    return net, {edges_on_segment(net, p, q) for p, q in chords}


@pytest.mark.parametrize("make, size", [
    pytest.param(lambda: _overlay_tripods(6, 0), 16, id="overlay6-0"),
    pytest.param(lambda: _overlay_tripods(6, 1), 11, id="overlay6-1"),
    pytest.param(lambda: _overlay_tripods(6, 2), 16, id="overlay6-2"),
    pytest.param(lambda: _arrangement_chords(4, 0), 2, id="chords4-0"),
    pytest.param(lambda: _arrangement_chords(6, 0), 2, id="chords6-0"),
])
def test_known_reducible_family_keeps_its_witness_under_symmetries(make, size):
    # Moved copies keep the ids, and with them the edge order that picks
    # the witness among the minimal subnets, so the witness is the same.
    # Shuffled ids may pick another minimal subnet of another size (17
    # edges for overlay6-1, 4 for chords6-0), but still one whole tripod
    # or chord.
    net, pieces = make()
    witness = find_proper_subnet(net).witness
    assert len(witness) == size
    assert witness in pieces
    *moved, shuffled = _symmetric_copies(net, random.Random(1))
    for copy in moved:
        assert verify(copy).passed
        assert find_proper_subnet(copy).witness == witness
    assert verify(shuffled).passed
    cert = find_proper_subnet(shuffled)
    assert isinstance(cert, Reducible)
    back = _ids_back(net, shuffled)
    assert frozenset(edge_key(back[u], back[v]) for u, v in cert.witness) in pieces


@pytest.mark.parametrize("a", [0.01, 0.05])
def test_paper_net_with_moved_pins_relaxes_to_an_irreducible_net(a):
    for seed in range(5):
        result = relax(pinned_paper16(seed, a))
        assert result.converged and result.iterations > 0, seed
        assert verify(result.net).passed, seed
        assert isinstance(find_proper_subnet(result.net), Irreducible), seed


# --- batched subset tables ----------------------------------------------------

def _paired_hubs(pairs):
    """Two balanced hubs joined by an edge, each with `pairs` opposite
    pairs of legs: the joining edge and a pin straight behind it, then
    pairs at generic angles. Every balanced subset at a hub is a union of
    its pairs."""
    rng = random.Random(pairs)
    verts = [vertex("h0", 0, 0, B), vertex("h1", 10, 0, B), vertex("b0", -2, 0), vertex("b1", 12, 0)]
    edges = [("h0", "h1"), ("b0", "h0"), ("b1", "h1")]
    for h, cx in (("h0", 0.0), ("h1", 10.0)):
        for k in range(pairs - 1):
            angle = rng.uniform(0.1, math.pi - 0.1)
            for side, sign in (("p", 1.0), ("q", -1.0)):
                vid = f"{h}{side}{k}"
                r = rng.uniform(1, 3)
                verts.append(vertex(vid, cx + sign * r * math.cos(angle), sign * r * math.sin(angle)))
                edges.append((h, vid))
    return Net(verts, edges)


def _cancels_at(net, vid, edges):
    here = net.vertex(vid).pos
    units = [unit_vector(here, net.vertex(b if a == vid else a).pos) for a, b in edges]
    return math.hypot(sum(u.dx for u in units), sum(u.dy for u in units)) <= 1e-9


def _star_tables(net, rows):
    """{vertex id: (its edges as _tables orders its legs, its subsets as
    masks over them)} from one _tables call on the vertex rows, and the
    margin ends."""
    groups, low, high = irreducible._tables(net, rows, 1e-9)
    tables = {}
    for members, legs, star, held in groups:
        masks = (held << np.arange(legs.shape[1])).sum(axis=1)
        for s, k in enumerate(members.tolist()):
            tables[net.ids[rows[k]]] = (tuple(net.edges[r] for r in legs[s].tolist()), masks[star == s].tolist())
    return tables, low, high


@pytest.mark.parametrize("name", ["paper", "overlay", "tripods", "hubs"])
def test_batched_tables_match_each_star_alone_and_brute_force(request, name):
    if name == "tripods":
        net = tripod_overlay(6, 0)
    elif name == "hubs":
        # degree 20: 2^20 subsets per hub, four chunks of 2^18 rows
        net = _paired_hubs(10)
    else:
        net = request.getfixturevalue(f"{name}_net")
    rows = net.free.tolist()
    tables, low, high = _star_tables(net, rows)
    assert sorted(tables) == [net.ids[k] for k in rows]
    lows, highs = [], []
    for k in rows:
        vid = net.ids[k]
        alone, alone_low, alone_high = _star_tables(net, [k])
        assert alone == {vid: tables[vid]}, vid
        lows.append(alone_low)
        highs.append(alone_high)
        edges, masks = tables[vid]
        assert edges == net.incident_edges(vid)
        table = [tuple(e for i, e in enumerate(edges) if m >> i & 1) for m in masks]
        if net.degree(vid) <= 12:
            expected = brute_force_balanced_subsets(net, vid)
        else:
            pairs = [pair for pair in itertools.combinations(net.incident_edges(vid), 2)
                     if _cancels_at(net, vid, pair)]
            assert len(pairs) == net.degree(vid) // 2
            expected = [tuple(e for pair in chosen for e in pair)
                        for k in range(len(pairs) + 1)
                        for chosen in itertools.combinations(pairs, k)]
        assert sorted(map(sorted, table)) == sorted(map(sorted, expected)), vid
        assert masks == sorted(masks)
    assert (low, high) == (max(lows), min(highs))
    # the margin ends bound the brute-force tables, up to rounding
    for vid in tables:
        if net.degree(vid) <= 12:
            for end in (low + 1e-15, max(high - 1e-15, 0.0)):
                assert brute_force_balanced_subsets(net, vid, end) == balanced_edge_subsets(net, vid)
