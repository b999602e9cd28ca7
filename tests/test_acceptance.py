"""End-to-end acceptance checks.

One test per numbered criterion (the first is split in two so its
geometry-consistent parts are reported separately from the pinned
printed value, which disagrees with the constructed figure; see the
failure message). The conftest summary prints one PASS/FAIL line per
criterion at the end of the run.
"""

import math
import random
import time

import pytest

from geonets import (
    BOUNDARY_ANGLE_DEG,
    DegenerateTriangle,
    Irreducible,
    Point,
    Reducible,
    Triangle,
    WideAngleTriangle,
    angle_at,
    balanced_edge_subsets,
    build_double_tripod,
    build_fermat_tripod,
    distance,
    edge_subnet,
    fermat_point,
    find_proper_subnet,
    is_irreducible,
    is_symmetric_under_quarter_turn,
    length_gradient,
    moved,
    relax,
    total_length,
    verify,
)

from helpers import (
    B,
    U,
    brute_force_balanced_subsets,
    enumerate_proper_subnets,
    overlay_component_trees,
    perturbed,
    random_net,
    replay_ties,
    subset_is_balanced,
)

ORIGIN = Point(0.0, 0.0)


# --- 1: construction golden values ------------------------------------------

def test_criterion_01_golden_angles(paper_net):
    pos = {vid: paper_net.vertex(vid).pos for vid in ("a2", "b1", "c1", "c2", "d1")}

    assert BOUNDARY_ANGLE_DEG == pytest.approx(76.04, abs=0.01)
    assert angle_at(pos["a2"], ORIGIN, pos["b1"]) == pytest.approx(75.0, abs=1e-9)
    assert angle_at(pos["c1"], pos["a2"], ORIGIN) == pytest.approx(13.96, abs=0.01)
    assert angle_at(pos["c1"], pos["d1"], ORIGIN) == pytest.approx(15.0, abs=1e-9)
    assert angle_at(pos["b1"], pos["c1"], pos["c2"]) < 120.0


def test_criterion_01_lemma_angle_pinned_value(paper_net):
    b1 = paper_net.vertex("b1").pos
    c1 = paper_net.vertex("c1").pos
    c2 = paper_net.vertex("c2").pos
    got = angle_at(b1, c1, c2)
    assert got == pytest.approx(117.92, abs=0.01), (
        f"the angle c1-b1-c2 in the constructed net is {got:.10f} degrees, "
        "not 117.92: the quoted value is inconsistent with the geometry "
        "that the other four golden angles (all of which check out) pin "
        "down, so this check documents the discrepancy rather than the "
        "construction being wrong; the load-bearing bound is < 120, "
        "asserted separately and satisfied"
    )


# --- 2: census ----------------------------------------------------------------

def test_criterion_02_census(paper_net):
    unbalanced = [v for v in paper_net.vertices if v.kind is U]
    balanced = [v for v in paper_net.vertices if v.kind is B]
    assert len(unbalanced) == 4
    assert len(balanced) == 16
    assert len(paper_net.edges) == 44
    profile = sorted(paper_net.degree(v.id) for v in balanced)
    assert profile == [3] * 8 + [5] * 4 + [6] * 4


# --- 3: verification and single-edge deletions ---------------------------------

def test_criterion_03_verify_and_edge_deletions(paper_net):
    report = verify(paper_net)
    assert report.passed
    assert report.max_residual < 1e-9
    for e in paper_net.edges:
        rest = [k for k in paper_net.edges if k != e]
        cut = verify(edge_subnet(paper_net, rest))
        assert not cut.passed
        assert cut.max_residual > 0.1


# --- 4: balanced edge subsets ---------------------------------------------------

def test_criterion_04_balanced_edge_subsets(paper_net):
    subs = balanced_edge_subsets(paper_net, "a1")
    full = paper_net.incident_edges("a1")
    assert len(full) == 5
    assert subs == [(), full]
    for v in paper_net.vertices:
        if v.kind is B:
            assert balanced_edge_subsets(paper_net, v.id) == (
                brute_force_balanced_subsets(paper_net, v.id)
            )
        else:
            with pytest.raises(ValueError):
                balanced_edge_subsets(paper_net, v.id)


# --- 5: irreducibility verdicts --------------------------------------------------

def test_criterion_05_paper_net_irreducible(paper_net):
    t0 = time.perf_counter()
    flag, cert = is_irreducible(paper_net)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert flag
    assert isinstance(cert, Irreducible)
    # every edge is reached by the ties from the seeds of its class
    classes = replay_ties(paper_net, cert)
    assert frozenset().union(*classes) == frozenset(paper_net.edges)
    by_seed = {}
    for step in cert.trace:
        if not step.tie:
            by_seed.setdefault(step.seed, []).append(step)
    assert len(by_seed) == len(classes)
    for steps in by_seed.values():
        assert steps[-1].conflict is not None
    assert len(cert.trace) <= 2 * len(paper_net.edges)
    touched = {step.vertex for step in cert.trace if step.vertex is not None}
    assert touched == {v.id for v in paper_net.vertices if v.kind is B}


def test_criterion_05_overlay_net_reducible(overlay_net, overlay_cert):
    assert isinstance(overlay_cert, Reducible)
    witness = overlay_cert.witness
    sub = edge_subnet(overlay_net, witness)
    report = verify(sub, min_balanced_degree=1)
    assert report.passed
    assert report.max_residual < 1e-9
    # minimal: no non-empty balanced subset survives removing any edge
    edges = sorted(witness)
    for drop in edges:
        rest = [e for e in edges if e != drop]
        for mask in range(1, 1 << len(rest)):
            subset = [rest[i] for i in range(len(rest)) if mask & (1 << i)]
            assert not subset_is_balanced(overlay_net, subset)
    # the witness contains one of the overlay's constituent trees
    trees = overlay_component_trees(overlay_net)
    union = frozenset().union(*trees)
    assert union == frozenset(overlay_net.edges)
    for tree in trees:
        assert subset_is_balanced(overlay_net, sorted(tree))
    assert any(tree <= witness for tree in trees)


# --- 6: Fermat points -------------------------------------------------------------

def test_criterion_06_fermat_point(paper_net):
    golden = fermat_point(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))
    want = (3.0 - math.sqrt(3.0)) / 6.0
    assert distance(golden, Point(want, want)) < 1e-9

    rng = random.Random(20260819)
    admissible = 0
    while admissible < 1000:
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        try:
            tri = Triangle(*pts)
        except DegenerateTriangle:
            continue
        if max(tri.angles()) >= 119.999:
            continue
        f = fermat_point(tri)
        for i in range(3):
            seen = angle_at(f, pts[i], pts[(i + 1) % 3])
            assert seen == pytest.approx(120.0, abs=1e-9)
        admissible += 1

    inadmissible = 0
    while inadmissible < 1000:
        pts = [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        try:
            tri = Triangle(*pts)
        except DegenerateTriangle:
            continue
        if max(tri.angles()) < 120.001:
            continue
        with pytest.raises(WideAngleTriangle):
            fermat_point(tri)
        inadmissible += 1


# --- 7: gradients ------------------------------------------------------------------

def test_criterion_07_gradient_checks(paper_net):
    rng = random.Random(77)
    h = 1e-6
    for _ in range(100):
        net = random_net(rng)
        grad = length_gradient(net)
        for vid, (gx, gy) in grad.items():
            p = net.vertex(vid).pos
            fd_x = (
                total_length(moved(net, vid, Point(p.x + h, p.y)))
                - total_length(moved(net, vid, Point(p.x - h, p.y)))
            ) / (2 * h)
            fd_y = (
                total_length(moved(net, vid, Point(p.x, p.y + h)))
                - total_length(moved(net, vid, Point(p.x, p.y - h)))
            ) / (2 * h)
            scale = max(1.0, math.hypot(fd_x, fd_y))
            assert math.hypot(gx - fd_x, gy - fd_y) / scale < 1e-6

    for gx, gy in length_gradient(paper_net).values():
        assert math.hypot(gx, gy) < 1e-9


# --- 8: relaxation -------------------------------------------------------------------

def test_criterion_08_relax(paper_net):
    tri = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
    start = moved(build_fermat_tripod(tri), "f", Point(2.4, 1.7))
    result = relax(start)
    assert result.converged
    assert distance(result.net.vertex("f").pos, fermat_point(tri)) < 1e-6

    settled = relax(paper_net)
    assert settled.converged
    assert settled.iterations == 0

    # per-component bound 0.014 keeps the displacement under 0.02
    result = relax(perturbed(paper_net, 7, 0.014))
    assert result.converged
    assert result.final_residual < 1e-9
    trace = result.length_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


# --- 9: symmetry ----------------------------------------------------------------------

def test_criterion_09_quarter_turn_symmetry(paper_net):
    assert is_symmetric_under_quarter_turn(paper_net, tol=1e-9)


# --- 10: exhaustive oracle on the small built-in nets -----------------------------------

def test_criterion_10_exhaustive_oracle():
    nets = [
        build_fermat_tripod(Triangle(Point(0, 0), Point(1, 0), Point(0, 1))),
        build_fermat_tripod(Triangle(Point(0, 0), Point(4, 0), Point(1, 3))),
        build_fermat_tripod(Triangle(Point(-2, 0), Point(2, 0), Point(0, 3.5))),
        build_double_tripod(Point(0, 2), Point(0, -2), Point(6, 2), Point(6, -2)),
        build_double_tripod(Point(0, 1), Point(0, -1), Point(4, 1.5), Point(4, -1.5)),
    ]
    for net in nets:
        assert len(net.edges) <= 12
        valid = enumerate_proper_subnets(net)
        flag, cert = is_irreducible(net)
        assert flag == (len(valid) == 0)
        if not flag:
            assert frozenset(cert.witness) in valid
