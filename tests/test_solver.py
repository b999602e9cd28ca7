import math
import random

import pytest

from geonets import (
    Net,
    Point,
    Triangle,
    Vertex,
    VertexKind,
    VertexCollision,
    balance_residual,
    build_fermat_tripod,
    distance,
    fermat_point,
    length_gradient,
    moved,
    relax,
    total_length,
)
from geonets.net import UnknownVertex

from helpers import random_net

B = VertexKind.BALANCED
U = VertexKind.UNBALANCED


def _v(vid, x, y, kind=U):
    return Vertex(vid, Point(x, y), kind)


def test_total_length_single_edge():
    net = Net(vertices=(_v("a", 0, 0), _v("b", 3, 4)), edges=(("a", "b"),))
    assert total_length(net) == pytest.approx(5.0, abs=1e-15)


def test_total_length_equilateral_tripod():
    # three unit legs from the center of an equilateral triangle on the
    # unit circle
    pts = [
        Point(math.cos(math.radians(90 + 120 * k)), math.sin(math.radians(90 + 120 * k)))
        for k in range(3)
    ]
    net = build_fermat_tripod(Triangle(*pts))
    assert total_length(net) == pytest.approx(3.0, abs=1e-9)


def test_total_length_paper_net_golden(paper_net):
    assert total_length(paper_net) == pytest.approx(78.43019555196894, rel=1e-12)


def test_length_gradient_is_negative_residual():
    rng = random.Random(11)
    for _ in range(20):
        net = random_net(rng)
        grad = length_gradient(net)
        for v in net.vertices:
            if v.kind is not B:
                assert v.id not in grad
                continue
            rx, ry = balance_residual(net, v.id)
            gx, gy = grad[v.id]
            assert (gx, gy) == pytest.approx((-rx, -ry), abs=1e-15)


def test_length_gradient_degree_one_magnitude_is_one():
    net = Net(
        vertices=(_v("a", 0, 0, B), _v("b", 2, 1)),
        edges=(("a", "b"),),
    )
    gx, gy = length_gradient(net)["a"]
    assert math.hypot(gx, gy) == pytest.approx(1.0, abs=1e-15)


def test_length_gradient_matches_finite_differences():
    rng = random.Random(12)
    h = 1e-6
    for _ in range(25):
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


def test_moved():
    net = Net(vertices=(_v("a", 0, 0), _v("b", 1, 0)), edges=(("a", "b"),))
    out = moved(net, "a", Point(0.5, 0.5))
    assert out.vertex("a").pos == Point(0.5, 0.5)
    assert net.vertex("a").pos == Point(0, 0)
    with pytest.raises(UnknownVertex):
        moved(net, "zz", Point(0, 0))


def test_relax_validates_parameters(tripod_net):
    for step in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="step must be finite and positive"):
            relax(tripod_net, step=step)
    for tol in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            relax(tripod_net, tol=tol)
    with pytest.raises(ValueError):
        relax(tripod_net, max_iter=-1)
    # max_iter=0 is a pure convergence probe
    probe = relax(moved(tripod_net, "f", Point(2.0, 2.0)), max_iter=0)
    assert probe.iterations == 0
    assert not probe.converged
    assert probe.stop_reason == "max_iter"
    assert relax(tripod_net, max_iter=0).stop_reason == "converged"


def test_relax_stops_at_max_iter(tripod_net):
    result = relax(moved(tripod_net, "f", Point(2.0, 2.0)), max_iter=3)
    assert result.iterations == 3
    assert not result.converged
    assert result.stop_reason == "max_iter"


def test_relax_finds_the_fermat_point(tripod_net):
    tri = Triangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0))
    start = moved(tripod_net, "f", Point(2.5, 1.8))
    result = relax(start)
    assert result.converged
    assert result.final_residual <= 1e-9
    assert distance(result.net.vertex("f").pos, fermat_point(tri)) < 1e-6


def test_relax_at_critical_point_takes_no_steps(paper_net):
    result = relax(paper_net)
    assert result.converged
    assert result.stop_reason == "converged"
    assert result.iterations == 0
    assert result.halvings == 0
    assert len(result.length_trace) == 1
    assert result.net.vertices == paper_net.vertices


def test_relax_does_not_size_buffers_from_max_iter(paper_net):
    result = relax(paper_net, max_iter=10**12)
    assert result.converged
    assert result.iterations == 0


def test_relax_straightens_a_bent_chain():
    net = Net(
        vertices=(_v("a", -2, 0), _v("m", 0.3, 0.9, B), _v("b", 2, 0)),
        edges=(("a", "m"), ("m", "b")),
    )
    result = relax(net)
    assert result.converged
    m = result.net.vertex("m").pos
    assert abs(m.y) < 1e-8
    assert -2 < m.x < 2


def _perturbed(net, seed, amplitude):
    rng = random.Random(seed)
    out = net
    for v in net.vertices:
        if v.kind is B:
            dx, dy = rng.uniform(-amplitude, amplitude), rng.uniform(-amplitude, amplitude)
            out = moved(out, v.id, Point(v.pos.x + dx, v.pos.y + dy))
    return out


def test_relax_keeps_pins_fixed_and_trace_monotone(paper_net):
    start = _perturbed(paper_net, 5, 0.01)
    result = relax(start)
    assert result.converged
    assert result.final_residual < 1e-9
    for v in paper_net.vertices:
        if v.kind is U:
            assert result.net.vertex(v.id).pos == v.pos
    trace = result.length_trace
    assert len(trace) == result.iterations + 1
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= trace[0]


@pytest.mark.parametrize("seed, amplitude", [(3, 0.01), (5, 0.01), (7, 0.014)])
def test_relax_perturbed_paper_net_in_few_iterations(paper_net, seed, amplitude):
    result = relax(_perturbed(paper_net, seed, amplitude))
    assert result.stop_reason == "converged"
    assert result.iterations < 1500
    assert result.length_trace[-1] == pytest.approx(78.430195551969, rel=1e-12)
    trace = result.length_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(total_length(result.net), rel=1e-12)


def test_relax_stalls_when_step_moves_nothing(paper_net):
    start = _perturbed(paper_net, 7, 0.014)
    result = relax(start, step=1e-30, max_iter=2000)
    assert result.stop_reason == "stalled"
    assert result.iterations == 0
    assert result.net == start


def test_relax_raises_on_edge_collapse():
    # two free vertices pulled through each other by a symmetric harness
    net = Net(
        vertices=(
            _v("a", 0.0, 0.0),
            _v("b", 1.0, 0.0),
            _v("m", 0.5, 1e-6, B),
            _v("n", 0.5, -1e-6, B),
            _v("t", 0.5, 2.0),
            _v("u", 0.5, -2.0),
        ),
        edges=(
            ("a", "m"), ("m", "b"), ("a", "n"), ("n", "b"),
            ("m", "t"), ("n", "u"), ("m", "n"),
        ),
    )
    with pytest.raises(VertexCollision):
        relax(net, step=0.5)


def test_relax_raises_when_unjoined_vertices_meet():
    # m and n share both pins but no edge: each relaxes onto the segment a-b
    net = Net(
        vertices=(_v("a", 0.0, -1.0), _v("b", 0.0, 1.0), _v("m", 0.1, 0.0, B), _v("n", -0.1, 0.0, B)),
        edges=(("a", "m"), ("m", "b"), ("a", "n"), ("n", "b")),
    )
    with pytest.raises(VertexCollision, match="vertices m and n collided"):
        relax(net)


def test_relax_result_is_a_new_net(paper_net):
    start = moved(paper_net, "x1", Point(0.81, 0.80))
    result = relax(start)
    assert result.net is not start
    assert {v.id for v in result.net.vertices} == {v.id for v in paper_net.vertices}
    assert result.net.edges == paper_net.edges
