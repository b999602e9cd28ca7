import json
import math

import pytest

from geonets import cli, irreducible
from geonets.docio import load, parse, save
from geonets.irreducible import SearchBudgetExceeded


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build -------------------------------------------------------------------

def test_build_paper16_to_file(tmp_path, capsys):
    out = tmp_path / "net.json"
    code, stdout, stderr = run(capsys, "build", "paper16", "--out", str(out))
    assert code == 0
    net = load(str(out))
    assert len(net.vertices) == 20
    assert len(net.edges) == 44


def test_build_to_stdout(capsys):
    code, stdout, _ = run(capsys, "build", "fermat-tripod")
    assert code == 0
    net = parse(stdout)
    assert len(net.edges) == 3


def test_build_rejects_unknown_fixture(capsys):
    with pytest.raises(SystemExit):
        cli.main(["build", "nonsense"])


# --- verify ------------------------------------------------------------------

def test_verify_passing_net(tmp_path, capsys):
    out = tmp_path / "net.json"
    run(capsys, "build", "paper16", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "verdict: PASS" in stdout


def test_verify_json_is_deterministic(tmp_path, capsys):
    out = tmp_path / "net.json"
    run(capsys, "build", "overlay", "--out", str(out))
    code1, text1, _ = run(capsys, "verify", str(out), "--json")
    code2, text2, _ = run(capsys, "verify", str(out), "--json")
    assert code1 == code2 == 0
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["passed"] is True
    assert doc["max_residual"] < 1e-9
    assert list(doc["residuals"]) == sorted(doc["residuals"])


def test_verify_failing_net_exits_2(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0, "kind": "unbalanced"},
            {"id": "m", "x": 0.4, "y": 0.3, "kind": "balanced"},
            {"id": "b", "x": 1.0, "y": 0.0, "kind": "unbalanced"},
            {"id": "t", "x": 0.4, "y": 1.0, "kind": "unbalanced"},
        ],
        "edges": [["a", "m"], ["m", "b"], ["m", "t"]],
    }
    path = tmp_path / "bent.json"
    path.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "verdict: FAIL" in stdout
    # a loose tolerance cannot rescue a genuinely unbalanced vertex
    code, _, _ = run(capsys, "verify", str(path), "--tol", "1e-3")
    assert code == 2


# --- irreducible -------------------------------------------------------------

def test_irreducible_on_paper_net(tmp_path, capsys):
    out = tmp_path / "net.json"
    run(capsys, "build", "paper16", "--out", str(out))
    code, stdout, _ = run(capsys, "irreducible", str(out))
    assert code == 0
    assert "irreducible" in stdout
    assert "44 seed edges" in stdout


def test_irreducible_on_overlay_net(tmp_path, capsys):
    net_path = tmp_path / "overlay.json"
    wit_path = tmp_path / "witness.json"
    run(capsys, "build", "overlay", "--out", str(net_path))
    code, stdout, _ = run(
        capsys, "irreducible", str(net_path), "--witness-out", str(wit_path)
    )
    assert code == 2
    assert "reducible" in stdout
    witness = load(str(wit_path))
    assert 0 < len(witness.edges) < 65
    # every witness edge is listed in the report
    for u, v in witness.edges:
        assert f"{u} -- {v}" in stdout


def test_irreducible_budget_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    out = tmp_path / "net.json"
    run(capsys, "build", "fermat-tripod", "--out", str(out))

    def explode(net, tol=1e-9):
        raise SearchBudgetExceeded("node budget exhausted")

    monkeypatch.setattr(cli, "find_proper_subnet", explode)
    code, _, stderr = run(capsys, "irreducible", str(out))
    assert code == 3
    assert stderr.startswith("error: SearchBudgetExceeded:")


def test_irreducible_exits_3_when_the_search_runs_out_of_nodes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "net.json"
    run(capsys, "build", "fermat-tripod", "--out", str(out))
    # the tripod's search takes 4 nodes
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", 3)
    code, stdout, stderr = run(capsys, "irreducible", str(out))
    assert code == 3
    assert stdout == ""
    assert stderr == "error: SearchBudgetExceeded: exceeded 3 search nodes\n"


# --- relax -------------------------------------------------------------------

def _perturbed_paper16(tmp_path, capsys):
    src = tmp_path / "exact.json"
    run(capsys, "build", "paper16", "--out", str(src))
    net = load(str(src))
    import random

    from geonets import Point, VertexKind
    from geonets.solver import moved

    rng = random.Random(3)
    for v in net.vertices:
        if v.kind is VertexKind.BALANCED:
            net = moved(
                net, v.id, Point(v.pos.x + rng.uniform(-0.01, 0.01), v.pos.y + rng.uniform(-0.01, 0.01))
            )
    path = tmp_path / "perturbed.json"
    save(net, str(path))
    return path


def test_relax_writes_summary_and_outputs(tmp_path, capsys):
    path = _perturbed_paper16(tmp_path, capsys)
    out = tmp_path / "relaxed.json"
    trace_out = tmp_path / "trace.json"
    code, stdout, _ = run(
        capsys, "relax", str(path), "--out", str(out), "--trace-out", str(trace_out)
    )
    assert code == 0
    assert "converged=True" in stdout
    assert "final_residual=" in stdout
    assert stdout.rstrip().endswith(" stop=converged")
    relaxed = load(str(out))
    assert len(relaxed.vertices) == 20
    trace = json.loads(trace_out.read_text())
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_relax_to_stdout_keeps_summary_on_stderr(tmp_path, capsys):
    path = _perturbed_paper16(tmp_path, capsys)
    code, stdout, stderr = run(capsys, "relax", str(path))
    assert code == 0
    parse(stdout)
    assert "converged=True" in stderr


def test_relax_respects_max_iter(tmp_path, capsys):
    path = _perturbed_paper16(tmp_path, capsys)
    code, stdout, stderr = run(capsys, "relax", str(path), "--max-iter", "3")
    assert code == 0
    assert "converged=False" in stderr
    assert "iterations=3" in stderr
    assert "stop=max_iter" in stderr


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("relax", "--tol", "inf"),
        ("relax", "--tol", "nan"),
        ("relax", "--step", "inf"),
        ("verify", "--tol", "nan"),
        ("irreducible", "--tol", "-1"),
    ],
)
def test_bad_tolerance_or_step_exits_1(tmp_path, capsys, command, option, value):
    path = tmp_path / "tripod.json"
    run(capsys, "build", "fermat-tripod", "--out", str(path))
    code, stdout, stderr = run(capsys, command, str(path), option, value)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ValueError: ")
    assert "must be finite" in stderr
    assert stderr.count("\n") == 1


# --- fermat ------------------------------------------------------------------

def test_fermat_golden_output(capsys):
    code, stdout, _ = run(capsys, "fermat", "0", "0", "1", "0", "0", "1")
    assert code == 0
    x_str, y_str = stdout.split()
    want = (3.0 - math.sqrt(3.0)) / 6.0
    assert abs(float(x_str) - want) < 1e-9
    assert abs(float(y_str) - want) < 1e-9
    # full precision, shortest round-trip form
    assert x_str == f"{float(x_str):.17g}"


def test_fermat_wide_triangle_is_an_error(capsys):
    code, _, stderr = run(capsys, "fermat", "0", "0", "10", "0", "5", "0.1")
    assert code == 1
    assert stderr.startswith("error: WideAngleTriangle: ")
    assert stderr.count("\n") == 1


# --- render ------------------------------------------------------------------

def test_render_writes_svg(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    svg_path = tmp_path / "net.svg"
    run(capsys, "build", "paper16", "--out", str(net_path))
    code, _, _ = run(capsys, "render", str(net_path), "--out", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<line ") == 44
    assert "<text " not in svg
    code, _, _ = run(
        capsys, "render", str(net_path), "--out", str(svg_path), "--labels"
    )
    assert code == 0
    assert svg_path.read_text().count("<text ") == 20


# --- error mapping -----------------------------------------------------------

def test_missing_file_is_a_single_error_line(capsys):
    code, stdout, stderr = run(capsys, "verify", "/nonexistent/net.json")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: FileNotFoundError: ")
    assert stderr.count("\n") == 1


def test_malformed_document_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stderr.startswith("error: ParseError: ")
