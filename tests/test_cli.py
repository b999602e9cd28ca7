import hashlib
import json
import math
import re

import pytest

from geonets import Net, cli, irreducible, relax
from geonets.docio import load, parse, save
from geonets.irreducible import SearchBudgetExceeded

from geonets import verify
from helpers import chord_arrangement, honeycomb, least_rejected_norm, perturbed, run_python, vertex


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "nonsense"], "argument fixture: invalid choice: 'nonsense'"),
        (["verify", "x.json", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["verify"], "the following arguments are required: file"),
    ],
    ids=["unknown-fixture", "bad-float", "unknown-command", "missing-file"],
)
def test_usage_errors_exit_1_with_one_line(capsys, argv, message):
    # exit 2 would read as a negative verdict
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: UsageError: {message}")
    assert stderr.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert "usage: geonets" in capsys.readouterr().out


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


def test_verify_json_lists_an_unplanarized_crossing(tmp_path, capsys):
    path = tmp_path / "x.json"
    pins = [vertex(f"p{i}", x, y) for i, (x, y) in enumerate([(-1, -1), (1, -1), (1, 1), (-1, 1)], 1)]
    save(Net(pins, [("p1", "p3"), ("p2", "p4")]), str(path))
    code, stdout, _ = run(capsys, "verify", str(path), "--json")
    assert code == 2
    assert json.loads(stdout)["unplanarized_crossings"] == [[["p1", "p3"], ["p2", "p4"], [0.0, 0.0]]]


# --- irreducible -------------------------------------------------------------

def test_irreducible_on_paper_net(tmp_path, capsys):
    out = tmp_path / "net.json"
    run(capsys, "build", "paper16", "--out", str(out))
    code, stdout, _ = run(capsys, "irreducible", str(out))
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == (
        "irreducible: no proper subnet; 1 edge class (43 ties) refuted in 0 propagation steps"
    )
    low, high = _margin(lines[-1])
    assert 0.0 < low <= 1e-14
    assert low == irreducible.find_proper_subnet(load(str(out))).tol_margin[0]
    # the least rejected norm, 0.0314 at the crossings x1-x4, from a full
    # enumeration
    assert high == pytest.approx(least_rejected_norm(load(str(out))), rel=0.0, abs=1e-15)
    assert 0.031 < high < 0.032


def _margin(line):
    m = re.fullmatch(
        r"tol margin: balanced edge subsets have residual <= (\S+), the others >= (\S+)", line
    )
    assert m, line
    return float(m[1]), float(m[2])


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
    # every witness edge is listed in the report, then the margin
    lines = stdout.splitlines()
    assert lines[1:-1] == [f"  {u} -- {v}" for u, v in witness.edges]
    high = _margin(lines[-1])[1]
    assert high == pytest.approx(least_rejected_norm(load(str(net_path))), rel=0.0, abs=1e-15)


def test_irreducible_margin_at_tol_0(tmp_path, capsys):
    # the crossing of two diagonals balances exactly, and a statement
    # about tol = 0 must still be true: only exact zero sums are accepted,
    # and the least rejected subset is one leg or three
    from geonets import Net, Point, Vertex, VertexKind, planarize

    pins = [Vertex(f"p{i}", Point(x, y), VertexKind.UNBALANCED)
            for i, (x, y) in enumerate([(-1, -1), (1, -1), (1, 1), (-1, 1)])]
    path = tmp_path / "x.json"
    save(planarize(Net(pins, [("p0", "p2"), ("p1", "p3")])), str(path))
    code, stdout, _ = run(capsys, "irreducible", str(path), "--tol", "0")
    assert code == 2
    low, high = _margin(stdout.splitlines()[-1])
    assert low == 0.0
    assert high == pytest.approx(least_rejected_norm(load(str(path)), 0.0), rel=0.0, abs=1e-15)
    assert high == pytest.approx(1.0, abs=1e-15)


def test_irreducible_margin_without_a_balanced_vertex_is_inf(tmp_path, capsys):
    # a lone pin has no subset table, so no subset is rejected
    from geonets import Net, Point, Vertex, VertexKind

    path = tmp_path / "pin.json"
    save(Net([Vertex("p", Point(0.0, 0.0), VertexKind.UNBALANCED)], []), str(path))
    code, stdout, _ = run(capsys, "irreducible", str(path))
    assert code == 0
    assert stdout.splitlines()[-1] == (
        "tol margin: balanced edge subsets have residual <= 0.0, the others >= inf"
    )


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
    # the tripod's three legs are one edge class, so its search takes 1 node
    monkeypatch.setattr(irreducible, "_NODE_BUDGET", 0)
    code, stdout, stderr = run(capsys, "irreducible", str(out))
    assert code == 3
    assert stdout == ""
    assert stderr == "error: SearchBudgetExceeded: exceeded 0 search nodes\n"


# sha256 over (name, exit code, stdout, --witness-out bytes or None) of
# `geonets irreducible` on the three fixtures, two honeycombs and the chord
# arrangements that verify
IRREDUCIBLE_STDOUT_SHA256 = "d646a917f4762efaccae107811f26379faf0ce8f4750319afcb1ea539204dc34"


def test_irreducible_output_is_pinned(tmp_path, capsys):
    nets = [(f"honeycomb({c}, {r})", honeycomb(c, r)) for c, r in ((6, 5), (20, 16))]
    nets += [(f"chords({k}, {s})", chord_arrangement(k, s)[0]) for k in range(4, 13) for s in range(3)]
    paths = []
    for fixture in ("paper16", "overlay", "fermat-tripod"):
        paths.append((fixture, tmp_path / f"{fixture}.json"))
        run(capsys, "build", fixture, "--out", str(paths[-1][1]))
    for name, net in nets:
        if verify(net).passed:
            paths.append((name, tmp_path / f"{len(paths)}.json"))
            save(net, str(paths[-1][1]))
    digest = hashlib.sha256()
    for name, path in paths:
        witness = tmp_path / "witness.json"
        code, stdout, _ = run(capsys, "irreducible", str(path), "--witness-out", str(witness))
        body = witness.read_bytes() if witness.exists() else None
        if body is not None:
            witness.unlink()
        digest.update(repr((name, code, stdout, body)).encode())
    assert len(paths) == 10
    assert digest.hexdigest() == IRREDUCIBLE_STDOUT_SHA256


def test_irreducible_counts_without_trace_steps_or_edge_names(tmp_path, capsys, monkeypatch):
    # the search keeps its trace as rows and the command counts those rows,
    # so neither a TraceStep nor the net's edges view is built
    from geonets import Net

    path = tmp_path / "honeycomb.json"
    save(honeycomb(20, 16), str(path))
    built = {"steps": 0, "edges": 0}

    class Counted(irreducible.TraceStep):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["steps"] += 1

    real = Net.__dict__["edges"].func

    def edges(net):
        built["edges"] += 1
        return real(net)

    monkeypatch.setattr(irreducible, "TraceStep", Counted)
    monkeypatch.setattr(Net, "edges", property(edges))
    code, stdout, _ = run(capsys, "irreducible", str(path))
    assert code == 0
    assert stdout.startswith("irreducible: no proper subnet; 1 edge class (436 ties) refuted in 0 propagation steps\n")
    assert built == {"steps": 0, "edges": 0}
    assert len(load(str(path)).edges) == 437
    assert built == {"steps": 0, "edges": 1}


# --- relax -------------------------------------------------------------------

def _perturbed_paper16(tmp_path, capsys):
    src = tmp_path / "exact.json"
    run(capsys, "build", "paper16", "--out", str(src))
    path = tmp_path / "perturbed.json"
    save(perturbed(load(str(src)), 3, 0.01), str(path))
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
    # one line of JSON, byte for byte; the digest pins every float's spelling
    text = trace_out.read_bytes()
    assert text == (json.dumps(trace) + "\n").encode()
    assert hashlib.sha256(text).hexdigest() == (
        "bd0af34f95f4c8303d48ebb5904e3af04fd2fde0eb1c73f268691a4e73b819dc"
    )


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
    result = relax(load(str(path)), max_iter=3)
    assert result.refreshes > 0
    assert f"iterations=3 halvings={result.halvings} refreshes={result.refreshes} final_residual=" in stderr


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


# --- one parser per process -------------------------------------------------

def test_verify_json_then_plain_verify_prints_the_text_report(tmp_path, capsys):
    path = tmp_path / "net.json"
    run(capsys, "build", "paper16", "--out", str(path))
    code, stdout, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    assert json.loads(stdout)["passed"] is True
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert stdout.startswith("vertices: 20 ")
    assert stdout.endswith("verdict: PASS\n")


def test_relax_without_trace_out_after_one_with_it_writes_no_trace(tmp_path, capsys):
    path = _perturbed_paper16(tmp_path, capsys)
    trace, first, second = tmp_path / "trace.json", tmp_path / "first.json", tmp_path / "second.json"
    code, _, _ = run(capsys, "relax", str(path), "--trace-out", str(trace), "--out", str(first))
    assert code == 0
    trace.unlink()
    code, _, _ = run(capsys, "relax", str(path), "--out", str(second))
    assert code == 0
    assert not trace.exists()
    assert first.read_text() == second.read_text()


@pytest.mark.parametrize(
    "first, first_code",
    [(["verify"], 1), (["build", "nonsense"], 1), (["--help"], 0), (["relax", "--help"], 0)],
    ids=["usage-error", "bad-choice", "help", "command-help"],
)
def test_a_valid_call_after_a_usage_error_or_help_exits_0(tmp_path, capsys, first, first_code):
    try:
        code = cli.main(first)
    except SystemExit as stop:  # --help exits from inside argparse
        code = stop.code
    assert code == first_code
    capsys.readouterr()
    path = tmp_path / "tripod.json"
    code, stdout, stderr = run(capsys, "build", "fermat-tripod", "--out", str(path))
    assert (code, stdout, stderr) == (0, "", "")
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 0
    assert stderr == ""
    assert "verdict: PASS" in stdout


def test_module_attributes_replaced_after_import_are_the_ones_called(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tripod.json"
    run(capsys, "build", "fermat-tripod", "--out", str(path))
    loaded = []

    def spy(file):
        loaded.append(file)
        return load(file)

    monkeypatch.setattr(cli, "load", spy)
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert loaded == [str(path)]


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


@pytest.mark.parametrize(
    "text",
    [
        '{"format_version": 1, "vertices": [{"id": "a", "x": 1' + "0" * 400
        + ', "y": 0, "kind": "unbalanced"}], "edges": []}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["float-overflow", "deep-nesting"],
)
def test_document_beyond_float_or_nesting_limits_is_one_parse_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, stdout, stderr = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ParseError: ")
    assert stderr.count("\n") == 1


def test_module_entry_point_exits_with_the_command_codes(tmp_path):
    # python -m geonets.cli, as the README runs it: the codes reach the
    # process exit status through sys.exit(main())
    from geonets import Net, Point, Vertex, VertexKind

    def cli_process(*argv):
        return run_python(["-m", "geonets.cli", *argv])

    assert cli_process("--help").returncode == 0
    built = cli_process("build", "fermat-tripod")
    assert built.returncode == 0, built.stderr
    assert len(parse(built.stdout).edges) == 3
    pins = tmp_path / "pins.json"
    save(Net([Vertex("a", Point(0.0, 0.0), VertexKind.UNBALANCED),
              Vertex("b", Point(1.0, 0.0), VertexKind.UNBALANCED)], [("a", "b")]), str(pins))
    failed = cli_process("verify", str(pins))
    assert failed.returncode == 2, failed.stderr
    assert "verdict: FAIL" in failed.stdout
    wrong = cli_process("frobnicate")
    assert wrong.returncode == 1
    assert wrong.stdout == ""
    assert wrong.stderr.startswith("error: UsageError: ")
    assert wrong.stderr.count("\n") == 1


def test_cli_commands_import_neither_scipy_nor_numpy_ma(tmp_path):
    # test_solver.test_relax_imports_no_scipy holds relax, verify and the
    # search to this rule; the commands add parse and save, planarize (in
    # build), edge_subnet (irreducible --witness-out) and render_svg
    script = (
        "import sys\n"
        "from geonets.cli import main\n"
        "d = sys.argv[1] + '/'\n"
        "runs = [\n"
        "    (['build', 'overlay', '--out', d + 'overlay.json'], 0),\n"
        "    (['build', 'paper16', '--out', d + 'paper16.json'], 0),\n"
        "    (['verify', d + 'overlay.json'], 0),\n"
        "    (['verify', '--json', d + 'paper16.json'], 0),\n"
        "    (['relax', d + 'paper16.json', '--out', d + 'relaxed.json'], 0),\n"
        "    (['irreducible', d + 'overlay.json', '--witness-out', d + 'witness.json'], 2),\n"
        "    (['render', d + 'witness.json', '--out', d + 'witness.svg', '--labels'], 0),\n"
        "]\n"
        "for argv, code in runs:\n"
        "    assert main(argv) == code, argv\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "ma = sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
        "assert not ma, ma\n"
    )
    done = run_python(["-c", script, str(tmp_path)])
    assert done.returncode == 0, done.stderr
    assert {p.name for p in tmp_path.iterdir()} == {
        "overlay.json", "paper16.json", "relaxed.json", "witness.json", "witness.svg"}
