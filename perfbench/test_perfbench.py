"""The benchmark's own test: every workload at a tiny size, untraced and
traced, checking that each metric is reported by name with its unit and
that the output checks ran. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_benchmark_reports():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(tracing.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1

    expected = dict(tracing.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) > 2}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name

    record_line = next(line for line in lines if line.startswith("record: "))
    record = json.loads((run.ROOT / record_line.split(" ", 1)[1]).read_text())
    ops = [op for net in record["nets"] for op in net["ops"]]
    assert len(ops) == result["attempted"]
    assert sum(op[5] is not None for op in ops) == result["failed"] == 0
    assert not any(op[8] for op in ops)
    # Every net's relax and render output went through a content check.
    for command in ("relax", "render"):
        checked = [op[6] for op in ops if op[1] == command]
        assert checked and all(checked), command
    assert record["environment"]["nproc"] >= 1
    assert record["fingerprint"]


def test_without_sources_it_fails_without_a_result():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fixtures-cli", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


# The built fermat-tripod fixture: one balanced vertex joined to three pins.
TRIPOD_DOC = {
    "format_version": 1,
    "vertices": [
        {"id": "f", "x": 0.21132486540518716, "y": 0.21132486540518716, "kind": "balanced"},
        {"id": "t1", "x": 0.0, "y": 0.0, "kind": "unbalanced"},
        {"id": "t2", "x": 1.0, "y": 0.0, "kind": "unbalanced"},
        {"id": "t3", "x": 0.0, "y": 1.0, "kind": "unbalanced"},
    ],
    "edges": [["f", "t1"], ["f", "t2"], ["f", "t3"]],
}


def _fake_runner(tmp_path, rc: int, stderr: str = ""):
    """A Runner whose CLI exits `rc` on every command."""
    def main(argv):
        print("verdict: FAIL")
        if stderr:
            print(stderr, file=sys.stderr)
        return rc

    (tmp_path / "net.json").write_text(json.dumps(TRIPOD_DOC))
    runner = workloads.Runner(SimpleNamespace(cli=SimpleNamespace(main=main)), str(tmp_path))
    return runner, str(tmp_path / "net.json")


@pytest.mark.parametrize("step, command, rc, expected", [
    ("irreducible", "irreducible", 0, 2),
    ("irreducible", "irreducible", 2, 0),
    ("verify", "verify", 2, 0),
    ("verify-input", "verify", 0, 2),
])
def test_an_unexpected_answer_code_is_a_wrong_output(tmp_path, step, command, rc, expected):
    runner, net = _fake_runner(tmp_path, rc)
    net_run = workloads.NetRun("net")
    runner.cli(net_run, step, [command, net], expected)
    (op,) = net_run.ops
    assert op.wrong_output
    assert op.reason.startswith("wrong answer")


def test_a_crash_is_a_plain_failure(tmp_path):
    runner, net = _fake_runner(tmp_path, 1, stderr="error: ValueError: boom")
    net_run = workloads.NetRun("net")
    runner.cli(net_run, "irreducible", ["irreducible", net], 0)
    (op,) = net_run.ops
    assert not op.wrong_output
    assert op.reason == "error: ValueError: boom"


def test_only_tolerance_warnings_are_counted(tmp_path):
    def main(argv):
        warnings.warn("vertex f: the subset list is tolerance-sensitive")
        warnings.warn("some other warning", RuntimeWarning)
        return 0

    runner = workloads.Runner(SimpleNamespace(cli=SimpleNamespace(main=main)), str(tmp_path))
    net_run = workloads.NetRun("net")
    runner.cli(net_run, "render", ["render", "net.json"], 0)
    assert net_run.tol_warnings == 1


def test_build_step_counts_tolerance_warnings(tmp_path):
    def planarize(net):
        warnings.warn("vertex f: the subset list is tolerance-sensitive")
        return net

    g = SimpleNamespace(net=SimpleNamespace(planarize=planarize),
                        docio=SimpleNamespace(load=lambda path: path, save=lambda net, path: None))
    runner = workloads.Runner(g, str(tmp_path))
    net_run = workloads.NetRun("net")
    runner.build(net_run, "build", "raw.json", "built.json", lambda: None)
    assert net_run.tol_warnings == 1 and net_run.ops[0].reason is None


def _doc(vertices, edges):
    return {"format_version": 1, "edges": edges,
            "vertices": [{"id": vid, "x": x, "y": y, "kind": kind} for vid, x, y, kind in vertices]}


# A vertex that two straight edges pass through: the pair (w, e) cancels.
CROSS_DOC = _doc([("c", 0.0, 0.0, "balanced"), ("w", -1.0, 0.0, "unbalanced"), ("e", 1.0, 0.0, "unbalanced"),
                  ("s", 0.0, -1.0, "unbalanced"), ("n", 0.0, 1.0, "unbalanced")],
                 [["c", "w"], ["c", "e"], ["c", "s"], ["c", "n"]])
# Two tripods that share only pins: each is a balanced subnet on its own.
TWO_TRIPODS_DOC = _doc(
    [("f", 0.21132486540518716, 0.21132486540518716, "balanced"), ("t1", 0.0, 0.0, "unbalanced"),
     ("t2", 1.0, 0.0, "unbalanced"), ("t3", 0.0, 1.0, "unbalanced"),
     ("g", 0.7886751345948129, 0.7886751345948129, "balanced"), ("t4", 1.0, 1.0, "unbalanced")],
    [["f", "t1"], ["f", "t2"], ["f", "t3"], ["g", "t2"], ["g", "t3"], ["g", "t4"]])


@pytest.mark.parametrize("doc, confirmed", [(TRIPOD_DOC, True), (CROSS_DOC, False), (TWO_TRIPODS_DOC, False)])
def test_rigid_junctions_confirm_only_single_group_nets(tmp_path, doc, confirmed):
    import checks

    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert (checks.check_rigid_junctions(str(path)) is None) is confirmed
