"""The three workloads: input generators and the pipeline each net runs.

Every step of a pipeline is an operation: one call of `geonets.cli.main`
in this process, or one build step done by the benchmark through the
library. An operation fails when its exit code is not the expected one or
when its output fails a check in `checks`; a failed operation is kept,
timed to its failure, and listed with a reason.

Exit codes 0 and 2 of `verify` and `irreducible` are answers: passed or
failed, irreducible or reducible. The wrong one of them is a wrong output.
Any other exit code, or an exception, is a plain failure.

Every operation of these workloads succeeds at the commit that added the
benchmark, and the inputs are chosen for that. The near-collinear
misclassification in `geom.intersect` (ROADMAP item 2) reports false
crossings at balanced vertices that two edges pass straight through: on
every net that descent has moved, and at random on generated nets that
`planarize` has minted them in. So no such net is verified or certified
here; the honeycomb has no such vertex.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import re
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import checks

PAPER16_JITTER = 0.014
# The honeycomb: cells of unit edge in COLUMNS x ROWS brick-wall layout,
# turned by a random angle and moved by up to HONEYCOMB_SHIFT.
HONEYCOMB_COLUMNS, HONEYCOMB_ROWS = 20, 16
HONEYCOMB_SHIFT = 3.0
# Splitting an edge at a computed crossing point moves the point off the
# segment by rounding only.
SPLIT_LENGTH_REL_TOL = 1e-9
FIXTURES = ("paper16", "overlay", "fermat-tripod")
# Vertices and edges of each built fixture, and the `irreducible` exit code:
# 0 for an irreducible net, 2 for a reducible one.
FIXTURE_SHAPE = {"paper16": (20, 44), "overlay": (32, 65), "fermat-tripod": (4, 3)}
FIXTURE_IRREDUCIBLE_RC = {"paper16": 0, "overlay": 2, "fermat-tripod": 0}
_MINTED_ID = re.compile(r"x\d+")
_RESIDUAL_LINE = re.compile(r"max residual: (\S+) \(tol (\S+)\)")
_FINDINGS = ("degree violations", "collinear overlays", "unplanarized crossings",
             "unbalanced-unbalanced edges", "connected: no")
ANSWER_COMMANDS = ("verify", "irreducible")
ANSWER_CODES = (0, 2)
# The warnings `irreducible` gives when a balanced-subset list depends on the
# tolerance all say this.
TOL_WARNING_TEXT = "tolerance-sensitive"

Check = Callable[[str, int], Optional[str]]


@dataclass
class Op:
    step: str
    command: str
    rc: Optional[int]
    expected: int
    seconds: float
    reason: Optional[str] = None
    # True when a check of the output's content ran.
    checked: bool = False
    # Measured to scaled seconds, from the speed probes around this operation.
    scale: float = 1.0
    # True when the output is wrong: a wrong answer code, or an output that
    # came with the expected code and failed its check.
    wrong_output: bool = False


@dataclass
class NetRun:
    label: str
    ops: List[Op] = field(default_factory=list)
    # Warnings from `irreducible` that its subset list is tolerance-sensitive.
    tol_warnings: int = 0

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def scaled_seconds(self) -> float:
        return sum(op.seconds * op.scale for op in self.ops)


def geonets_modules() -> SimpleNamespace:
    """The geonets modules the benchmark calls into, by attribute, so that
    the tracer's replacements are the ones called."""
    import geonets._kernels
    import geonets.cli
    import geonets.construct
    import geonets.docio
    import geonets.irreducible
    import geonets.net

    return SimpleNamespace(
        cli=geonets.cli, construct=geonets.construct, docio=geonets.docio,
        net=geonets.net, irreducible=geonets.irreducible, _kernels=geonets._kernels,
    )


def _tol_warnings(caught) -> int:
    return sum(TOL_WARNING_TEXT in str(w.message) for w in caught)


def _verify_reason(stdout: str) -> str:
    """The findings a plain `verify` printed, as one line."""
    found = []
    for line in stdout.splitlines():
        residual = _RESIDUAL_LINE.fullmatch(line)
        if residual and float(residual[1]) > float(residual[2]):
            found.append(line)
        elif line.startswith(_FINDINGS) and not line.endswith(": none"):
            found.append(line)
    return "; ".join(found)


class Runner:
    """Runs the operations of one net in a work directory."""

    def __init__(self, g: SimpleNamespace, workdir: str):
        self.g = g
        self.workdir = workdir
        # A speed.Probe while a timed phase runs.
        self.probe = None

    def _done(self, run: NetRun, op: Op) -> None:
        run.ops.append(op)
        if self.probe is not None:
            self.probe.add(op)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _main(self, argv: List[str]):
        """Call the CLI, capturing its output; (exit code or None, stdout,
        stderr, caught warnings, exception text or None, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                try:
                    rc: Optional[int] = self.g.cli.main(argv)
                except Exception as exc:  # an error the CLI does not map to an exit code
                    rc, error = None, f"uncaught {type(exc).__name__}: {exc}"
                seconds = perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), caught, error, seconds

    def cli(self, run: NetRun, step: str, argv: List[str], expected: int,
            check: Optional[Check] = None) -> None:
        rc, out, err, caught, reason, seconds = self._main(argv)
        run.tol_warnings += _tol_warnings(caught)
        op = Op(step, argv[0], rc, expected, seconds)
        if reason is None and rc != expected:
            lines = err.strip().splitlines()
            reason = lines[0] if lines else _verify_reason(out) or (out.splitlines() or ["(no message)"])[0]
            if op.command in ANSWER_COMMANDS and rc in ANSWER_CODES:
                op.wrong_output = True
                reason = f"wrong answer: {reason}"
        elif reason is None and check is not None:
            reason = check(out, rc)
            op.checked = True
            op.wrong_output = reason is not None
        op.reason = reason
        self._done(run, op)

    def build(self, run: NetRun, step: str, raw: str, out: str, check: Callable[[], Optional[str]]) -> None:
        """The benchmark-side build step: load, planarize and save."""
        g = self.g
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                g.docio.save(g.net.planarize(g.docio.load(raw)), out)
                reason = None
            except Exception as exc:  # counted as a failed build, like a CLI error
                reason = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        run.tol_warnings += _tol_warnings(caught)
        op = Op(step, "planarize+save", 0 if reason is None else 1, 0, seconds, reason)
        if reason is None:
            op.reason = check()
            op.checked = True
            op.wrong_output = op.reason is not None
        self._done(run, op)


def fingerprint(paths: List[str]) -> Dict[str, object]:
    """Count, V, E and crossings minted (ids x<n>) as [min, max], and a
    hash, of net documents."""
    digest = hashlib.sha256()
    shapes = []
    for p in paths:
        with open(p, "rb") as fh:
            data = fh.read()
        digest.update(data)
        doc = checks.Doc(data.decode("utf-8"))
        minted = sum(1 for vid in doc.ids if _MINTED_ID.fullmatch(vid))
        shapes.append((len(doc.ids), len(doc.edge_ids), minted))
    out: Dict[str, object] = {"documents": len(paths)}
    for k, key in enumerate(("V", "E", "minted")):
        out[key] = [min(s[k] for s in shapes), max(s[k] for s in shapes)]
    out["sha256"] = digest.hexdigest()
    return out


class Workload:
    name = ""
    pool_size = 1
    warmup_nets = 1

    def __init__(self, g: SimpleNamespace, workdir: str, seed: int, tiny: bool):
        self.g = g
        self.runner = Runner(g, workdir)
        self.seed = seed
        self.tiny = tiny
        self.inputs: List[str] = []

    def generate(self) -> None:
        """Make and write this workload's input documents from the seed."""
        raise NotImplementedError

    def run_net(self, index: int) -> NetRun:
        raise NotImplementedError

    def net_seeds(self) -> List[int]:
        rng = random.Random(self.seed)
        return [rng.getrandbits(64) for _ in range(self.pool_size)]

    def fingerprint(self) -> Dict[str, object]:
        """Fingerprint of the generated inputs, taken after the warm-up."""
        return {"inputs": fingerprint(self.inputs)}


class RelaxPaper16(Workload):
    """Perturbed copies of the 20-vertex net, relaxed back."""

    name = "relax-paper16"
    pool_size = 16

    def generate(self) -> None:
        g = self.g
        base = g.construct.build_paper_net()
        self.inputs = []
        for i, s in enumerate(self.net_seeds()):
            rng = random.Random(s)
            verts = []
            for v in base.vertices:
                pos = v.pos
                if v.kind is g.net.VertexKind.BALANCED:
                    pos = g.net.Point(pos.x + rng.uniform(-PAPER16_JITTER, PAPER16_JITTER),
                                    pos.y + rng.uniform(-PAPER16_JITTER, PAPER16_JITTER))
                verts.append(g.net.Vertex(v.id, pos, v.kind, v.label))
            path = self.runner.path(f"paper16-{i}.json")
            g.docio.save(g.net.Net(verts, base.edges), path)
            self.inputs.append(path)

    def run_net(self, index: int) -> NetRun:
        r = self.runner
        src = self.inputs[index % len(self.inputs)]
        relaxed, svg = r.path("relaxed.json"), r.path("relaxed.svg")
        run = NetRun(os.path.basename(src))
        # The relaxed net is neither verified nor certified: `verify` reports
        # false crossings at its pass-through vertices x1..x4 (ROADMAP item
        # 2). The benchmark's own length and residual checks stand in.
        r.cli(run, "verify-input", ["verify", src], 2)
        r.cli(run, "relax", ["relax", src, "--out", relaxed], 0,
              lambda out, rc: checks.check_relaxed(src, relaxed, paper16=True))
        r.cli(run, "render", ["render", relaxed, "--out", svg], 0,
              lambda out, rc: checks.check_svg(svg))
        return run


def _honeycomb_xy(i: int, j: int):
    """Position of vertex (i, j) of a brick wall drawn as a honeycomb of
    unit edges: row j zigzags, and (i, j) with i + j even joins (i, j + 1)."""
    return i * math.sqrt(3.0) / 2.0, 1.5 * j + (0.25 if (i + j) % 2 == 0 else -0.25)


class Honeycomb(Workload):
    """A honeycomb of 120-degree balanced junctions pinned at its rim,
    turned and moved by the seed. It has no crossings and no vertex that
    edges pass straight through."""

    name = "honeycomb-20x16"
    pool_size = 12

    @property
    def shape(self):
        return (6, 5) if self.tiny else (HONEYCOMB_COLUMNS, HONEYCOMB_ROWS)

    def generate(self) -> None:
        g = self.g
        cols, rows = self.shape
        edges = [((i, j), (i + 1, j)) for j in range(rows) for i in range(cols - 1)]
        edges += [((i, j), (i, j + 1)) for j in range(rows - 1) for i in range(cols) if (i + j) % 2 == 0]
        degree = Counter(v for e in edges for v in e)
        pins = {v for v, d in degree.items() if d < 3}
        # An edge between two pins would be an unbalanced-unbalanced edge.
        edges = [(a, b) for a, b in edges if not (a in pins and b in pins)]
        cells = sorted({v for e in edges for v in e})
        self.inputs = []
        for k, s in enumerate(self.net_seeds()):
            rng = random.Random(s)
            turn = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = rng.uniform(-HONEYCOMB_SHIFT, HONEYCOMB_SHIFT), rng.uniform(-HONEYCOMB_SHIFT, HONEYCOMB_SHIFT)
            cos, sin = math.cos(turn), math.sin(turn)
            verts = []
            for i, j in cells:
                x, y = _honeycomb_xy(i, j)
                kind = g.net.VertexKind.UNBALANCED if (i, j) in pins else g.net.VertexKind.BALANCED
                verts.append(g.net.Vertex(f"h{i}_{j}", g.net.Point(dx + cos * x - sin * y, dy + sin * x + cos * y), kind))
            path = self.runner.path(f"honeycomb-{k}.json")
            g.docio.save(g.net.Net(verts, [(f"h{a[0]}_{a[1]}", f"h{b[0]}_{b[1]}") for a, b in edges]), path)
            self.inputs.append(path)

    def _built_path(self, index: int) -> str:
        return self.runner.path(f"planar-{index % len(self.inputs)}.json")

    def run_net(self, index: int) -> NetRun:
        r = self.runner
        raw = self.inputs[index % len(self.inputs)]
        net, relaxed, svg = self._built_path(index), r.path("relaxed.json"), r.path("relaxed.svg")
        run = NetRun(os.path.basename(raw))
        r.build(run, "build", raw, net, lambda: _check_planarized(raw, net))
        r.cli(run, "verify", ["verify", net], 0)
        r.cli(run, "relax", ["relax", net, "--out", relaxed], 0,
              lambda out, rc: checks.check_relaxed(net, relaxed, paper16=False))
        r.cli(run, "verify-relaxed", ["verify", relaxed], 0)
        r.cli(run, "irreducible", ["irreducible", relaxed], 0,
              lambda out, rc: _check_irreducible(out, relaxed))
        r.cli(run, "render", ["render", relaxed, "--out", svg], 0,
              lambda out, rc: checks.check_svg(svg))
        return run

    def fingerprint(self) -> Dict[str, object]:
        return {"inputs": fingerprint(self.inputs), "built": fingerprint([self._built_path(0)])}


def _check_irreducible(out: str, net: str) -> Optional[str]:
    if not out.startswith("irreducible:"):
        return f"unexpected verdict line {out[:60]!r}"
    return checks.check_rigid_junctions(net)


def _check_planarized(raw: str, built: str) -> Optional[str]:
    """The built net keeps every pin and adds only minted crossings."""
    before, after = checks.Doc.read(raw), checks.Doc.read(built)
    pins_before = {vid for vid, b in zip(before.ids, before.balanced) if not b}
    pins_after = {vid for vid, b in zip(after.ids, after.balanced) if not b}
    if pins_before != pins_after:
        return "planarize changed the pins"
    added = set(after.ids) - set(before.ids)
    if any(not _MINTED_ID.fullmatch(vid) for vid in added) or not set(before.ids) <= set(after.ids):
        return "planarize output has unexpected vertex ids"
    if abs(after.length() - before.length()) > SPLIT_LENGTH_REL_TOL * before.length():
        return f"planarize changed the length: {before.length()!r} -> {after.length()!r}"
    return None


class FixturesCli(Workload):
    """The built-in fixtures through the whole CLI, in a seeded order."""

    name = "fixtures-cli"
    pool_size = 8  # passes; each pass runs all three fixtures
    warmup_nets = len(FIXTURES)

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.order: List[str] = []
        for _ in range(self.pool_size):
            batch = list(FIXTURES)
            rng.shuffle(batch)
            self.order.extend(batch)
        self.inputs = []

    def run_net(self, index: int) -> NetRun:
        r = self.runner
        fixture = self.order[index % len(self.order)]
        net, relaxed = r.path(f"{fixture}.json"), r.path("relaxed.json")
        witness, svg = r.path("witness.json"), r.path("relaxed.svg")
        expected_irr = FIXTURE_IRREDUCIBLE_RC[fixture]
        run = NetRun(fixture)
        r.cli(run, "build", ["build", fixture, "--out", net], 0,
              lambda out, rc: checks.check_doc(net, *FIXTURE_SHAPE[fixture]))
        r.cli(run, "verify", ["verify", net, "--json"], 0, checks.check_verify_json)
        r.cli(run, "relax", ["relax", net, "--out", relaxed], 0,
              lambda out, rc: checks.check_relaxed(net, relaxed, paper16=fixture == "paper16"))
        r.cli(run, "verify-relaxed", ["verify", relaxed], 0)
        r.cli(run, "irreducible", ["irreducible", relaxed, "--witness-out", witness], expected_irr,
              (lambda out, rc: checks.check_witness(relaxed, witness)) if expected_irr == 2 else None)
        r.cli(run, "render", ["render", relaxed, "--out", svg, "--labels"], 0,
              lambda out, rc: checks.check_svg(svg))
        return run

    def fingerprint(self) -> Dict[str, object]:
        return {"order_sha256": hashlib.sha256(" ".join(self.order).encode()).hexdigest(),
                "built": fingerprint([self.runner.path(f"{f}.json") for f in FIXTURES])}


WORKLOADS = {w.name: w for w in (RelaxPaper16, Honeycomb, FixturesCli)}
