"""Command line interface.

Subcommands: build, verify, irreducible, relax, fermat, render. All
failures print a single machine-parsable line `error: <Type>: <message>`
to stderr. Exit codes: 0 success (verify: passed; irreducible:
irreducible), 2 negative verdict (verify: failed; irreducible: reducible),
3 search budget exhausted, 1 any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .construct import (
    DegenerateTriangle,
    Triangle,
    WideAngleTriangle,
    build_fermat_tripod,
    build_overlay_net,
    build_paper_net,
    fermat_point,
)
from .docio import ParseError, load, save, serialize
from .geom import Point
from .irreducible import (
    Irreducible,
    Reducible,
    SearchBudgetExceeded,
    find_proper_subnet,
)
from .net import DEFAULT_TOL, InvariantViolation, Net, VertexKind, edge_subnet, verify
from .render import render_svg
from .solver import VertexCollision, relax


def _cmd_build(args: argparse.Namespace) -> int:
    if args.fixture == "paper16":
        net = build_paper_net()
    elif args.fixture == "overlay":
        net = build_overlay_net()
    else:
        net = build_fermat_tripod(
            Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0))
        )
    if args.out:
        save(net, args.out)
    else:
        sys.stdout.write(serialize(net))
    return 0


def _report_json(report) -> str:
    doc = {
        "passed": report.passed,
        "connected": report.connected,
        "max_residual": report.max_residual,
        "residuals": {k: report.residuals[k] for k in sorted(report.residuals)},
        "degree_violations": [[vid, deg] for vid, deg in report.degree_violations],
        "overlay_findings": [
            [list(e1), list(e2)] for e1, e2, _ in report.overlay_findings
        ],
        "unplanarized_crossings": [
            [list(e1), list(e2), [pt.x, pt.y]]
            for e1, e2, pt in report.unplanarized_crossings
        ],
        "unbalanced_to_unbalanced_edges": [
            list(e) for e in report.unbalanced_to_unbalanced_edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _cmd_verify(args: argparse.Namespace) -> int:
    net = load(args.file)
    report = verify(net, tol=args.tol)
    if args.json:
        print(_report_json(report))
    else:
        balanced = sum(1 for v in net.vertices if v.kind is VertexKind.BALANCED)
        print(
            f"vertices: {len(net.vertices)} "
            f"({balanced} balanced, {len(net.vertices) - balanced} unbalanced)"
        )
        print(f"edges: {len(net.edges)}")
        print(f"max residual: {report.max_residual:.3e} (tol {args.tol:g})")
        print(f"connected: {'yes' if report.connected else 'no'}")

        def _listing(name: str, items: Sequence) -> None:
            print(f"{name}: {len(items) if items else 'none'}")

        _listing("degree violations", report.degree_violations)
        _listing("collinear overlays", report.overlay_findings)
        _listing("unplanarized crossings", report.unplanarized_crossings)
        _listing("unbalanced-unbalanced edges", report.unbalanced_to_unbalanced_edges)
        print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def _cmd_irreducible(args: argparse.Namespace) -> int:
    net = load(args.file)
    try:
        cert = find_proper_subnet(net, tol=args.tol)
    except SearchBudgetExceeded as exc:
        print(f"error: SearchBudgetExceeded: {exc}", file=sys.stderr)
        return 3
    if isinstance(cert, Irreducible):
        seeds = {step.seed for step in cert.trace}
        print(
            f"irreducible: no proper subnet; {len(seeds)} seed edges refuted "
            f"in {len(cert.trace)} propagation steps"
        )
        return 0
    witness = sorted(cert.witness)
    print(f"reducible: minimal witness with {len(witness)} edges")
    for u, v in witness:
        print(f"  {u} -- {v}")
    if args.witness_out:
        save(edge_subnet(net, cert.witness), args.witness_out)
    return 2


def _cmd_relax(args: argparse.Namespace) -> int:
    net = load(args.file)
    result = relax(net, step=args.step, tol=args.tol, max_iter=args.max_iter)
    summary = (
        f"converged={result.converged} iterations={result.iterations} "
        f"final_residual={result.final_residual:.3e} "
        f"length={result.length_trace[-1]:.12g} stop={result.stop_reason}"
    )
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(list(result.length_trace), fh)
            fh.write("\n")
    if args.out:
        save(result.net, args.out)
        print(summary)
    else:
        sys.stdout.write(serialize(result.net))
        print(summary, file=sys.stderr)
    return 0


def _cmd_fermat(args: argparse.Namespace) -> int:
    x1, y1, x2, y2, x3, y3 = args.coords
    p = fermat_point(Triangle(Point(x1, y1), Point(x2, y2), Point(x3, y3)))
    print(f"{p.x:.17g} {p.y:.17g}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    net = load(args.file)
    svg = render_svg(net, show_labels=args.labels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geonets",
        description="Build, verify, relax, and irreducibility-test planar geodesic nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a built-in fixture net")
    p_build.add_argument("fixture", choices=["paper16", "overlay", "fermat-tripod"])
    p_build.add_argument("--out", help="output file (default: stdout)")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="check net validity")
    p_verify.add_argument("file")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_irr = sub.add_parser("irreducible", help="search for a proper subnet")
    p_irr.add_argument("file")
    p_irr.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_irr.add_argument("--witness-out", dest="witness_out")
    p_irr.set_defaults(func=_cmd_irreducible)

    p_relax = sub.add_parser("relax", help="gradient-descent relaxation")
    p_relax.add_argument("file")
    p_relax.add_argument("--step", type=float, default=0.1)
    p_relax.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_relax.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
    p_relax.add_argument("--out", help="write relaxed net here instead of stdout")
    p_relax.add_argument("--trace-out", dest="trace_out", help="write length trace JSON")
    p_relax.set_defaults(func=_cmd_relax)

    p_fermat = sub.add_parser("fermat", help="Fermat point of a triangle")
    p_fermat.add_argument("coords", type=float, nargs=6, metavar="C")
    p_fermat.set_defaults(func=_cmd_fermat)

    p_render = sub.add_parser("render", help="render a net to SVG")
    p_render.add_argument("file")
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--labels", action="store_true")
    p_render.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        InvariantViolation,
        DegenerateTriangle,
        WideAngleTriangle,
        VertexCollision,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
