"""Spans and counters for the traced run.

The tracer replaces the module attributes through which each geonets
layer is called with timing wrappers, and puts the originals back when it
is uninstalled. Nothing under src/ is edited. A span is a list
[name, start, end, parent, net, intersect_calls_at_start,
intersect_calls_at_end]; `parent` is the index of the enclosing span or -1
and `net` is the index of the net being processed (-1 during input
generation). Segment-pair tests in `geom.intersect` are only counted, not
spanned: a span for each of hundreds of thousands of pairs would cost more
than the pass it measures.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

# (name, unit) of every per-layer metric, in report order. Times and counts
# are per net: totals over the traced part of the run divided by the nets
# it processed.
PER_LAYER: List[Tuple[str, str]] = [
    ("construct.build_s", "s/net"),
    ("construct.fermat_point.calls", "count/net"),
    ("net.init_s", "s/net"),
    ("net.init.calls", "count/net"),
    ("net.init.vertex_pairs", "count/net"),
    ("net.planarize_s", "s/net"),
    ("net.planarize.minted", "count/net"),
    ("net.planarize.intersect_calls", "count/net"),
    ("net.verify_s", "s/net"),
    ("net.verify.calls", "count/net"),
    ("net.intersect.calls", "count/net"),
    ("net.verify.unplanarized", "count/net"),
    ("irreducible.find_proper_subnet_s", "s/net"),
    ("irreducible.search.self_s", "s/net"),
    ("irreducible.trace_steps", "count/net"),
    ("irreducible.witness_edges", "count/net"),
    ("irreducible.tol_warnings", "count/net"),
    ("kernels.balanced_masks_s", "s/net"),
    ("kernels.balanced_masks.calls", "count/net"),
    ("kernels.balanced_masks.enumerated", "count/net"),
    ("kernels.balanced_masks.accepted", "count/net"),
    ("kernels.balanced_masks.useful_ratio", "ratio"),
    ("solver.relax_s", "s/net"),
    ("solver.relax.self_s", "s/net"),
    ("solver.relax.iterations", "count/net"),
    ("kernels.descend_s", "s/net"),
    ("kernels.descend.us_per_iter", "us"),
    ("docio.load_s", "s/net"),
    ("docio.save_s", "s/net"),
    ("docio.bytes", "B/net"),
    ("render.svg_s", "s/net"),
    ("render.bytes", "B/net"),
    ("cli.build_s", "s/net"),
    ("cli.verify_s", "s/net"),
    ("cli.relax_s", "s/net"),
    ("cli.irreducible_s", "s/net"),
    ("cli.render_s", "s/net"),
    ("cli.self_s", "s/net"),
    ("trace.overhead_frac", "ratio"),
]

CLI_COMMANDS = ("build", "verify", "relax", "irreducible", "render")
CONSTRUCT_SPANS = ("construct.build", "construct.fermat_point")

Name = Union[str, Callable[..., str]]
OnResult = Callable[[Counter, tuple, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.net = -1
        self._stack: List[int] = []
        self._intersects = [0]
        self._undo: List[Tuple[object, str, object]] = []

    def _span(self, name: Name, fn: Callable, on_result: Optional[OnResult] = None) -> Callable:
        spans, stack, counts, ix = self.spans, self._stack, self.counts, self._intersects
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.net, ix[0], 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[6] = ix[0]
                stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        ix = self._intersects

        @functools.wraps(fn)
        def wrapper(*args):
            ix[0] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, g) -> None:
        """Wrap the layer entry points of the geonets modules in namespace g."""
        cli, construct, docio, net, irreducible, kernels = (
            g.cli, g.construct, g.docio, g.net, g.irreducible, g._kernels,
        )

        def add(key: str, amount: Callable) -> OnResult:
            def on_result(counts, args, result):
                counts[key] += amount(args, result)
            return on_result

        def many(*hooks: OnResult) -> OnResult:
            def on_result(counts, args, result):
                for hook in hooks:
                    hook(counts, args, result)
            return on_result

        one = lambda a, r: 1  # noqa: E731

        self._patch(cli, "main", self._span(lambda argv: f"cli.{argv[0]}", cli.main))

        for owner in (cli, construct):
            for attr in ("build_paper_net", "build_overlay_net", "build_fermat_tripod"):
                self._patch(owner, attr, self._span("construct.build", getattr(owner, attr)))
            self._patch(owner, "fermat_point", self._span(
                "construct.fermat_point", getattr(owner, "fermat_point"),
                add("construct.fermat_point.calls", one)))

        init = net.Net.__init__
        self._patch(net.Net, "__init__", self._span("net.init", init, many(
            add("net.init.calls", one),
            add("net.init.vertex_pairs",
                lambda a, r: len(a[0].vertices) * (len(a[0].vertices) - 1) // 2),
        )))

        minted = add("net.planarize.minted", lambda a, r: len(r.vertices) - len(a[0].vertices))
        for owner in (net, construct):
            self._patch(owner, "planarize", self._span("net.planarize", owner.planarize, minted))
        self._patch(net, "intersect", self._counted(net.intersect))

        verified = many(
            add("net.verify.calls", one),
            add("net.verify.unplanarized", lambda a, r: len(r.unplanarized_crossings)),
        )
        for owner in (cli, irreducible):
            self._patch(owner, "verify", self._span("net.verify", owner.verify, verified))

        self._patch(cli, "find_proper_subnet", self._span(
            "irreducible.find_proper_subnet", cli.find_proper_subnet, many(
                add("irreducible.trace_steps", lambda a, r: len(getattr(r, "trace", ()))),
                add("irreducible.witness_edges", lambda a, r: len(getattr(r, "witness", ()))),
            )))
        self._patch(kernels, "balanced_masks", self._span(
            "kernels.balanced_masks", kernels.balanced_masks, many(
                add("kernels.balanced_masks.calls", one),
                add("kernels.balanced_masks.enumerated", lambda a, r: 1 << len(a[0])),
                add("kernels.balanced_masks.accepted", lambda a, r: len(r)),
            )))
        self._patch(kernels, "descend", self._span(
            "kernels.descend", kernels.descend, add("kernels.descend.iterations", lambda a, r: int(r[1]))))
        self._patch(cli, "relax", self._span(
            "solver.relax", cli.relax, add("solver.relax.iterations", lambda a, r: r.iterations)))

        for owner in (cli, docio):
            self._patch(owner, "load", self._span(
                "docio.load", owner.load, add("docio.bytes", lambda a, r: os.path.getsize(a[0]))))
            self._patch(owner, "save", self._span(
                "docio.save", owner.save, add("docio.bytes", lambda a, r: os.path.getsize(a[1]))))
        self._patch(cli, "render_svg", self._span(
            "render.svg", cli.render_svg, add("render.bytes", lambda a, r: len(r.encode("utf-8")))))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "net",
                                  "intersect_calls_at_start", "intersect_calls_at_end"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _durations(spans: List[list]) -> Tuple[List[float], List[float]]:
    """Each span's duration and the part of it covered by its children."""
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            covered[s[3]] += d
    return dur, covered


def _outermost(spans: List[list], names) -> List[int]:
    """Indices of spans named in `names` with no ancestor named in `names`."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(tracer: Tracer, nets: int, tol_warnings: int, overhead: float) -> Dict[str, float]:
    """Every PER_LAYER metric from the tracer's spans and counters."""
    spans, counts = tracer.spans, tracer.counts
    dur, covered = _durations(spans)

    def busy(*names: str) -> float:
        return sum(dur[i] for i in _outermost(spans, set(names)))

    def self_time(name: str) -> float:
        return sum(dur[i] - covered[i] for i, s in enumerate(spans) if s[0] == name)

    def intersects(name: str) -> int:
        return sum(spans[i][6] - spans[i][5] for i in _outermost(spans, {name}))

    cli_spans = {f"cli.{c}" for c in CLI_COMMANDS}
    enumerated = counts["kernels.balanced_masks.enumerated"]
    iterations = counts["kernels.descend.iterations"]
    totals = {
        "construct.build_s": busy(*CONSTRUCT_SPANS),
        "construct.fermat_point.calls": counts["construct.fermat_point.calls"],
        "net.init_s": busy("net.init"),
        "net.init.calls": counts["net.init.calls"],
        "net.init.vertex_pairs": counts["net.init.vertex_pairs"],
        "net.planarize_s": busy("net.planarize"),
        "net.planarize.minted": counts["net.planarize.minted"],
        "net.planarize.intersect_calls": intersects("net.planarize"),
        "net.verify_s": busy("net.verify"),
        "net.verify.calls": counts["net.verify.calls"],
        "net.intersect.calls": intersects("net.verify"),
        "net.verify.unplanarized": counts["net.verify.unplanarized"],
        "irreducible.find_proper_subnet_s": busy("irreducible.find_proper_subnet"),
        "irreducible.search.self_s": self_time("irreducible.find_proper_subnet"),
        "irreducible.trace_steps": counts["irreducible.trace_steps"],
        "irreducible.witness_edges": counts["irreducible.witness_edges"],
        "irreducible.tol_warnings": tol_warnings,
        "kernels.balanced_masks_s": busy("kernels.balanced_masks"),
        "kernels.balanced_masks.calls": counts["kernels.balanced_masks.calls"],
        "kernels.balanced_masks.enumerated": enumerated,
        "kernels.balanced_masks.accepted": counts["kernels.balanced_masks.accepted"],
        "solver.relax_s": busy("solver.relax"),
        "solver.relax.self_s": self_time("solver.relax"),
        "solver.relax.iterations": counts["solver.relax.iterations"],
        "kernels.descend_s": busy("kernels.descend"),
        "docio.load_s": busy("docio.load"),
        "docio.save_s": busy("docio.save"),
        "docio.bytes": counts["docio.bytes"],
        "render.svg_s": busy("render.svg"),
        "render.bytes": counts["render.bytes"],
        "cli.self_s": sum(self_time(name) for name in cli_spans),
    }
    for command in CLI_COMMANDS:
        totals[f"cli.{command}_s"] = busy(f"cli.{command}")
    per_net = {name: value / nets for name, value in totals.items()}
    per_net["kernels.balanced_masks.useful_ratio"] = (
        counts["kernels.balanced_masks.accepted"] / enumerated if enumerated else 0.0
    )
    # 0 when no descent step ran (a net that is already balanced).
    per_net["kernels.descend.us_per_iter"] = (
        totals["kernels.descend_s"] / iterations * 1e6 if iterations else 0.0
    )
    per_net["trace.overhead_frac"] = overhead
    return {name: per_net[name] for name, _ in PER_LAYER}
