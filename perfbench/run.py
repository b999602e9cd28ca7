#!/usr/bin/env python3
"""End-to-end benchmark of the geonets CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; geonets is imported from ./src.
One process and one thread drive a closed loop: one client, one net at a
time, each net's next command sent when the previous one returns. Every
command is a call of `geonets.cli.main` in this process on files in a
temporary directory under ./.perfbench-work, and every output is checked
by `checks`, which shares no code with geonets.

With --trace 0 the run times the workload untraced and the last line of
standard output is a JSON object whose metrics are the end-to-end metrics.
With --trace 1 the run spends half its time untraced and half with the
per-layer wrappers of `tracing` installed, and the metrics are the
per-layer ones. The lines before the last say what each figure is, how
many samples it rests on, which operations failed and why, and what the
machine and the inputs were. A fuller record, and the spans of a traced
run, are written under ./.perfbench-work/results.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 5
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Tail percentiles tried from the top; the first with at least
# TAIL_BEYOND samples above it is reported. The ladder stops at p95: on
# fixtures-cli a run has 400 to 1000 nets, and p99 would come and go with
# the machine's speed.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("pipeline_s.p50", "s"),
    ("pipeline_s.tail", "s"),
    ("verify_s.p50", "s"),
    ("relax_s.p50", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
WORKLOAD_NAMES = ("relax-paper16", "honeycomb-20x16", "fixtures-cli")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="one set-up and a 6x5 honeycomb; for the benchmark's own test")
    return p


def import_geonets() -> float:
    """Import geonets from ./src and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "geonets" / "__init__.py").is_file():
        raise SystemExit(f"error: no geonets sources under {src}; run from a source checkout")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    module = importlib.import_module("geonets.cli")
    seconds = perf_counter() - t0
    if not Path(module.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: geonets was imported from {module.__file__}, not {src}")
    return seconds


def environment() -> Dict[str, object]:
    import numpy as np
    import geonets._kernels as kernels

    head = ROOT / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def tail(samples: List[float]) -> Tuple[float, str]:
    """The highest ladder percentile with TAIL_BEYOND samples above it
    (nearest rank), or the median when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], f"p{p:g}"
    return statistics.median(xs), f"p50 (fewer than {2 * TAIL_BEYOND} samples)"


def run_phase(workload, seconds: float, tracer=None) -> list:
    """Run nets one after another until `seconds` have passed; at least
    one. Operations are scaled by the speed probes around them."""
    import speed  # imports numpy, so only after import_geonets

    runs = []
    workload.runner.probe = speed.Probe()
    start = perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.net = i
        runs.append(workload.run_net(i))
        i += 1
        if perf_counter() - start >= seconds:
            workload.runner.probe.flush()
            workload.runner.probe = None
            return runs


def end_to_end(runs, setup_s: float, scaled: bool) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The end-to-end metrics, in scaled or in measured seconds."""
    ops = [(op, op.scale if scaled else 1.0) for r in runs for op in r.ops]
    pipeline = [r.scaled_seconds if scaled else r.seconds for r in runs]
    verify = [op.seconds * k for op, k in ops if op.command == "verify"]
    relax = [op.seconds * k for op, k in ops if op.command == "relax"]
    failed = sum(op.reason is not None for op, _ in ops)
    tail_value, tail_label = tail(pipeline)
    values = {
        "setup_s": setup_s,
        "pipeline_s.p50": statistics.median(pipeline),
        "pipeline_s.tail": tail_value,
        "verify_s.p50": statistics.median(verify),
        "relax_s.p50": statistics.median(relax),
        "ok_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    checked = sum(op.checked for op, _ in ops)
    notes = {
        "setup_s": "import + median of the set-ups",
        "pipeline_s.p50": f"n={len(pipeline)} nets",
        "pipeline_s.tail": f"{tail_label}, n={len(pipeline)} nets",
        "verify_s.p50": f"n={len(verify)} verify commands",
        "relax_s.p50": f"n={len(relax)} relax commands",
        "ok_frac": f"{len(ops) - failed} of {len(ops)} operations passed; {checked} outputs content-checked",
        "peak_rss_mb": "getrusage ru_maxrss at the end of the run",
    }
    return values, notes


def failure_lines(workload: str, runs) -> List[str]:
    groups: Counter = Counter()
    for r in runs:
        for op in r.ops:
            if op.reason is not None:
                kind = "wrong" if op.wrong_output else "error"
                groups[(op.step, op.command, op.rc, op.expected, kind, op.reason)] += 1
    return [
        f"failed: workload={workload} step={step} command={command} exit={rc} "
        f"expected={expected} count={count} kind={kind} reason: {reason}"
        for (step, command, rc, expected, kind, reason), count in sorted(groups.items(), key=str)
    ]


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    setup_reps = 1 if args.tiny else SETUP_REPS
    import_s = import_geonets()

    import speed
    import tracing
    import workloads

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        g = workloads.geonets_modules()
        wl = workloads.WORKLOADS[args.workload](g, workdir, args.seed, args.tiny)

        # The import ran before the first probe, so that probe alone scales it.
        first = speed.probe()
        import_scaled = import_s * speed.scale(first, first)
        setups, setups_scaled = [], []
        for rep in range(setup_reps):
            # Input generation and the warm-up operations are timed and
            # scaled like the operations of the timed phase. Each set-up
            # warms up on other nets of the pool, so that the median does
            # not rest on one net's iteration count.
            wl.runner.probe = speed.Probe()
            t0 = perf_counter()
            wl.generate()
            ops = [workloads.Op("generate", "generate", 0, 0, perf_counter() - t0)]
            wl.runner.probe.add(ops[0])
            for k in range(wl.warmup_nets):
                ops += wl.run_net(rep * wl.warmup_nets + k).ops
            wl.runner.probe.flush()
            wl.runner.probe = None
            setups.append(sum(op.seconds for op in ops))
            setups_scaled.append(sum(op.seconds * op.scale for op in ops))
        setup_s = import_scaled + statistics.median(setups_scaled)
        setup_measured = import_s + statistics.median(setups)

        tracer = None
        runs = run_phase(wl, args.seconds / 2.0 if args.trace else args.seconds)
        all_runs = runs
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(g)
            try:
                tracer.net = -1
                wl.generate()
                traced = run_phase(wl, args.seconds / 2.0, tracer=tracer)
            finally:
                tracer.uninstall()
            all_runs = runs + traced
            p50 = [statistics.median(r.scaled_seconds for r in rs) for rs in (traced, runs)]
            warns = sum(r.tol_warnings for r in traced)
            metrics = tracing.layer_metrics(tracer, len(traced), warns, p50[0] / p50[1] - 1.0)
            units = dict(tracing.PER_LAYER)
            notes = {name: f"per net, {len(traced)} traced nets" for name in units}
            notes["trace.overhead_frac"] = (
                f"scaled pipeline p50 of {len(traced)} traced / {len(runs)} untraced nets, minus 1"
            )
        e2e, e2e_notes = end_to_end(runs, setup_s, scaled=True)
        measured, _ = end_to_end(runs, setup_measured, scaled=False)
        if tracer is None:
            metrics, units = e2e, dict(END_TO_END)

        ops = [op for r in all_runs for op in r.ops]
        failed = sum(op.reason is not None for op in ops)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "fingerprint": wl.fingerprint(),
            "setup": {"import_s": import_s, "repeats_s": setups, "repeats_scaled_s": setups_scaled},
            "end_to_end": {k: {"value": e2e[k], "measured": measured[k], "unit": u, "note": e2e_notes[k]}
                           for k, u in END_TO_END},
            "fail_frac": failed / len(ops),
            "failures": failure_lines(args.workload, all_runs),
            "nets": [{"input": r.label, "seconds": r.seconds, "tol_warnings": r.tol_warnings,
                      "ops": [[op.step, op.command, op.rc, op.expected, op.seconds, op.reason, op.checked,
                               op.scale, op.wrong_output]
                              for op in r.ops]} for r in all_runs],
        }
        if tracer is not None:
            record["per_layer"] = {k: {"value": metrics[k], "unit": u, "note": notes[k]}
                                   for k, u in tracing.PER_LAYER}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            tracer.write(str(results / f"{stem}-spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          "load=closed loop, 1 client, 1 process, 1 thread")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    print(f"end-to-end: value in seconds scaled to the reference speed, then as measured")
    for name, unit in END_TO_END:
        print(f"{name:<18} {e2e[name]:>12.6f} {unit:<6} measured {measured[name]:>12.6f}  ({e2e_notes[name]})")
    print(f"{'fail_frac':<18} {failed / len(ops):>12.6f} {'ratio':<6} "
          f"({failed} of {len(ops)} operations failed, traced ones included)")
    for line in record["failures"]:
        print(line)
    if tracer is not None:
        print("per-layer: measured, not scaled")
        for name, unit in tracing.PER_LAYER:
            print(f"{name:<36} {metrics[name]:>16.6f} {unit:<9} ({notes[name]})")
    print(f"record: {(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": not any(op.wrong_output for op in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
