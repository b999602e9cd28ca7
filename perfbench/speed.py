"""Machine-speed probe.

The virtual machines this benchmark runs on change speed by up to about
1.6x for minutes at a time, because of load from other tenants. A timed
run therefore also times a fixed reference computation that shares no code
with geonets, between operations at least every PROBE_INTERVAL_S, and the
end-to-end times are reported both as measured and scaled to a reference
speed: scaled = measured * REFERENCE_SECONDS / mean of the reference times
just before and just after the operation.
A change to geonets moves the scaled times exactly as it moves the
measured ones; a change in the machine's speed moves only the measured.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import List

import numpy as np

# One reference() call on a 2-vCPU Xeon virtual machine (Python 3.11,
# numpy 2.4); this fixes the unit of the scaled times.
REFERENCE_SECONDS = 0.0033
PROBE_CALLS = 3
PROBE_INTERVAL_S = 0.5

_POINTS = [(math.cos(k * 0.7) * 3.0, math.sin(k * 1.3) * 2.0) for k in range(64)]
_POS = np.array(_POINTS[:20])
_TAIL = np.arange(44) % 20
_HEAD = (_TAIL * 7 + 3) % 20


def reference() -> float:
    """Scalar float work with branches, like the segment-pair pass, then
    residual sums over a small net with fancy indexing and np.add.at, like
    the descent loop."""
    acc = 0.0
    for i in range(3000):
        x1, y1 = _POINTS[i & 63]
        x2, y2 = _POINTS[(i * 7) & 63]
        d = (x1 - x2) * (y1 + y2) - (y1 - y2) * (x1 + x2)
        if d > 0.0:
            acc += math.hypot(d, x1)
        else:
            acc -= d / (1.0 + y2 * y2)
    for _ in range(60):
        out = np.zeros_like(_POS)
        d = _POS[_HEAD] - _POS[_TAIL]
        u = d / np.sqrt((d * d).sum(axis=1))[:, None]
        np.add.at(out, _TAIL, u)
        np.add.at(out, _HEAD, -u)
        acc += float(np.sqrt((out * out).sum(axis=1)).max())
    return acc


def probe() -> float:
    """Median seconds of one reference() call, over PROBE_CALLS calls."""
    times: List[float] = []
    for _ in range(PROBE_CALLS):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from measured to scaled seconds for work between two probes."""
    return REFERENCE_SECONDS / ((before + after) / 2.0)


class Probe:
    """Probes between operations and sets each operation's `scale`."""

    def __init__(self) -> None:
        self.before = probe()
        self.at = perf_counter()
        self.pending: list = []

    def add(self, op) -> None:
        self.pending.append(op)
        if perf_counter() - self.at >= PROBE_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        after = probe()
        k = scale(self.before, after)
        for op in self.pending:
            op.scale = k
        self.pending.clear()
        self.before, self.at = after, perf_counter()
