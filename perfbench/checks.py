"""Output checks that share no code with geonets.

Every check reads the documents the CLI wrote with the standard json and
xml modules and recomputes lengths and balance sums with plain numpy, so a
defect in geonets' own length, residual or parsing code cannot hide itself
here. Each check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Tuple

import numpy as np

# Length of the relaxed 20-vertex net, from the paper's construction.
PAPER16_RELAXED_LENGTH = 78.430195551969
LENGTH_REL_TOL = 1e-12
RESIDUAL_TOL = 1e-9
# Slack for summing the same unit vectors in another order than geonets.
SUM_ORDER_SLACK = 1e-12
# Two unit vectors whose sum is shorter than this cancel.
CANCEL_TOL = 1e-6


class Doc:
    """A net document read with json alone: ids, positions, kinds, edges."""

    def __init__(self, text: str):
        raw = json.loads(text)
        self.ids: List[str] = [v["id"] for v in raw["vertices"]]
        self.index: Dict[str, int] = {vid: k for k, vid in enumerate(self.ids)}
        self.pos = np.array([[v["x"], v["y"]] for v in raw["vertices"]], dtype=np.float64)
        self.balanced = np.array([v["kind"] == "balanced" for v in raw["vertices"]], dtype=bool)
        self.edge_ids: List[Tuple[str, str]] = [tuple(sorted(e)) for e in raw["edges"]]
        self.edges = np.array(
            [[self.index[u], self.index[v]] for u, v in self.edge_ids], dtype=np.int64
        ).reshape(-1, 2)

    @classmethod
    def read(cls, path: str) -> "Doc":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(fh.read())

    def length(self) -> float:
        d = self.pos[self.edges[:, 1]] - self.pos[self.edges[:, 0]]
        return float(np.sqrt((d * d).sum(axis=1)).sum())

    def unit_sums(self, edges: np.ndarray) -> np.ndarray:
        """Sum of unit vectors leaving each vertex along the given edges."""
        d = self.pos[edges[:, 1]] - self.pos[edges[:, 0]]
        u = d / np.sqrt((d * d).sum(axis=1))[:, None]
        sums = np.zeros_like(self.pos)
        np.add.at(sums, edges[:, 0], u)
        np.add.at(sums, edges[:, 1], -u)
        return sums

    def max_free_residual(self) -> float:
        sums = self.unit_sums(self.edges)[self.balanced]
        return float(np.sqrt((sums * sums).sum(axis=1)).max(initial=0.0))


def check_json(text: str) -> Optional[str]:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc.msg} at line {exc.lineno}"
    return None


def check_verify_json(text: str, rc: int) -> Optional[str]:
    bad = check_json(text)
    if bad:
        return bad
    report = json.loads(text)
    if report.get("passed") is not (rc == 0):
        return f"verify --json says passed={report.get('passed')} but exited {rc}"
    return None


def check_svg(path: str) -> Optional[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return f"SVG is not XML: {exc}"
    if not root.tag.endswith("svg"):
        return f"SVG root element is {root.tag!r}"
    return None


def check_doc(path: str, vertices: int, edges: int) -> Optional[str]:
    """The document parses and has the expected vertex and edge counts."""
    try:
        doc = Doc.read(path)
    except (json.JSONDecodeError, KeyError) as exc:
        return f"net document does not parse: {type(exc).__name__}: {exc}"
    if (len(doc.ids), len(doc.edge_ids)) != (vertices, edges):
        return f"net document has V={len(doc.ids)} E={len(doc.edge_ids)}, expected V={vertices} E={edges}"
    return None


def check_relaxed(input_path: str, relaxed_path: str, paper16: bool) -> Optional[str]:
    """Relaxation kept the graph and the pins, balanced every free vertex
    and did not lengthen the net; a perturbed 20-vertex net must relax to
    the paper's length."""
    before, after = Doc.read(input_path), Doc.read(relaxed_path)
    if before.ids != after.ids or sorted(before.edge_ids) != sorted(after.edge_ids):
        return "relaxed net has other vertices or edges than its input"
    pins = ~before.balanced
    if not np.array_equal(before.pos[pins], after.pos[pins]):
        return "relaxation moved a pinned vertex"
    residual = after.max_free_residual()
    if not residual <= RESIDUAL_TOL:
        return f"largest free-vertex residual {residual:.3e} > {RESIDUAL_TOL:g}"
    length = after.length()
    if paper16:
        if abs(length - PAPER16_RELAXED_LENGTH) > LENGTH_REL_TOL * PAPER16_RELAXED_LENGTH:
            return f"relaxed length {length!r} != {PAPER16_RELAXED_LENGTH!r}"
    elif length > before.length() * (1.0 + LENGTH_REL_TOL):
        return f"relaxation lengthened the net: {before.length()!r} -> {length!r}"
    return None


def check_rigid_junctions(net_path: str) -> Optional[str]:
    """Confirm that a net is irreducible without searching it. Every
    balanced vertex has three edges, and no one or two of their unit vectors
    cancel, so a balanced subnet holds all three edges of each balanced
    vertex it touches, or none. Every edge has a balanced end, and the
    edges form one group when the three edges of each balanced vertex are
    joined; so the only nonempty balanced subnet is the whole net."""
    net = Doc.read(net_path)
    group = list(range(len(net.edge_ids)))

    def root(k: int) -> int:
        while group[k] != k:
            group[k] = group[group[k]]
            k = group[k]
        return k

    balanced_end = net.balanced[net.edges].any(axis=1)
    if not balanced_end.all():
        return f"edge {net.edge_ids[int(np.argmin(balanced_end))]} joins two pins"
    d = net.pos[net.edges[:, 1]] - net.pos[net.edges[:, 0]]
    unit = d / np.sqrt((d * d).sum(axis=1))[:, None]
    for v in np.flatnonzero(net.balanced):
        at_v = np.flatnonzero((net.edges == v).any(axis=1))
        if len(at_v) != 3:
            return f"balanced vertex {net.ids[v]} has {len(at_v)} edges, not 3"
        out = unit[at_v] * np.where(net.edges[at_v, 0] == v, 1.0, -1.0)[:, None]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            if np.hypot(*(out[a] + out[b])) < CANCEL_TOL:
                return f"two edges at {net.ids[v]} cancel"
        for k in at_v[1:]:
            group[root(int(k))] = root(int(at_v[0]))
    if len({root(k) for k in range(len(group))}) != 1:
        return "the edges do not form one group through balanced vertices"
    return None


def check_witness(net_path: str, witness_path: str) -> Optional[str]:
    """The witness is a nonempty proper part of the net, at the net's own
    positions, and balances at each of its balanced vertices."""
    net, wit = Doc.read(net_path), Doc.read(witness_path)
    chosen = set(wit.edge_ids)
    if not chosen:
        return "witness has no edges"
    if not chosen < set(net.edge_ids):
        return "witness is not a proper subset of the net's edges"
    for k, vid in enumerate(wit.ids):
        j = net.index.get(vid)
        if j is None or not np.array_equal(wit.pos[k], net.pos[j]) or wit.balanced[k] != net.balanced[j]:
            return f"witness vertex {vid} differs from the net's"
    sums = wit.unit_sums(wit.edges)[wit.balanced]
    worst = float(np.sqrt((sums * sums).sum(axis=1)).max(initial=0.0))
    if not worst <= RESIDUAL_TOL + SUM_ORDER_SLACK:
        return f"witness unbalanced: largest unit-vector sum {worst:.3e}"
    return None

