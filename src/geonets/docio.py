"""JSON net documents: a stable, diff-friendly interchange format.

Layout:
    {
      "format_version": 1,
      "vertices": [{"id": ..., "x": ..., "y": ..., "kind": ..., "label"?: ...}],
      "edges": [["u", "v"], ...]
    }

Vertices and edges are emitted in the net's canonical (sorted) order and
floats in shortest round-trip form, so serialization is deterministic and
lossless. Structural problems raise ParseError with the offending field;
net-level rule violations (duplicate edges, coincident vertices) surface
as InvariantViolation from the Net constructor.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from .geom import Point
from .net import Net, Vertex, VertexKind

FORMAT_VERSION = 1

_KINDS = {k.value: k for k in VertexKind}


class ParseError(ValueError):
    """Malformed net document."""


def serialize(net: Net) -> str:
    doc: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "vertices": [],
        "edges": [list(e) for e in net.edges],
    }
    for v in net.vertices:
        row: Dict[str, Any] = {"id": v.id, "x": v.pos.x, "y": v.pos.y, "kind": v.kind.value}
        if v.label is not None:
            row["label"] = v.label
        doc["vertices"].append(row)
    return json.dumps(doc, indent=2) + "\n"


def _field(obj: Dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise ParseError(f"{where}: coordinate is too large for a float") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: coordinate is not finite")
    return value


def parse(text: str) -> Net:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # json's own limits: integer digits, nesting depth
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = _field(doc, "format_version", "document")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ParseError(f"document: unsupported format_version {version!r}")
    raw_vertices = _field(doc, "vertices", "document")
    raw_edges = _field(doc, "edges", "document")
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices: must be a list")
    if not isinstance(raw_edges, list):
        raise ParseError("edges: must be a list")

    vertices: List[Vertex] = []
    for n, row in enumerate(raw_vertices):
        where = f"vertices[{n}]"
        if not isinstance(row, dict):
            raise ParseError(f"{where}: must be an object")
        vid = _field(row, "id", where)
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"{where}.id: must be a non-empty string")
        x = _number(_field(row, "x", where), f"{where}.x")
        y = _number(_field(row, "y", where), f"{where}.y")
        kind_raw = _field(row, "kind", where)
        if not isinstance(kind_raw, str) or kind_raw not in _KINDS:
            raise ParseError(
                f"{where}.kind: unknown kind {kind_raw!r} "
                f"(expected one of {sorted(_KINDS)})"
            )
        label = row.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"{where}.label: must be a string when present")
        vertices.append(Vertex(vid, Point(x, y), _KINDS[kind_raw], label))

    edges: List[List[str]] = []
    for n, row in enumerate(raw_edges):
        where = f"edges[{n}]"
        if not isinstance(row, list) or len(row) != 2:
            raise ParseError(f"{where}: must be a pair of vertex ids")
        u, v = row
        if not isinstance(u, str) or not isinstance(v, str):
            raise ParseError(f"{where}: endpoints must be strings")
        edges.append([u, v])

    return Net(vertices, edges)


def save(net: Net, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path: str) -> Net:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
