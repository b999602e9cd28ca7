"""JSON net documents: a stable, diff-friendly interchange format.

Layout:
    {
      "format_version": 1,
      "vertices": [{"id": ..., "x": ..., "y": ..., "kind": ..., "label"?: ...}],
      "edges": [["u", "v"], ...]
    }

Vertices and edges are emitted in the net's canonical (sorted) order and
floats in shortest round-trip form, so serialization is deterministic and
lossless. The bytes are exactly those of json.dumps(doc, indent=2) plus a
final newline: a two-space indent with one value per line, strings in
ASCII with json's escapes, and floats as float.__repr__ spells them.
serialize writes them directly, without json's pure-Python indenting
encoder, and a test checks the two against each other.

Structural problems raise ParseError with the offending field;
net-level rule violations (duplicate edges, coincident vertices) surface
as InvariantViolation from the Net constructor.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Dict, List

from .geom import Point
from .net import Net, Vertex, VertexKind

FORMAT_VERSION = 1

_KINDS = {k.value: k for k in VertexKind}


class ParseError(ValueError):
    """Malformed net document."""


def _value(x: Any) -> str:
    """One scalar, spelled as json.dumps spells it."""
    if isinstance(x, str):
        return _string(x)
    if isinstance(x, float):
        # Point keeps coordinates finite, and json spells finite floats,
        # float subclasses included, with float.__repr__.
        return float.__repr__(x)
    return json.dumps(x)


def _vertex_text(v: Vertex) -> str:
    label = "" if v.label is None else ',\n      "label": ' + _value(v.label)
    return (
        '    {\n      "id": ' + _value(v.id)
        + ',\n      "x": ' + _value(v.pos.x)
        + ',\n      "y": ' + _value(v.pos.y)
        + ',\n      "kind": ' + _value(v.kind.value)
        + label + "\n    }"
    )


def _list_text(rows: List[str]) -> str:
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def serialize(net: Net) -> str:
    vertices = [_vertex_text(v) for v in net.vertices]
    edges = [
        "    [\n      " + _value(u) + ",\n      " + _value(v) + "\n    ]"
        for u, v in net.edges
    ]
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n'
        f'  "vertices": {_list_text(vertices)},\n'
        f'  "edges": {_list_text(edges)}\n}}\n'
    )


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


def _vertex(row: Any, where: str) -> Vertex:
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
    return Vertex(vid, Point(x, y), _KINDS[kind_raw], label)


def _edge(row: Any, where: str) -> List[str]:
    if not isinstance(row, list) or len(row) != 2:
        raise ParseError(f"{where}: must be a pair of vertex ids")
    u, v = row
    if not isinstance(u, str) or not isinstance(v, str):
        raise ParseError(f"{where}: endpoints must be strings")
    return [u, v]


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

    # One cheap pass over each row; a row that fails it goes through the
    # field-by-field checks, which word the error.
    vertices: List[Vertex] = []
    for n, row in enumerate(raw_vertices):
        if type(row) is dict:
            vid, x, y = row.get("id"), row.get("x"), row.get("y")
            kind, label = row.get("kind"), row.get("label")
            if (
                type(vid) is str and vid
                and type(x) is float and type(y) is float
                and math.isfinite(x) and math.isfinite(y)
                and type(kind) is str and kind in _KINDS
                and (label is None or type(label) is str)
            ):
                vertices.append(Vertex(vid, Point(x, y), _KINDS[kind], label))
                continue
        vertices.append(_vertex(row, f"vertices[{n}]"))

    for n, row in enumerate(raw_edges):
        if not (type(row) is list and len(row) == 2 and type(row[0]) is str and type(row[1]) is str):
            raw_edges[n] = _edge(row, f"edges[{n}]")

    return Net(vertices, raw_edges)


def save(net: Net, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path: str) -> Net:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
