"""JSON net documents: a stable, diff-friendly interchange format.

Layout:
    {
      "format_version": 1,
      "vertices": [{"id": ..., "x": ..., "y": ..., "kind": ..., "label"?: ...}],
      "edges": [["u", "v"], ...]
    }

Vertices and edges are emitted in the net's canonical (sorted) order.
Point stores coordinates as floats, so serialization is deterministic and
lossless for every net: parse(serialize(net)) == net, and
serialize(parse(text)) == text for the text serialize writes; an int
coordinate in a document is read as a float. The bytes are exactly those
of json.dumps(doc, indent=2) plus a final newline: a two-space indent with
one value per line, strings in ASCII with json's escapes, and floats as
float.__repr__ spells them. serialize writes them directly, not through
json's pure-Python encoder, and a test checks the two against each other.

Structural problems raise ParseError with the offending field;
net-level rule violations (duplicate edges, coincident vertices) surface
as InvariantViolation from the checks every Net passes.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from typing import Any, List, Optional, Tuple

import numpy as np

from .net import InvariantViolation, Net, VertexKind

FORMAT_VERSION = 1

_KINDS = {k.value: k for k in VertexKind}
_BALANCED = VertexKind.BALANCED.value
_LABEL_TYPES = {str, type(None)}
_KIND_TEXT = {k is VertexKind.BALANCED: _string(k.value) for k in VertexKind}
_LABEL_KEY = ',\n      "label": '


class ParseError(ValueError):
    """Malformed net document."""


def _list_text(rows: List[str]) -> str:
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def serialize(net: Net) -> str:
    # Net holds str ids and labels and float coordinates; each id is
    # quoted once, for its vertex row and its edge rows.
    quoted = list(map(_string, net.ids))
    labels = ["" if label is None else _LABEL_KEY + _string(label) for label in net.labels]
    rows = zip(quoted, net.pos.tolist(), net.balanced.tolist(), labels)
    vertices = [
        f'    {{\n      "id": {vid},\n      "x": {x!r},\n      "y": {y!r},\n'
        f'      "kind": {_KIND_TEXT[b]}{label}\n    }}'
        for vid, (x, y), b, label in rows
    ]
    edges = [f"    [\n      {quoted[i]},\n      {quoted[j]}\n    ]" for i, j in net.ends.tolist()]
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n'
        f'  "vertices": {_list_text(vertices)},\n'
        f'  "edges": {_list_text(edges)}\n}}\n'
    )


def _fault(row: dict, key: str, n: int, problem: str) -> ParseError:
    """Why field key of vertex row n failed its check: missing, or problem."""
    if key not in row:
        return ParseError(f"vertices[{n}]: missing required field {key!r}")
    return ParseError(f"vertices[{n}].{key}: {problem}")


def _coordinate(row: dict, key: str, n: int) -> float:
    """row[key] as a coordinate: a finite float, or the float an int
    equals; else the ParseError that says why it is not one."""
    value = row.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fault(row, key, n, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise _fault(row, key, n, "coordinate is too large for a float") from None
    if not math.isfinite(value):
        raise _fault(row, key, n, "coordinate is not finite")
    return value


def _vertex(row: Any, n: int) -> Tuple[str, Tuple[float, float], bool, Optional[str]]:
    """Vertex row n as its id, (x, y), whether it is balanced and its
    label, its fields checked in the order id, x, y, kind, label."""
    if type(row) is not dict:
        raise ParseError(f"vertices[{n}]: must be an object")
    vid = row.get("id")
    if type(vid) is not str or not vid:
        raise _fault(row, "id", n, "must be a non-empty string")
    x, y = _coordinate(row, "x", n), _coordinate(row, "y", n)
    kind = row.get("kind")
    if type(kind) is not str or kind not in _KINDS:
        raise _fault(row, "kind", n, f"unknown kind {kind!r} (expected one of {sorted(_KINDS)})")
    label = row.get("label")
    if label is not None and type(label) is not str:
        raise _fault(row, "label", n, "must be a string when present")
    return vid, (x, y), _KINDS[kind] is VertexKind.BALANCED, label


def _vertex_columns(rows: list) -> tuple:
    """The ids, balanced flags, labels and (x, y) positions of the vertex
    rows. They are checked column by column: each column's set of types,
    and one finiteness test over the coordinates. Only when that check
    fails are the rows checked one by one with _vertex, which raises the
    first faulty row's ParseError or reads int coordinates as floats."""
    try:
        ids = [row["id"] for row in rows]
        xs = [row["x"] for row in rows]
        ys = [row["y"] for row in rows]
        kinds = [row["kind"] for row in rows]
        labels = [row.get("label") for row in rows]
        typed = (
            {*map(type, ids)} <= {str} and all(ids)
            and {*map(type, xs), *map(type, ys)} <= {float}
            and {*kinds} <= _KINDS.keys()
            and {*map(type, labels)} <= _LABEL_TYPES
        )
    except (TypeError, KeyError):  # a row that is not an object, a missing field, a list kind
        typed = False
    # a sum of floats is finite only if every term is
    if typed and math.isfinite(sum(xs) + sum(ys)):
        xy = np.fromiter(chain(xs, ys), np.float64, 2 * len(rows)).reshape(2, -1).T
        return ids, [kind == _BALANCED for kind in kinds], labels, xy
    checked = [_vertex(row, n) for n, row in enumerate(rows)]
    ids, xy, balanced, labels = zip(*checked) if checked else ((),) * 4
    return ids, balanced, labels, xy


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
    if "format_version" not in doc:
        raise ParseError("document: missing required field 'format_version'")
    version = doc["format_version"]
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ParseError(f"document: unsupported format_version {version!r}")
    for key in ("vertices", "edges"):
        if key not in doc:
            raise ParseError(f"document: missing required field {key!r}")
    raw_vertices, raw_edges = doc["vertices"], doc["edges"]
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices: must be a list")
    if not isinstance(raw_edges, list):
        raise ParseError("edges: must be a list")

    ids, balanced, labels, xy = _vertex_columns(raw_vertices)
    # Net refuses every row that is not a pair of vertex ids, but takes any
    # pair, such as an object of two keys: a row that is not a list is
    # refused here. The rows are checked one by one only when Net refuses
    # them, so that the first faulty row's ParseError comes first.
    if not {*map(type, raw_edges)} <= {list}:
        _check_edge_rows(raw_edges)
    try:
        return Net._from_columns(ids, balanced, labels, xy, raw_edges)
    except InvariantViolation:
        _check_edge_rows(raw_edges)
        raise


def _check_edge_rows(rows: list) -> None:
    """Raises the ParseError of the first edge row that is not a list of
    two str ids, if there is one."""
    for n, row in enumerate(rows):
        if type(row) is not list or len(row) != 2:
            raise ParseError(f"edges[{n}]: must be a pair of vertex ids")
        if type(row[0]) is not str or type(row[1]) is not str:
            raise ParseError(f"edges[{n}]: endpoints must be strings")


def save(net: Net, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path: str) -> Net:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
