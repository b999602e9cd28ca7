import copy
import hashlib
import json
import math
import random
import re
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from geonets import (
    FORMAT_VERSION,
    InvariantViolation,
    Net,
    ParseError,
    Point,
    Triangle,
    Vertex,
    build_fermat_tripod,
    edge_key,
    load,
    parse,
    relax,
    render_svg,
    save,
    serialize,
)

from helpers import B, U, honeycomb, perturbed, random_net, tripod_overlay


def small_net() -> Net:
    return Net(
        vertices=(
            Vertex("a", Point(0.0, 0.0), U, "left pin"),
            Vertex("f", Point(0.3337, 0.211324), B),
            Vertex("b", Point(1.0, 0.0), U),
            Vertex("c", Point(0.25, 1.0), U),
        ),
        edges=(("a", "f"), ("f", "b"), ("f", "c")),
    )


# --- documents ---------------------------------------------------------------

def test_serialize_shape():
    doc = json.loads(serialize(small_net()))
    assert doc["format_version"] == FORMAT_VERSION
    assert [v["id"] for v in doc["vertices"]] == ["a", "b", "c", "f"]
    assert doc["edges"] == [["a", "f"], ["b", "f"], ["c", "f"]]
    assert doc["vertices"][0]["label"] == "left pin"
    assert "label" not in doc["vertices"][1]


def test_round_trip_is_bit_identical():
    text = serialize(small_net())
    again = serialize(parse(text))
    assert text == again


def test_round_trip_preserves_everything(paper_net):
    out = parse(serialize(paper_net))
    assert out.edges == paper_net.edges
    for v, w in zip(out.vertices, paper_net.vertices):
        assert v.id == w.id
        assert v.kind is w.kind
        assert v.label == w.label
        assert (v.pos.x, v.pos.y) == (w.pos.x, w.pos.y)


def test_save_and_load(tmp_path, paper_net):
    path = tmp_path / "net.json"
    save(paper_net, str(path))
    assert serialize(load(str(path))) == serialize(paper_net)


def reference_serialize(net: Net) -> str:
    """The document as json.dumps writes it: the byte contract of serialize."""
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": [],
        "edges": [list(e) for e in net.edges],
    }
    for v in net.vertices:
        row = {"id": v.id, "x": v.pos.x, "y": v.pos.y, "kind": v.kind.value}
        if v.label is not None:
            row["label"] = v.label
        doc["vertices"].append(row)
    return json.dumps(doc, indent=2) + "\n"


_AWKWARD = ['q"uote', "back\\slash", "tab\tnl\nnul\x00bel\x07del\x7f", "caf\u00e9", "\u6f22\u5b57",
            "\U0001f600", "\u2028", "/"]


def _hand_made_nets():
    yield "labels", small_net()
    yield "no-labels", Net([Vertex(v.id, v.pos, v.kind) for v in small_net().vertices],
                           small_net().edges)
    awkward = [Vertex(f"{text}{i}", Point(float(i), 0.5 * i), B if i % 2 else U, text)
               for i, text in enumerate(_AWKWARD)]
    yield "escapes", Net(awkward, [(a.id, b.id) for a, b in zip(awkward, awkward[1:])])
    yield "int-and-bool-coordinates", Net(
        [Vertex("a", Point(0, 3), U), Vertex("b", Point(-7, 10**6), U), Vertex("c", Point(True, 0.5), B)],
        [("a", "c"), ("b", "c")],
    )
    yield "float64-coordinates", Net(
        [Vertex("a", Point(np.float64(0.1), np.float64(-2.5)), U),
         Vertex("b", Point(np.float64(1e-300), np.float64(3.0)), U)],
        [("a", "b")],
    )
    yield "extreme-floats", Net(
        [Vertex("a", Point(-0.0, 1e16), U), Vertex("b", Point(5e-324, 1.0), U),
         Vertex("c", Point(1e-07, -3.0), U), Vertex("d", Point(1.7976931348623157e308, -1e-05), U)],
        [("a", "b"), ("c", "d")],
    )
    yield "no-edges", Net([Vertex("a", Point(0.0, 0.0), U), Vertex("b", Point(1.0, 0.0), U)], [])
    yield "empty", Net([], [])


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in _hand_made_nets()])
def test_serialize_matches_json_dumps_on_hand_made_nets(net):
    assert serialize(net) == reference_serialize(net)


def test_serialize_matches_json_dumps_on_built_nets(paper_net, overlay_net):
    tripod = build_fermat_tripod(Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)))
    for net in (paper_net, overlay_net, tripod, honeycomb(8, 6), tripod_overlay(6, 0),
                relax(perturbed(paper_net, 7, 0.01)).net):
        assert serialize(net) == reference_serialize(net)


def _random_document_net(rng: random.Random) -> Net:
    """Vertices with coordinates from random bit patterns and ids and labels
    from an alphabet of escapes, on rows far enough apart not to coincide."""
    def coordinate() -> float:
        while True:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                return x

    def text() -> str:
        return "".join(rng.choice('ab"\\\n\x01\u00e9\u6f22\U0001f600 /') for _ in range(rng.randint(1, 6)))

    vertices = [
        Vertex(f"v{i}{text()}", Point(coordinate(), 10.0 * i + rng.random()),
               rng.choice([B, U]), rng.choice([None, text()]))
        for i in range(rng.randint(0, 12))
    ]
    ids = [v.id for v in vertices]
    edges = {edge_key(*rng.sample(ids, 2)) for _ in range(len(ids))} if len(ids) > 1 else set()
    return Net(vertices, sorted(edges))


def _recast(net: Net, rng: random.Random) -> Net:
    """net with each coordinate given as a float, an int, a bool or a numpy
    float. Only x may become a bool: the rows of a _random_document_net
    lie 10 apart in y and so stay apart as ints."""
    def cast(c: float, kinds: str):
        kind = rng.choice(kinds)
        return {"f": c, "i": int(c), "b": c > 0.0, "n": np.float64(c)}[kind]

    vertices = [Vertex(v.id, Point(cast(v.pos.x, "fibn"), cast(v.pos.y, "fin")), v.kind, v.label)
                for v in net.vertices]
    return Net(vertices, net.edges)


@pytest.mark.parametrize("seed", range(40))
def test_serialize_and_parse_round_trip_seeded(seed):
    rng = random.Random(seed)
    first, second = _random_document_net(rng), random_net(rng)
    for net in (first, second, _recast(first, rng)):
        text = serialize(net)
        assert text == reference_serialize(net)
        assert serialize(parse(text)) == text
        assert parse(text) == net


def _doc(**overrides):
    base = {
        "format_version": FORMAT_VERSION,
        "vertices": [
            {"id": "a", "x": 0.0, "y": 0.0, "kind": "unbalanced"},
            {"id": "b", "x": 1.0, "y": 0.0, "kind": "unbalanced"},
        ],
        "edges": [["a", "b"]],
    }
    base.update(overrides)
    return json.dumps(base)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("{not json", "invalid JSON"),
        ("[]", "root"),
        (_doc(format_version=99), "format_version"),
        # True == 1 in Python, but a boolean is not a version number
        (_doc(format_version=True), "format_version"),
        (_doc(vertices={}), "vertices"),
        (_doc(edges="ab"), "edges"),
        (_doc(vertices=[{"x": 0, "y": 0, "kind": "unbalanced"}]), "vertices[0]"),
        (_doc(vertices=[7]), "vertices[0]: must be an object"),
        (_doc(vertices=[{"id": "", "x": 0, "y": 0, "kind": "unbalanced"}]), "vertices[0].id"),
        (_doc(vertices=[{"id": 3, "x": 0, "y": 0, "kind": "unbalanced"}]), "vertices[0].id"),
        (
            _doc(vertices=[{"id": "a", "x": "0", "y": 0, "kind": "unbalanced"}]),
            "vertices[0].x",
        ),
        (
            _doc(
                vertices=[{"id": "a", "x": 0, "y": 0, "kind": "fixed"}]
            ),
            "fixed",
        ),
        (
            _doc(
                vertices=[{"id": "a", "x": 0, "y": 0, "kind": "unbalanced", "label": 7}]
            ),
            "label",
        ),
        (_doc(edges=[["a"]]), "edges[0]"),
        (_doc(edges=[["a", 3]]), "edges[0]"),
        pytest.param(
            _doc(vertices=[{"id": "a", "x": 10**400, "y": 0, "kind": "unbalanced"}]),
            "vertices[0].x",
            id="float-overflow",
        ),
        pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON", id="deep-nesting"),
        pytest.param('{"format_version": ' + "1" * 5000 + "}", "invalid JSON", id="int-digits"),
        pytest.param(
            _doc(vertices=[{"id": "a", "x": 0, "y": 0, "kind": []}]),
            "vertices[0].kind",
            id="unhashable-kind",
        ),
    ],
)
def test_parse_errors_carry_field_context(text, needle):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert needle in str(err.value)


_OK = {"id": "a", "x": 0.0, "y": 0.0, "kind": "unbalanced"}


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(
            _doc(vertices=[dict(_OK, x=True)]),
            "vertices[0].x: expected a number, got bool",
            id="bool-coordinate",
        ),
        pytest.param(
            _doc(vertices=[{"x": "0", "y": 0, "kind": "unbalanced"}]),
            "vertices[0]: missing required field 'id'",
            id="no-id-and-bad-x",
        ),
        pytest.param(_doc(vertices=[["a", 0.0, 0.0]]), "vertices[0]: must be an object", id="list-row"),
        pytest.param(_doc(vertices=["a"]), "vertices[0]: must be an object", id="string-row"),
        pytest.param(
            _doc(vertices=[dict(_OK, id="b", x=1.0), dict(_OK, y=None)]),
            "vertices[1].y: expected a number, got NoneType",
            id="second-row-null-y",
        ),
        pytest.param(
            _doc(vertices=[{"id": "a", "y": 0, "kind": "unbalanced"}]),
            "vertices[0]: missing required field 'x'",
            id="no-x",
        ),
        pytest.param(
            _doc(vertices=[{"id": "a", "x": 0, "y": 0}]),
            "vertices[0]: missing required field 'kind'",
            id="no-kind",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, kind="Balanced")]),
            "vertices[0].kind: unknown kind 'Balanced' (expected one of ['balanced', 'unbalanced'])",
            id="unknown-kind",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, x=float("inf"))]),
            "vertices[0].x: coordinate is not finite",
            id="infinite-coordinate",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, label=["left"])]),
            "vertices[0].label: must be a string when present",
            id="non-string-label",
        ),
        pytest.param(_doc(edges=[["a", "b", "c"]]), "edges[0]: must be a pair of vertex ids", id="triple-edge"),
        pytest.param(_doc(edges=[["a", "b"], [0, 1]]), "edges[1]: endpoints must be strings", id="int-endpoints"),
        pytest.param(_doc(edges=[{"a": "b"}]), "edges[0]: must be a pair of vertex ids", id="object-edge"),
        # Net takes an object's two keys as a pair; a document does not
        pytest.param(_doc(edges=[{"a": 0, "b": 1}]), "edges[0]: must be a pair of vertex ids",
                     id="object-edge-of-two-ids"),
        # two faults: the check that comes first in document order wins
        pytest.param(
            _doc(vertices=[{"id": "a", "x": "0", "kind": "unbalanced"}]),
            "vertices[0].x: expected a number, got str",
            id="bad-x-and-no-y",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, x=10**400, kind="fixed")]),
            "vertices[0].x: coordinate is too large for a float",
            id="huge-int-x-and-bad-kind",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, kind="fixed", label=7)]),
            "vertices[0].kind: unknown kind 'fixed' (expected one of ['balanced', 'unbalanced'])",
            id="bad-kind-and-int-label",
        ),
        pytest.param(
            json.dumps({"format_version": 2, "edges": []}),
            "document: unsupported format_version 2",
            id="bad-version-and-no-vertices",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, kind=None), dict(_OK, id="b", x="1")]),
            "vertices[0].kind: unknown kind None (expected one of ['balanced', 'unbalanced'])",
            id="two-bad-rows",
        ),
        pytest.param(
            _doc(vertices=[dict(_OK, label=[])], edges=[["a"]]),
            "vertices[0].label: must be a string when present",
            id="bad-row-and-bad-edge",
        ),
    ],
)
def test_parse_error_messages_are_exact(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


_ODD_VALUES = [None, True, False, 0, -3, 7, 2**53 + 1, 10**400, 1.5, -0.0, 1e308, float("nan"),
               float("inf"), -float("inf"), "", "a", "v0", "balanced", "unbalanced", "Balanced",
               [], ["a", "b"], {}, {"id": "a"}]


def mutated_document(rng: random.Random) -> str:
    """A small valid net document with one to three random faults: a field
    removed or replaced by an odd value, a row replaced, duplicated or moved
    onto another, an edge endpoint changed, or the text cut short. Some
    faults leave the document valid, such as an int coordinate."""
    def odd(extra=()):
        return copy.deepcopy(rng.choice(_ODD_VALUES + list(extra)))

    rows = [{"id": f"v{i}", "x": rng.uniform(-5.0, 5.0), "y": 10.0 * i + rng.random(),
             "kind": rng.choice(["balanced", "unbalanced"])} for i in range(rng.randint(0, 5))]
    for row in rows:
        if rng.random() < 0.3:
            row["label"] = rng.choice(["pin", "caf\u00e9", ""])
    ids = [row["id"] for row in rows]
    edges = [sorted(rng.sample(ids, 2)) for _ in range(len(ids))] if len(ids) > 1 else []
    doc = {"format_version": 1, "vertices": rows, "edges": edges}
    cut = False
    for _ in range(rng.randint(1, 3)):
        fault = rng.randrange(9)
        objects = [row for row in rows if isinstance(row, dict)]
        pairs = [edge for edge in edges if isinstance(edge, list) and len(edge) == 2]
        if fault == 0:
            key = rng.choice(["format_version", "vertices", "edges"])
            if rng.random() < 0.5:
                doc.pop(key, None)
            else:
                doc[key] = odd()
        elif fault in (1, 2) and objects:
            row = rng.choice(objects)
            key = rng.choice(["id", "x", "y", "kind", "label"])
            if fault == 1:
                row.pop(key, None)
            else:
                row[key] = odd()
        elif fault == 3 and objects:
            row = rng.choice(objects)
            key = rng.choice(["x", "y"])
            if type(row.get(key)) is float and math.isfinite(row[key]):
                row[key] = int(row[key])
        elif fault == 4 and rows:
            rows[rng.randrange(len(rows))] = odd()
        elif fault == 5 and objects:
            rows.append(dict(rng.choice(objects)) if rng.random() < 0.5
                        else dict(rng.choice(objects), id=f"w{len(rows)}"))
        elif fault == 6 and pairs:
            edge = rng.choice(pairs)
            if rng.random() < 0.5:
                edge[rng.randrange(2)] = odd(ids)
            else:
                edges.append(rng.choice([list(edge), edge[:1], edge + ["v0"], "ab", None]))
        elif fault == 7 and len(objects) > 1:
            a, b = rng.sample(objects, 2)
            a.update({k: b[k] for k in ("x", "y") if k in b})
        elif fault == 8:
            cut = True
    text = json.dumps(doc, indent=rng.choice([None, 2]))
    return text[: rng.randrange(len(text))] if cut else text


def test_parse_outcomes_on_mutated_documents():
    """Every document parses to a net whose bytes round-trip, or raises
    ParseError or InvariantViolation: never another exception."""
    rng = random.Random(2024)
    outcomes = {"parsed": 0, "ParseError": 0, "InvariantViolation": 0}
    for _ in range(2000):
        try:
            net = parse(mutated_document(rng))
        except (ParseError, InvariantViolation) as exc:
            outcomes["ParseError" if isinstance(exc, ParseError) else "InvariantViolation"] += 1
            continue
        text = serialize(net)
        assert parse(text) == net
        assert serialize(parse(text)) == text
        outcomes["parsed"] += 1
    assert min(outcomes.values()) > 0, outcomes


def _last_row_faults():
    """Valid documents of one to seven vertices whose only fault is in the
    last vertex row or the last edge row, where a column-wise check of the
    earlier rows passes and the fault must still be found and named."""
    for n in range(1, 8):
        rows = [{"id": f"v{i}", "x": 0.5 * i, "y": 10.0 * i, "kind": "balanced" if i % 2 else "unbalanced"}
                for i in range(n)]
        edges = [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)]
        last = rows[-1]
        for key, value in (("x", 3), ("y", float("nan")), ("kind", "pinned"), ("label", 7),
                           ("id", None), ("x", -0.0), ("y", 10**400), ("label", None)):
            row = dict(last)
            if value is None and key == "id":
                del row["id"]
            else:
                row[key] = value
            yield json.dumps({"format_version": 1, "vertices": rows[:-1] + [row], "edges": edges})
        for edge in (["v0"], ["v0", 1], ["v0", "v0"], ["v0", "ghost"], ["v1", "v0"]):
            yield json.dumps({"format_version": 1, "vertices": rows, "edges": edges + [edge]})


def _parse_outcome(text: str) -> str:
    try:
        return serialize(parse(text))
    except (ParseError, InvariantViolation) as exc:
        return f"{type(exc).__name__}: {exc}"


# sha256 over the outcome of each of the 2,000 mutated documents and of
# _last_row_faults: the serialized net, or the exception's class and message.
PARSE_OUTCOME_SHA256 = "6dc03bccb29b2956d17fa957a238d444962e2a2ed3a5a0801814ab1b80eae41f"


def test_parse_outcomes_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for text in [mutated_document(rng) for _ in range(2000)] + list(_last_row_faults()):
        digest.update(_parse_outcome(text).encode("utf-8") + b"\0")
    assert digest.hexdigest() == PARSE_OUTCOME_SHA256


def test_parse_reads_int_coordinates_as_floats():
    net = parse(_doc(vertices=[
        {"id": "a", "x": 0, "y": -3, "kind": "unbalanced"},
        {"id": "b", "x": 1.5, "y": 10**20, "kind": "unbalanced"},
    ]))
    assert [(v.pos.x, v.pos.y) for v in net.vertices] == [(0.0, -3.0), (1.5, 1e20)]
    assert all(type(c) is float for v in net.vertices for c in (v.pos.x, v.pos.y))


def test_parse_rejects_non_finite_coordinates():
    text = _doc(
        vertices=[
            {"id": "a", "x": float("nan"), "y": 0.0, "kind": "unbalanced"},
            {"id": "b", "x": 1.0, "y": 0.0, "kind": "unbalanced"},
        ]
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "finite" in str(err.value)


def test_parse_enforces_net_invariants():
    dup = _doc(edges=[["a", "b"], ["b", "a"]])
    with pytest.raises(InvariantViolation):
        parse(dup)
    ghost = _doc(edges=[["a", "zz"]])
    with pytest.raises(InvariantViolation):
        parse(ghost)


# --- rendering ---------------------------------------------------------------

def test_render_counts(paper_net):
    svg = render_svg(paper_net)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<line ") == 44
    assert svg.count("<circle ") == 20
    assert svg.count("<text ") == 0


# sha256 over render_svg of paper16, overlay, a Fermat tripod and a honeycomb,
# each plain, with labels and with five highlighted edges.
RENDER_SHA256 = "cc4a061624bb2291f16f3be9ca497f9ca326bc0c5b1eaeaba1f3188282f753c2"


def test_render_bytes_are_pinned(paper_net, overlay_net):
    tripod = build_fermat_tripod(Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)))
    digest = hashlib.sha256()
    for net in (paper_net, overlay_net, tripod, honeycomb(8, 6)):
        # every other edge given as (v, u), which render_svg must match too
        picked = [net.edges[k % len(net.edges)] for k in (0, 2, 3, 5, 8)]
        highlight = [e[::-1] if k % 2 else e for k, e in enumerate(picked)]
        for options in ({}, {"show_labels": True}, {"highlight": highlight}):
            digest.update(render_svg(net, **options).encode("utf-8"))
    assert digest.hexdigest() == RENDER_SHA256


def test_render_rejects_a_width_below_one_or_not_an_int(paper_net):
    for width in (0, -10, True, 2.5, 800.0, "800", None):
        with pytest.raises(ValueError, match="width must be an integer >= 1"):
            render_svg(paper_net, width=width)
    assert 'width="1" ' in render_svg(paper_net, width=1)


def test_render_is_deterministic(paper_net):
    assert render_svg(paper_net) == render_svg(paper_net)
    assert render_svg(paper_net, highlight=()) == render_svg(paper_net)


def test_render_highlight(paper_net):
    marked = [paper_net.edges[0], paper_net.edges[7]]
    svg = render_svg(paper_net, highlight=marked)
    assert svg.count('stroke="#c0392b"') == 2
    plain = render_svg(paper_net)
    assert plain.count('stroke="#c0392b"') == 0


@pytest.mark.parametrize("row", ["af", ("a", "f", "b"), ("a", ["f"]), ("f", 1), (1, "f")],
                         ids=["two-char-str", "three-ids", "list-endpoint", "str-int", "int-str"])
def test_render_refuses_a_highlight_row_that_is_not_a_pair(row):
    # as Net does: "af" is not read as the edge a-f
    message = re.escape(f"edge row {row!r} is not a pair of vertex ids")
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        render_svg(small_net(), highlight=[("b", "f"), row])
    assert render_svg(small_net(), highlight=[("f", "a")]).count('stroke="#c0392b"') == 1


def test_render_labels(paper_net):
    svg = render_svg(paper_net, show_labels=True)
    assert svg.count("<text ") == 20
    assert ">a1</text>" in svg


def test_render_labels_escape_markup():
    net = Net(
        vertices=(
            Vertex("a<&", Point(0.0, 0.0), U),
            Vertex("b", Point(1.0, 0.0), U, "x & y"),
            Vertex("f", Point(0.5, 0.5), B, "<m>"),
        ),
        edges=(("a<&", "f"), ("f", "b")),
    )
    root = ET.fromstring(render_svg(net, show_labels=True))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["a<&", "x & y", "<m>"]


def test_render_distinguishes_vertex_kinds():
    svg = render_svg(small_net())
    assert svg.count('r="6.0"') == 3  # pins
    assert svg.count('r="3.0"') == 1  # the one balanced vertex
