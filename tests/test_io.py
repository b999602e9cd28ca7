import json
import xml.etree.ElementTree as ET

import pytest

from geonets import (
    FORMAT_VERSION,
    InvariantViolation,
    Net,
    ParseError,
    Point,
    Vertex,
    VertexKind,
    edge_key,
    load,
    parse,
    render_svg,
    save,
    serialize,
)

B = VertexKind.BALANCED
U = VertexKind.UNBALANCED


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


def test_render_is_deterministic(paper_net):
    assert render_svg(paper_net) == render_svg(paper_net)
    assert render_svg(paper_net, highlight=()) == render_svg(paper_net)


def test_render_highlight(paper_net):
    marked = [paper_net.edges[0], paper_net.edges[7]]
    svg = render_svg(paper_net, highlight=marked)
    assert svg.count('stroke="#c0392b"') == 2
    plain = render_svg(paper_net)
    assert plain.count('stroke="#c0392b"') == 0


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
