import ast
import pathlib

import geonets

SRC = pathlib.Path(geonets.__file__).parent


def _names_in_string(text):
    """Names in a string that parses as an expression: string annotations
    such as "NetArrays", and __all__ entries."""
    try:
        return {n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}
    except SyntaxError:
        return set()


def _unused_imports(tree):
    """Names a module imports and never reads: not in any expression, any
    string annotation or its __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _names_in_string(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_a_stale_name():
    source = "import math\nfrom typing import List, Tuple\n__all__ = ['List']\nx: 'Tuple'\n"
    assert _unused_imports(ast.parse(source)) == [(1, "math")]


def test_no_module_imports_a_name_it_never_uses():
    stale = {
        path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in stale.items() if found} == {}


def _private_definitions(tree):
    """Module-level names that start with one underscore: functions,
    classes and assignment targets."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__")}


def _names_read(tree):
    """Names read as a variable, as an attribute (module._name) or in a
    string annotation."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read |= _names_in_string(node.value)
    return read


def _unread_private_names(sources):
    """(module, line, name) of each module-level _name that no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_names_read, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in _private_definitions(tree).items() if name not in read)


def test_unread_private_names_finds_dead_code():
    sources = {
        "a.py": "_LIMIT = 3\n_T: int = 0\ndef _used():\n    return _LIMIT\ndef _dead():\n    pass\n"
                "class _Box:\n    pass\n",
        "b.py": "from . import a\nx = a._used()\ny: '_Box'\n",
    }
    assert _unread_private_names(sources) == [("a.py", 2, "_T"), ("a.py", 5, "_dead")]


def test_every_private_module_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unread_private_names(sources) == []


# Import rank of each module: a module may import only modules of lower
# rank, so _kernels stays free of the net layer it serves.
RANKS = {
    "geom": 0, "_kernels": 1, "net": 2,
    "solver": 3, "irreducible": 3, "construct": 3, "docio": 3, "render": 3,
    "cli": 4, "__init__": 5,
}


def _geonets_imports(tree):
    """The geonets modules a module imports, from relative imports and
    absolute geonets ones; a name imported from the package itself counts
    as __init__ unless it is a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "geonets":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.add(inner[0])
            else:
                found |= {a.name if a.name in RANKS else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] if "." in a.name else "__init__"
                      for a in node.names if a.name.split(".")[0] == "geonets"}
    return found


def _layer_breaks(sources):
    """(module, imported module) for each import of a module whose rank is
    not lower than the importer's."""
    return sorted((module, dep) for module, text in sources.items()
                  for dep in _geonets_imports(ast.parse(text)) if RANKS[dep] >= RANKS[module])


def test_layer_breaks_finds_an_upward_import():
    sources = {
        "_kernels": "import numpy as np\nfrom .net import Net\n",
        "net": "from . import _kernels\nfrom .geom import Point\n",
        "solver": "from geonets import relax\nimport geonets.irreducible\n",
    }
    assert _layer_breaks(sources) == [("_kernels", "net"), ("solver", "__init__"), ("solver", "irreducible")]


def test_each_module_imports_only_lower_layers():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert set(sources) == set(RANKS)
    assert _layer_breaks(sources) == []


def _one_view_breaks(sources):
    """(module, line, what) of each Vertex(...) call and each read of an
    .arrays attribute outside Net.vertices, and of each read of .adjacency
    or .edges outside net.py: everywhere else a net is read through its
    columns. No module is exempt."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        exempt = {id(node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name == "Net"
                  for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "vertices"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Call) and "Vertex" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                found.append((module, node.lineno, "Vertex("))
            elif isinstance(node, ast.Attribute) and node.attr == "arrays":
                found.append((module, node.lineno, ".arrays"))
            elif isinstance(node, ast.Attribute) and node.attr == "adjacency" and module != "net.py":
                found.append((module, node.lineno, ".adjacency"))
            elif isinstance(node, ast.Attribute) and node.attr == "edges" and module != "net.py":
                found.append((module, node.lineno, ".edges"))
    return sorted(found)


def test_one_view_breaks_finds_vertex_round_trips():
    sources = {
        "net.py": "class Net:\n    def vertices(self):\n        return (Vertex(1),)\n"
                  "def moved(net):\n    return Net([Vertex(2)], net.arrays.edges)\n"
                  "def degree(net, v):\n    return len(net.adjacency[v])\n",
        "solver.py": "from . import net\nv = net.Vertex(3)\ndef degree(n, v):\n    return len(n.adjacency[v])\n"
                     "def size(n):\n    return len(n.edges)\n",
        "irreducible.py": "def witness(n, k):\n    return n.edges[k]\n",
        "construct.py": "v = Vertex(4)\n",
    }
    assert _one_view_breaks(sources) == [
        ("construct.py", 1, "Vertex("), ("irreducible.py", 2, ".edges"), ("net.py", 5, ".arrays"),
        ("net.py", 5, "Vertex("), ("solver.py", 2, "Vertex("), ("solver.py", 4, ".adjacency"),
        ("solver.py", 6, ".edges"),
    ]


def test_nets_are_read_through_their_columns():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _one_view_breaks(sources) == []
