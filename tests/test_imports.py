import ast
import pathlib

import geonets

SRC = pathlib.Path(geonets.__file__).parent


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
            # string annotations such as "NetArrays", and __all__ entries
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
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
