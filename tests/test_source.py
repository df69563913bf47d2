"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

import pytest

import combtwin

PACKAGE = sorted(Path(combtwin.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references (__future__ aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_finder_flags_only_unreferenced_names():
    src = "import os, os.path\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(c)\n"
    assert unused_imports(src) == ["os (line 1)", "a (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level _-prefixed functions (dunders aside) whose name no
    module of sources references, as a name or as an attribute."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return [
        f"{module}.{node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]


def test_private_function_finder_flags_only_unreferenced_names():
    a = "def _f(): pass\ndef _g(): pass\ndef _h(): pass\ndef __x__(): pass\ndef f(): return _f\n"
    b = "import a\nfrom a import f\nf(a._g)\nclass C:\n    def _m(self): pass\n"
    assert unreferenced_private_functions({"a": a, "b": b}) == ["a._h (line 3)"]


def test_every_private_function_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private_functions(sources) == []
