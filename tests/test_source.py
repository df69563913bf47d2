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


def _modules(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def _function_imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, module) of each import inside a module-level function or
    method, nested ones included."""
    functions = [
        node
        for parent in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
        for node in parent.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return [(f.name, m) for f in functions for m in _modules(ast.walk(f))]


def repeated_imports(source: str) -> list[str]:
    """Imports inside a function (nested ones included) from a module the
    file already imports from at top level, as `function (module)`."""
    tree = ast.parse(source)
    top = set(_modules(tree.body))
    return [f"{f} ({m})" for f, m in _function_imports(tree) if m in top]


def package_imports_in_functions(source: str) -> list[str]:
    """Imports inside a function of a combtwin module (relative, or by the
    package name), as `function (module)`: with an acyclic import graph
    every module imports the package's modules at top level."""
    return [
        f"{f} ({m})"
        for f, m in _function_imports(ast.parse(source))
        if m.startswith(".") or m.split(".")[0] == "combtwin"
    ]


def test_repeated_import_finder_flags_only_modules_imported_at_top():
    src = (
        "import os\nfrom .a import x\nfrom . import b\n"
        "def f():\n    import os\n    from .a import y\n    from .c import z\n"
        "    def g():\n        from os import path\n"
        "class C:\n    def m(self):\n        from . import d\n        import json\n"
    )
    assert repeated_imports(src) == ["f (os)", "f (.a)", "f (os)", "m (.)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_repeats_a_top_level_import(path):
    assert repeated_imports(path.read_text(encoding="utf-8")) == []


def test_package_import_finder_flags_only_combtwin_modules():
    src = (
        "import os\nfrom . import a\n"
        "def f():\n    import json\n    from .b import x\n    from scipy.signal import welch\n"
        "    def g():\n        import combtwin.c\n"
        "class C:\n    def m(self):\n        from . import d\n"
    )
    assert package_imports_in_functions(src) == ["f (.b)", "f (combtwin.c)", "m (.)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_imports_a_combtwin_module(path):
    assert package_imports_in_functions(path.read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or one of its modules, at any depth."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if any(m.split(".")[0] == "scipy" for m in _modules([node]))
    )


def test_scipy_import_finder_flags_every_depth():
    src = (
        "import numpy, scipy\nfrom scipy.signal import welch\nfrom . import scipy_like\n"
        "def f():\n    import scipy.fft as fft\n    from .scipy import x\n"
    )
    assert scipy_imports(src) == [1, 2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy is the tests' oracle only; the package's PSDs are numpy code
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_public_names(sources: dict[str, str], entry_points=()) -> list[str]:
    """Public module-level functions and classes (`module.name`) whose name
    no module of sources references, as a name or as an attribute, other
    than __init__ (which re-exports them); entry_points are exempt."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    used = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and f"{module}.{node.name}" not in entry_points
    ]


# called from outside the package only: the console script, the float
# oracle (the tests' and the benchmark's), and the public reader of the
# package's own series CSV
ENTRY_POINTS = ("cli.main", "harness.float_oracle", "formats.series_from_csv")


def test_public_name_finder_flags_only_unreferenced_names():
    a = "def f(): pass\ndef g(): pass\nclass K: pass\ndef main(): pass\ndef _p(): pass\n"
    b = "from a import f\nimport a\nf(a.K)\n"
    init = "from .a import g\ng()\n"
    got = unreferenced_public_names({"a": a, "b": b, "__init__": init}, ("a.main",))
    assert got == ["a.g"]


def test_every_public_name_has_a_caller_in_the_package():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_public_names(sources, ENTRY_POINTS) == []


def test_config_codec_names_no_config_type():
    # formats derives the dictionary, the hash and config.ini from
    # dataclasses.fields alone, with no branch for a particular type
    tree = ast.parse((Path(combtwin.__file__).parent / "formats.py").read_text(encoding="utf-8"))
    assert "generator" not in {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"FilterSpec", "ToneConfig", "FxpValue", "FxpFormat", "AMPLITUDE_FORMAT"}


def clip_uses(source: str) -> list[int]:
    """Lines that name clip: np.clip, an array's .clip or an imported clip."""
    return sorted(
        n.lineno
        for n in ast.walk(ast.parse(source))
        if (isinstance(n, ast.Attribute) and n.attr == "clip")
        or (isinstance(n, ast.Name) and n.id == "clip")
    )


def test_clip_finder_flags_every_spelling():
    src = "from numpy import clip\nnp.clip(x, 0, 1)\nx.clip(0, 1)\nclip(x, 0, 1)\nclipped = 1\n"
    assert clip_uses(src) == [2, 3, 4]


def test_only_fxp_saturates():
    # every saturating narrowing goes through the one kernel, fxp.requantize
    saturating = {p.name for p in PACKAGE if clip_uses(p.read_text(encoding="utf-8"))}
    assert saturating == {"fxp.py"}
