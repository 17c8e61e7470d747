import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pffrac"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never reads and
    does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | exported)


def test_detects_unused_import():
    src = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv)\n"
    assert unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_public_defs(sources: dict) -> list:
    """Public top-level functions and classes of the modules in ``sources``
    (file name -> source) that no module reads as a name or an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    )


def test_detects_unreferenced_public_def():
    srcs = {
        "a.py": "def used():\n    pass\ndef orphan():\n    pass\nclass _Private:\n    pass\n",
        "b.py": "from .a import used, orphan\nclass Kept:\n    pass\nused()\nx = Kept\n",
    }
    assert unreferenced_public_defs(srcs) == ["a.py:orphan"]


def test_every_public_def_has_a_caller_in_the_package():
    # public API that only tests call is test code: it belongs in tests/
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_defs(sources) == []
