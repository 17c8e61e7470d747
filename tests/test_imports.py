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
    """Public top-level functions and classes, and public methods and
    properties of top-level classes, of the modules in ``sources`` (file
    name -> source) that no module reads as a name or an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    defs = []  # (label, name)
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{file}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{file}:{node.name}.{member.name}", member.name)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                ]
    return sorted(label for label, name in defs if not name.startswith("_") and name not in referenced)


def test_detects_unreferenced_public_def():
    srcs = {
        "a.py": "def used():\n    pass\ndef orphan():\n    pass\nclass _Private:\n    pass\n",
        "b.py": "from .a import used, orphan\nclass Kept:\n    pass\nused()\nx = Kept\n",
    }
    assert unreferenced_public_defs(srcs) == ["a.py:orphan"]


def test_detects_unreferenced_public_method_and_property():
    srcs = {
        "a.py": (
            "class C:\n"
            "    def __init__(self):\n        self._x = 0\n"
            "    def called(self):\n        return self.size\n"
            "    def orphan(self):\n        pass\n"
            "    def _helper(self):\n        pass\n"
            "    @property\n    def size(self):\n        return 1\n"
            "    @property\n    def unread(self):\n        return 2\n"
        ),
        "b.py": "from .a import C\nC().called()\n",
    }
    assert unreferenced_public_defs(srcs) == ["a.py:C.orphan", "a.py:C.unread"]


def test_every_public_def_has_a_caller_in_the_package():
    # public API that only tests call is test code: it belongs in tests/
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_defs(sources) == []


def _params(fn: ast.FunctionDef, method: bool):
    """Positional parameter names (without self/cls of a method) and the
    names of the defaulted ones."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    defaulted = positional[len(positional) - len(fn.args.defaults) :]
    defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]
    return positional, defaulted


def unpassed_defaults(sources: dict, exempt=()) -> list:
    """Defaulted parameters of the functions and methods in ``sources``
    (file name -> source) that no call in them passes.  A call is matched by
    the name it calls (``Class(...)`` calls ``__init__``), positionally or by
    keyword; a call with ``*args`` or ``**kwargs`` passes everything."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defs = []  # (label, name, positional, defaulted)
    classes = set()
    for file, tree in trees.items():
        stem = file.removesuffix(".py")

        def visit(node, prefix, method):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    classes.add(child.name)
                    visit(child, f"{prefix}{child.name}.", True)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    positional, defaulted = _params(child, method)
                    if defaulted:
                        defs.append((f"{prefix}{child.name}", child.name, positional, defaulted))
                    visit(child, f"{prefix}{child.name}.", False)

        visit(tree, f"{stem}.", False)

    passed: dict = {}
    for tree in trees.values():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in classes:
                name = "__init__"
            splat = any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords)
            passed.setdefault(name, []).append((len(call.args), {k.arg for k in call.keywords}, splat))

    missing = []
    for label, name, positional, defaulted in defs:
        if label in exempt:
            continue
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            if not any(
                splat or param in keywords or (index is not None and n_args > index)
                for n_args, keywords, splat in passed.get(name, [])
            ):
                missing.append(f"{label}({param})")
    return sorted(missing)


def test_detects_unpassed_default():
    srcs = {
        "a.py": (
            "def f(x, y=1, *, z=2):\n    pass\n"
            "class C:\n    def __init__(self, v=0):\n        pass\n"
            "    def m(self, w=3):\n        pass\n"
        ),
        "b.py": "from .a import f, C\nf(1, z=3)\nC(5)\nC().m()\n",
    }
    assert unpassed_defaults(srcs) == ["a.C.m(w)", "a.f(y)"]


def test_every_default_is_passed_by_the_package():
    # a default that no caller overrides is a setting nothing uses; the
    # command-line entry point's argv is left to its external callers
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unpassed_defaults(sources, exempt={"cli.main"}) == []
