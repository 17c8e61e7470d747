import ast
from pathlib import Path

import pytest

import pffrac.driver
from conftest import load_tracing

SRC = Path(__file__).resolve().parents[1] / "src" / "pffrac"
TESTS = Path(__file__).resolve().parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(SCRIPTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def unreferenced_public_defs(sources: dict) -> list:
    """Public top-level functions and classes, and public methods and
    properties of top-level classes, of the modules in ``sources`` (file
    name -> source) that no module reads as a name or an attribute; and
    public fields of top-level dataclasses that no module reads as an
    attribute (setting one, or passing it to the constructor, is no read)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced, read_attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read_attrs.add(node.attr)
    defs = []  # (label, name, names that count as a read)
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{file}:{node.name}", node.name, referenced))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{file}:{node.name}.{member.name}", member.name, referenced)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                ]
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                defs += [
                    (f"{file}:{node.name}.{member.target.id}", member.target.id, read_attrs)
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                ]
    return sorted(label for label, name, reads in defs if not name.startswith("_") and name not in reads)


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


def test_detects_unread_dataclass_field():
    srcs = {
        "a.py": (
            "from dataclasses import dataclass, field\n"
            "@dataclass\nclass R:\n    read: int\n    unread: int\n    stored: int = 0\n"
            "    _own: int = 0\n    trace: list = field(default_factory=list)\n"
            "@dataclass(frozen=True)\nclass F:\n    kept: int\n    lost: int\n"
            "class Plain:\n    attr: int = 0\n"
        ),
        "b.py": (
            "from .a import F, Plain, R\n"
            "unread = 1\n"
            "r = R(read=1, unread=unread)\n"
            "r.stored = 2\n"
            "f = F(1, 2)\n"
            "print(r.read, r.trace, f.kept, Plain)\n"
        ),
    }
    assert unreferenced_public_defs(srcs) == ["a.py:F.lost", "a.py:R.stored", "a.py:R.unread"]


# Fields that no package code reads but that stay, with the reason.
_UNREAD_FIELDS_KEPT = {
    # the alternate-minimisation descent tests in tests/test_solver.py read
    # it, and the planned accelerated AM and its audit consume it
    "solver.py:AltResult.functional_trace",
}


def test_every_public_def_has_a_caller_in_the_package():
    # public API that only tests call is test code: it belongs in tests/
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_defs(sources) == sorted(_UNREAD_FIELDS_KEPT)


def unread_module_names(sources: dict) -> list:
    """Names, public or private, that module-level assignments of the
    modules in ``sources`` (file name -> source) bind and that no module
    reads as a name or an attribute (listing one in ``__all__``, or
    assigning it again, is no read)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            unread += [f"{file}:{name}" for name in names if name != "__all__" and name not in read]
    return sorted(unread)


def test_detects_unread_module_name():
    srcs = {
        "a.py": (
            "__all__ = ['LIMIT', 'SPARE']\n"
            "LIMIT = 1\nSPARE = 2\n_RTOL = 1e-8\n_F, _G = 3, 4\n_kept: int = 5\n"
            "def f():\n    return _F + _kept\n"
        ),
        "b.py": "from . import a\nprint(a.LIMIT)\n_RTOL = 0\n",
    }
    assert unread_module_names(srcs) == ["a.py:SPARE", "a.py:_G", "a.py:_RTOL", "b.py:_RTOL"]


def test_every_module_name_is_read_in_the_package():
    # a constant or a fetched function that nothing reads is left behind by
    # a deleted path
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_module_names(sources) == []


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


def unused_test_helpers(sources: dict, helpers) -> list:
    """Top-level functions and classes, fixtures too, of the ``helpers``
    modules in ``sources`` (file name -> source) that nothing outside their
    own definition reads as a name or an attribute or takes as a
    parameter: no other module of ``sources``, and no other top-level
    statement of their own module."""

    def named(nodes) -> set:
        names = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
        return names

    trees = {name: ast.parse(text) for name, text in sources.items()}
    elsewhere = {file: named(n for f, t in trees.items() if f != file for n in t.body) for file in helpers}
    unused = []
    for file in helpers:
        body = trees[file].body
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in elsewhere[file] | named(
                n for n in body if n is not node
            ):
                unused.append(f"{file}:{node.name}")
    return sorted(unused)


def test_detects_unused_test_helper():
    # grid is taken as a parameter, oracle read as a name and Fake as an
    # attribute elsewhere, and inner by another helper of its own module;
    # spare and writer have no user
    srcs = {
        "helpers.py": (
            "import pytest\n@pytest.fixture\ndef grid():\n    return 1\n"
            "@pytest.fixture\ndef spare():\n    return 2\n"
            "def oracle(x):\n    return x\ndef inner(x):\n    return x\ndef writer(x):\n    return inner(x)\n"
            "class Fake:\n    pass\n"
        ),
        "test_a.py": "from helpers import oracle\nimport helpers\ndef test_a(grid):\n    assert oracle(grid) == 1\n",
        "test_b.py": "def test_b():\n    assert helpers.Fake\n",
    }
    assert unused_test_helpers(srcs, ["helpers.py"]) == ["helpers.py:spare", "helpers.py:writer"]


def test_every_test_helper_has_a_user():
    # a helper of a deleted test is left behind with it
    sources = {p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert unused_test_helpers(sources, ["conftest.py", "oracles.py"]) == []


# The names that state the damage regularisation law, and the modules
# besides material.py that may name each: the law's constructors AT1 and
# AT2 and the constants gc, kappa and ell it is made of.  presets.py sizes
# meshes from the internal length ell.
_LAW_NAMES = {"AT1": (), "AT2": (), "gc": (), "kappa": (), "ell": ("presets.py",)}


def regularisation_leaks(sources: dict) -> list:
    """Where modules of ``sources`` (file name -> source) other than
    ``material.py`` know the damage regularisation law that
    ``MaterialParams`` states: an import, or an attribute, named by
    ``_LAW_NAMES`` outside the modules it allows."""
    leaks = []
    for file, text in sources.items():
        if file == "material.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            leaks += [
                f"{file}:{node.lineno} {name}"
                for name in names
                if name in _LAW_NAMES and file not in _LAW_NAMES[name]
            ]
    return sorted(leaks)


def test_detects_regularisation_leak():
    srcs = {
        "material.py": "AT2 = 'AT2'\nclass P:\n    def c(self):\n        return self.gc / self.ell\n",
        "fem.py": "from .material import AT2, P\ndef r(p):\n    return p.kappa * p.grad_coeff\n",
        "presets.py": "def mesh(p):\n    return p.ell, p.gc\n",
        "cli.py": "from . import material\ndef f(p, rec):\n    return material.AT1, p.ell, rec.dissipation\n",
    }
    assert regularisation_leaks(srcs) == [
        "cli.py:3 AT1", "cli.py:3 ell", "fem.py:1 AT2", "fem.py:3 kappa", "presets.py:2 gc"
    ]


def test_regularisation_law_is_stated_once():
    # AT1/AT2 and the constants of the law are material.py's: the energies,
    # the merits and the damage system read it through
    # MaterialParams.dissipation_law and .grad_coeff
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert regularisation_leaks(sources) == []


# The fields of the program's Dirichlet specs, which only driver.py reads.
_DIRICHLET_NAMES = {"bcs", "node_set", "component"}


def dirichlet_readers(sources: dict) -> list:
    """Where modules of ``sources`` (file name -> source) other than
    ``driver.py`` read the program's Dirichlet specs: an attribute read of
    a name in ``_DIRICHLET_NAMES``."""
    reads = []
    for file, text in sources.items():
        if file == "driver.py":
            continue
        reads += [
            f"{file}:{node.lineno} {node.attr}"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in _DIRICHLET_NAMES
        ]
    return sorted(reads)


def test_detects_dirichlet_reader():
    srcs = {
        "driver.py": "def build(mesh, program):\n    return [(bc.node_set, bc.component) for bc in program.bcs]\n",
        "cli.py": "def f(setup):\n    return len(setup.program.bcs)\n",
        "fem.py": "def g(spec, specs):\n    spec.component = 0\n    return specs[0].node_set, spec.components\n",
    }
    assert dirichlet_readers(srcs) == ["cli.py:2 bcs", "fem.py:3 node_set"]


def test_only_the_driver_reads_the_dirichlet_specs():
    # driver.build_dofmap is the one walk over the specs: every other layer
    # reads their free mask and load vector from its DofMap
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dirichlet_readers(sources) == []


# The matrix types, and the modules that may name them: fem assembles the
# tangents and linsolve eliminates, factors and solves them.
_MATRIX_NAMES = {"UpperMatrix", "BandFactor"}
_MATRIX_MODULES = {"fem.py", "linsolve.py"}


def matrix_type_uses(sources: dict) -> list:
    """Where modules of ``sources`` (file name -> source) other than
    ``_MATRIX_MODULES`` name a type of ``_MATRIX_NAMES``: as an import, a
    name or an attribute."""
    uses = []
    for file, text in sources.items():
        if file in _MATRIX_MODULES:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            uses += [f"{file}:{node.lineno} {name}" for name in names if name in _MATRIX_NAMES]
    return sorted(uses)


def test_detects_matrix_type_use():
    srcs = {
        "fem.py": "from .linsolve import UpperMatrix\ndef f(v, o):\n    return UpperMatrix(v, o)\n",
        "linsolve.py": "class BandFactor:\n    pass\nclass UpperMatrix:\n    pass\n",
        "solver.py": (
            "from .linsolve import UpperMatrix, factor_solve\n"
            "def g(t):\n    return UpperMatrix(t.values.copy(), t.ordering)\n"
        ),
        "driver.py": "from . import linsolve\ndef h(f):\n    return isinstance(f, linsolve.BandFactor), f.matrix\n",
    }
    assert matrix_type_uses(srcs) == [
        "driver.py:3 BandFactor", "solver.py:1 UpperMatrix", "solver.py:3 UpperMatrix"
    ]


def test_only_fem_and_linsolve_form_matrices():
    # fem assembles each tangent and linsolve eliminates, factors and
    # solves it: no other layer forms or changes a matrix
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert matrix_type_uses(sources) == []


# The numpy.linalg names the package may use: none is a dense LAPACK
# factorisation or inverse.  linsolve's banded Cholesky is the one solve.
_LINALG_KEPT = {"norm"}


def dense_linalg_uses(sources: dict) -> list:
    """Where modules of ``sources`` (file name -> source) use a
    ``numpy.linalg`` name outside ``_LINALG_KEPT``: an attribute
    ``np.linalg.<name>`` or ``numpy.linalg.<name>``, an import from
    ``numpy.linalg``, or an import of ``linalg`` from numpy."""
    uses = []
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
                names = [alias.name for alias in node.names if node.module == "numpy.linalg" or alias.name == "linalg"]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")
            ):
                names = [node.attr]
            else:
                continue
            uses += [f"{file}:{node.lineno} {name}" for name in names if name not in _LINALG_KEPT]
    return sorted(uses)


def test_detects_dense_linalg_use():
    srcs = {
        "fem.py": "import numpy as np\ndef f(j):\n    return np.linalg.inv(j), np.linalg.norm(j)\n",
        "material.py": "import numpy\nfrom numpy.linalg import eigh, norm\ndef g(a):\n    return numpy.linalg.det(a)\n",
        "linsolve.py": "import scipy.linalg as sla\nfrom numpy import linalg, zeros\ndef h(a):\n    return sla.eigh(a)\n",
    }
    assert dense_linalg_uses(srcs) == ["fem.py:3 inv", "linsolve.py:2 linalg", "material.py:2 eigh", "material.py:4 det"]


def test_no_dense_linalg_in_the_package():
    # element kernels are in closed form and the spectral split is
    # analytic: no per-element LAPACK call, and the only factorisation is
    # linsolve's banded Cholesky
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dense_linalg_uses(sources) == []


def float32_uses(sources: dict) -> list:
    """Where modules of ``sources`` (file name -> source) other than
    ``linsolve.py`` name float32: as an import, a name, an attribute or a
    string that is a dtype name."""
    uses = []
    for file, text in sources.items():
        if file == "linsolve.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            uses += [f"{file}:{node.lineno}" for name in names if name == "float32"]
    return sorted(uses)


def test_detects_float32_use():
    srcs = {
        "linsolve.py": "import numpy as np\nSINGLE = np.float32\n",
        "fem.py": "import numpy as np\ndef f(v):\n    return v.astype(np.float32)\n",
        "solver.py": "from numpy import float32\n\"\"\"A float32 band refines.\"\"\"\nx = float32(1)\n",
        "cli.py": "def g(v):\n    return v.astype('float32'), v.dtype.name\n",
    }
    assert float32_uses(srcs) == ["cli.py:2", "fem.py:3", "solver.py:1", "solver.py:3"]


def test_precision_is_linsolves_alone():
    # linsolve's BandOrdering fixes each band's precision; every other
    # layer assembles, stores and reads float64 only
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert float32_uses(sources) == []


# The benchmark's span targets that name what the program no longer has.
# ROADMAP item 1 retargets them, and then empties this list.
STALE_TRACING_TARGETS = [
    "pffrac.fem.psi_split",
    "pffrac.linsolve.spla.splu",
    "pffrac.solver.element_psi_split",
    "pffrac.solver.erg",
    "pffrac.solver.total_functional",
]


def test_benchmark_hooks_resolve():
    # the benchmark wraps each target under the name its caller looks up,
    # and ends a job's set-up at its first call of driver.alternate_minimize;
    # a deletion that makes another target stale fails here
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
    finally:
        tracer.uninstall()
    assert sorted(tracer.missing) == STALE_TRACING_TARGETS
    assert callable(pffrac.driver.alternate_minimize)
