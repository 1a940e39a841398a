"""The package has no runtime dependency beyond the standard library, and
its syntax parses as Python 3.10, the oldest version ``pyproject.toml``
allows.  The 3.10 check is ``ast.parse`` with ``feature_version``: syntax
only, best effort, and no check of the standard-library API used."""

import ast
import re
import sys
from pathlib import Path

import pytest

import h14

MODULES = sorted(Path(h14.__file__).parent.rglob("*.py"))


def imports(path):
    """(level, dotted name) of every import statement in the module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "intersect.py", "linalg.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_package_relative_or_stdlib(path):
    for level, name in imports(path):
        top = name.partition(".")[0]
        assert level or top == "h14" or top in sys.stdlib_module_names, f"{path.name} imports {name}"


@pytest.mark.parametrize("name", ["lattice.py", "monoid.py"])
def test_lattice_layer_is_integer_only(name):
    """``h14.lattice`` and ``h14.monoid`` work in integers alone: no
    ``Fraction`` and no rational elimination from ``h14.linalg``."""
    path = Path(h14.__file__).parent / name
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # module and imported names both count: ``from . import linalg`` too
            parts = {p for a in node.names for p in a.name.split(".")}
            if isinstance(node, ast.ImportFrom) and node.module:
                parts.update(node.module.split("."))
            assert not parts & {"fractions", "linalg"}, f"{name} imports {ast.unparse(node)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_syntax_parses_as_python_3_10(path):
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def unused_imports(tree):
    """Names bound by the module-level imports of ``tree`` and used nowhere
    in it (``from __future__`` binds no name)."""
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_caught():
    source = "from __future__ import annotations\nfrom .laurent import QQ, coeff_of\nimport os.path\n\nx = QQ\n"
    tree = ast.parse(source)
    assert unused_imports(tree) == ["coeff_of", "os"]


def true_divisions(tree):
    """(enclosing function, source) of every true division (``/``, ``/=``)
    in ``tree``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((func, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


# Every true division of the package, each with a Fraction operand.  Over Q
# an integral coefficient is an int, so an int / int elsewhere would make a
# float silently; a new division belongs here only with a Fraction operand.
DIVISIONS = {
    ("laurent.py", "inverse", "1 / Fraction(c)"),
    ("kuroda.py", "lemma31_find_p", "Fraction(3) / (1 - s)"),
}


def test_every_true_division_has_a_fraction_operand():
    found = {(path.name, func, source)
             for path in MODULES for func, source in true_divisions(ast.parse(path.read_text(), str(path)))}
    assert found == DIVISIONS


def test_true_division_is_caught():
    source = "def f(a, b):\n    a /= 2\n    return a // b + a / b\n\nx = 1 / 3\n"
    assert true_divisions(ast.parse(source)) == [("f", "a /= 2"), ("f", "a / b"), (None, "1 / 3")]


def unnamed_definitions(trees):
    """Top-level functions and classes, and non-dunder methods as
    ``Class.method``, defined in ``trees`` whose name no tree mentions: as a
    name, an attribute or an imported name for a function or class, as an
    attribute or an imported name for a method (a local variable of the same
    name does not call it)."""
    dunder = lambda name: name.startswith("__") and name.endswith("__")
    defined, names, members = set(), set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f"{node.name}.{m.name}" for m in node.body
                               if isinstance(m, ast.FunctionDef) and not dunder(m.name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, (ast.Attribute, ast.alias)):
                members.add(n.attr if isinstance(n, ast.Attribute) else n.name)
    return {name for name in defined
            if name.rpartition(".")[2] not in (members if "." in name else names | members)}


# Every definition of the package that no module of it names, with the reason
# it stays.  Dead code is deleted; a name belongs here only while perfbench
# calls or traces it (checked below).
UNNAMED = {
    "rational_nullspace": "Fraction oracle that perfbench traces",
    "rational_solve": "Fraction oracle that perfbench traces",
    "freeness_coset_check": "coset sweep oracle of the freeness certificate; perfbench traces it",
    "build_f0": "expansion oracle of f0_is_polynomial; perfbench traces it",
    "kernel_degree_basis": "entry point of a perfbench job",
    "monomial_membership": "entry point of a perfbench job",
    "apply_E": "called and traced by perfbench's leibniz jobs",
}

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_unnamed_definition_is_allowed():
    found = unnamed_definitions(ast.parse(path.read_text(), str(path)) for path in MODULES)
    assert found == set(UNNAMED)


@pytest.mark.parametrize("name", sorted(UNNAMED))
def test_every_allowed_definition_is_used_by_perfbench(name):
    text = "".join((PERFBENCH / f).read_text() for f in ("tracing.py", "workloads.py"))
    assert re.search(rf"\b{name.rpartition('.')[2]}\b", text), f"{name} is not named in perfbench"


def test_unnamed_definition_is_caught():
    source = ("def used():\n    return 1\n\ndef dead():\n    h = used()\n    return h\n\n"
              "class C:\n    def __init__(self):\n        self.f()\n\n    def f(self):\n        pass\n\n"
              "    def g(self):\n        pass\n\n    def h(self):\n        pass\n\nc = C()\n")
    assert unnamed_definitions([ast.parse(source)]) == {"dead", "C.g", "C.h"}
