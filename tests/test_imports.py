"""No module of the package imports a name it never uses, no private
module-level name or class member goes unread, and no engine module has a
public function, class or class member that only the tests read.

A deletion can leave an import behind that nothing reads, or a private
helper, method or field that nothing calls or reads, and no linter runs in
the test suite to catch either. A public member that nothing in the package
reads is a helper kept for the tests; the tests reach the same facts through
what the program does read. The allowances: ``modelfile``'s documented
re-export of the literal caps that bound its format, ``auditing.compute_fix``,
the paper's definition of the penalised model, which the benchmark's tracer
names and ``tests/test_bench_hooks.py`` checks, and the reference layer
(``oracle``, ``nonredundancy``, ``traces``), which exists for the tests and
may carry members only they read, such as ``Reference.tables``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "purpose_audit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
SOURCES = sorted(PACKAGE.parent.rglob("*.py"))
RE_EXPORTS = {"modelfile": {"MAX_LITERAL_DIGITS", "MAX_LITERAL_EXPONENT"}}
ENGINE = ("model", "solve", "auditing", "modelfile", "cli", "errors", "fixtures")
UNREAD_DEFINITIONS = {"auditing": {"compute_fix"}}


def unused_imports(source: str) -> set[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") == {"os", "a"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    unused -= RE_EXPORTS.get(path.stem, set())
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def private_definitions(source: str) -> set[str]:
    """Private names (``_name``, not dunders) that the module's top level
    defines: functions, classes and assigned constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return set(filter(is_private, names))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def reads(source: str) -> set[str]:
    """Names the source reads, as a ``Name`` or an ``Attribute`` it loads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_detects_an_unread_private_name():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f(): return _A\nclass _C: pass\ndef _g(): pass\n"
        "_D = None\nx = module._g\n_B = 3\n"
    )
    assert private_definitions(source) == {"_A", "_B", "_f", "_C", "_g", "_D"}
    assert private_definitions(source) - reads(source) == {"_B", "_f", "_C", "_D"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unread_private_name(path):
    read = set().union(*(reads(p.read_text(encoding="utf-8")) for p in SOURCES))
    unread = private_definitions(path.read_text(encoding="utf-8")) - read
    assert not unread, f"{path.name} defines {sorted(unread)} and nothing in src/ reads them"


def private_members(source: str) -> set[str]:
    """Private names that a class body defines: methods, properties and
    annotated fields."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign):
                    names.add(ast.unparse(item.target))
    return set(filter(is_private, names))


def attribute_reads(source: str) -> set[str]:
    """Attribute names the source loads; a keyword argument is not a read."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_detects_an_unread_private_member():
    source = (
        "class C:\n"
        "    _a: int = 0\n    _b: int\n    _c = 1\n    x: int\n"
        "    def _f(self): return self._a\n    def __len__(self): return 0\n"
        "    @property\n    def _p(self): return 1\n"
        "    def _g(self): pass\n"
        "_b = 2\nC(_b=_b)\nC()._g()\n"
    )
    assert private_members(source) == {"_a", "_b", "_f", "_p", "_g"}
    assert private_members(source) - attribute_reads(source) == {"_b", "_f", "_p"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unread_private_member(path):
    sources = (p.read_text(encoding="utf-8") for p in SOURCES)
    read = set().union(*map(attribute_reads, sources))
    unread = private_members(path.read_text(encoding="utf-8")) - read
    assert not unread, f"{path.name}: nothing in src/ reads members {sorted(unread)}"


def unread_public_members(source: str, namespace: dict, read: set[str]) -> set[str]:
    """``Class.name`` of each public method, property and annotated field
    that a class body of ``source`` defines and ``read`` does not name. A
    member that a base of the class object in ``namespace`` defines is an
    override, read wherever the base's callers call it."""
    unread = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = namespace[node.name].__mro__[1:]
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign):
                name = ast.unparse(item.target)
            else:
                continue
            if name.startswith("_") or name in read:
                continue
            if not any(name in vars(base) for base in bases):
                unread.add(f"{node.name}.{name}")
    return unread


def test_detects_an_unread_public_member():
    source = (
        "import argparse\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n    def extra(self): pass\n"
        "class C:\n"
        "    x: int = 0\n    y: int\n    _z: int\n    w = 1\n"
        "    def f(self): return self.x\n    def __len__(self): return 0\n"
        "    @property\n    def p(self): return 1\n"
        "    def g(self): pass\n"
        "def use(c): return C(y=2), c.g()\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    unread = unread_public_members(source, namespace, attribute_reads(source))
    assert unread == {"P.extra", "C.y", "C.f", "C.p"}


@pytest.mark.parametrize("module", ENGINE)
def test_no_unread_public_member(module):
    sources = (p.read_text(encoding="utf-8") for p in SOURCES)
    read = set().union(*map(attribute_reads, sources))
    namespace = vars(importlib.import_module(f"purpose_audit.{module}"))
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    unread = unread_public_members(source, namespace, read)
    assert not unread, f"{module}.py: nothing in src/ reads {sorted(unread)}"


def public_definitions(source: str) -> set[str]:
    """Public functions and classes that the module's top level defines."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def test_detects_an_unread_public_definition():
    source = (
        "X = 1\ndef f(): return g()\ndef g(): pass\ndef _h(): pass\n"
        "class C: pass\nclass D:\n    def m(self): pass\nD.m\n"
    )
    assert public_definitions(source) == {"f", "g", "C", "D"}
    assert public_definitions(source) - reads(source) == {"f", "C"}


@pytest.mark.parametrize("module", ENGINE)
def test_no_unread_public_definition(module):
    # The package root only re-exports; a name read nowhere else is unused.
    sources = (p for p in SOURCES if p != PACKAGE / "__init__.py")
    read = set().union(*(reads(p.read_text(encoding="utf-8")) for p in sources))
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    unread = public_definitions(source) - read - UNREAD_DEFINITIONS.get(module, set())
    assert not unread, f"{module}.py: nothing in src/ but __init__.py reads {sorted(unread)}"
