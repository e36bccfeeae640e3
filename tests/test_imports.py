"""No module of the package imports a name it never uses, and no private
module-level name goes unread.

A deletion can leave an import behind that nothing reads, or a private
helper that nothing calls, and no linter runs in the test suite to catch
either. The one allowance is ``modelfile``'s documented re-export of the
literal caps that bound its format.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "purpose_audit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
SOURCES = sorted(PACKAGE.parent.rglob("*.py"))
RE_EXPORTS = {"modelfile": {"MAX_LITERAL_DIGITS", "MAX_LITERAL_EXPONENT"}}


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
    return {
        name
        for name in names
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


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
