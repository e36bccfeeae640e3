"""No module of the package imports a name it never uses.

A deletion can leave an import behind that nothing reads, and no linter
runs in the test suite to catch it. The one allowance is ``modelfile``'s
documented re-export of the literal caps that bound its format.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "purpose_audit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
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
