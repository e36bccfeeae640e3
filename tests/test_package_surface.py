"""The engine and the reference layer stay apart.

``purpose_audit`` and its CLI import only the engine (parsing, validation,
solving, auditing). The brute-force oracle, the non-redundancy definition
and the trace order are imported by module path, by the tests and by
``purpose-audit oracle``. Each load check runs in a fresh interpreter, since
this test session has imported the reference layer already. The reference
layer in turn re-derives from the definitions, so of the package it imports
only the model, the errors and its own modules: never the solver or the
audit, and never the package root, which re-exports both.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "purpose_audit"
REFERENCE_LAYER = ("oracle", "nonredundancy", "traces")
# All that the reference layer may import, besides the standard library.
REFERENCE_MAY_IMPORT = {
    f"{PACKAGE}.{name}" for name in ("model", "errors", *REFERENCE_LAYER)
}
NOT_EXPORTED = (
    "OracleOptions", "precedes", "simulate", "format_model_document", "format_log"
)

PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
import purpose_audit
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("purpose_audit.")),
    "exported": sorted(vars(purpose_audit)),
}))
"""


@pytest.mark.parametrize("module", ["purpose_audit", "purpose_audit.cli"])
def test_import_loads_no_reference_layer(module):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, module],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    probe = json.loads(result.stdout)
    for name in REFERENCE_LAYER:
        assert f"purpose_audit.{name}" not in probe["loaded"]
    for name in NOT_EXPORTED:
        assert name not in probe["exported"]


def imported_modules(source: str) -> set[str]:
    """Every module the source imports: a package module by its full name, the
    package root for a name taken from it that is not a module, and any other
    module by its top-level name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"{PACKAGE}.{module}".rstrip(".")
            if module != PACKAGE:
                names.add(module)
                continue
            for a in node.names:
                is_module = (SRC / PACKAGE / f"{a.name}.py").exists()
                names.add(f"{PACKAGE}.{a.name}" if is_module else PACKAGE)
    return {
        name if name.split(".")[0] == PACKAGE else name.split(".")[0]
        for name in names
    }


def forbidden_imports(source: str) -> set[str]:
    """The modules the source imports that the reference layer may not."""
    return {
        name
        for name in imported_modules(source)
        if name not in REFERENCE_MAY_IMPORT and name not in sys.stdlib_module_names
    }


def test_detects_a_package_import():
    source = "from .solve import x\nfrom . import auditing\nimport purpose_audit.model\n"
    assert imported_modules(source) == {
        "purpose_audit.solve", "purpose_audit.auditing", "purpose_audit.model"
    }


@pytest.mark.parametrize(
    "source",
    ["from purpose_audit import evaluate_strategy\n", "import purpose_audit\n"],
)
def test_detects_the_package_root(source):
    # The root re-exports the solver and the audit under their own names.
    assert imported_modules(source) == {"purpose_audit"}
    assert forbidden_imports(source) == {"purpose_audit"}


def test_allows_model_errors_its_own_modules_and_the_standard_library():
    source = (
        "from __future__ import annotations\nimport os.path\n"
        "from collections.abc import Mapping\nfrom .model import NOTHING\n"
        "from . import errors\nfrom purpose_audit.traces import simulate\n"
    )
    assert not forbidden_imports(source)
    assert forbidden_imports(source + "from . import solve\nimport numpy\n") == {
        "purpose_audit.solve", "numpy"
    }


@pytest.mark.parametrize("module", REFERENCE_LAYER)
def test_reference_layer_uses_no_engine_shortcut(module):
    source = (SRC / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert not forbidden_imports(source)


def test_fixtures_are_document_text():
    # Helpers that build models or strategies from the examples belong to the
    # tests (conftest.py), not to the installed package.
    from purpose_audit import fixtures

    assert not [
        name for name, value in vars(fixtures).items()
        if callable(value) and not name.startswith("__")
    ]


# The functions the benchmark's tracing wraps by name to time decisions and
# policy lifts; a CLI that decided through a private function would leave
# those spans and their counts at 0.
DECISION_ENTRY_POINTS = {"audit", "check_restrictive", "check_prohibitive", "triage"}


def test_cli_decides_through_the_public_entry_points():
    tree = ast.parse((SRC / "purpose_audit" / "cli.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    from_auditing = {name for module, name in imported if module == "auditing"}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    # Importing the module itself would give it every private name.
    assert (None, "auditing") not in imported
    assert not [name for name in from_auditing if name.startswith("_")]
    assert DECISION_ENTRY_POINTS <= from_auditing & read
