"""The engine loads without the reference layer.

``purpose_audit`` and its CLI import only the engine (parsing, validation,
solving, auditing). The brute-force oracle, the non-redundancy definition
and the trace order are imported by module path, by the tests and by
``purpose-audit oracle``. Each check runs in a fresh interpreter, since this
test session has imported the reference layer already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_LAYER = ("oracle", "nonredundancy", "traces")
NOT_EXPORTED = ("OracleOptions", "precedes", "simulate")

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


def test_fixtures_are_document_text():
    # Helpers that build models or strategies from the examples belong to the
    # tests (conftest.py), not to the installed package.
    from purpose_audit import fixtures

    assert not [
        name for name, value in vars(fixtures).items()
        if callable(value) and not name.startswith("__")
    ]
