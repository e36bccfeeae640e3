"""The functions that the benchmark's tracer wraps exist under their names.

``perfbench/tracing.py`` wraps ``purpose_audit`` functions by module
attribute name (its ``TARGETS``). A renamed or deleted function would
otherwise show up only as a "no function to trace" failure in a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The benchmark's own modules, imported here only to read TARGETS.
BENCH_MODULES = ("tracing", "gate", "workloads")


def _targets() -> list[tuple[str, str]]:
    saved_path, saved_bytecode = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        targets = importlib.import_module("tracing").TARGETS
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    return [(module, name) for module, names in targets.items() for name in names]


TARGETS = _targets()


def test_targets_listed():
    assert ("auditing", "audit") in TARGETS
    assert ("solve", "solve_optimal") in TARGETS


@pytest.mark.parametrize("module, name", TARGETS)
def test_target_exists(module, name):
    holder = importlib.import_module(f"purpose_audit.{module}")
    assert callable(getattr(holder, name, None)), f"{module}.{name} is gone"
