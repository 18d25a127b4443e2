"""The benchmark's tracer wraps library functions by (module, attribute)
name and fails on a name that no longer exists.  Check every name it lists
against the library, so that a refactor which renames one fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library only
    return module


def _targets() -> list[tuple[str, str]]:
    tracing = _load_tracing()
    pairs = [(module, attr) for _, module, attr in tracing.SPANS + tracing.COUNTS]
    return sorted(set(pairs) | set(tracing.DERIVED))


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
