"""Public surface: every exported name resolves, and so does every name the
benchmark's tracer wraps, so deleting one fails here before a traced run."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import scatterwalk

MODULES = sorted(info.name for info in pkgutil.iter_modules(scatterwalk.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """The TRACED tuple of perfbench/tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"scatterwalk.{module}" if module else "scatterwalk")
    assert mod.__all__, f"{mod.__name__} exports nothing"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


def test_every_traced_name_resolves():
    missing = []
    for qualified in traced_names():
        module, attr = qualified.split(".")
        if not hasattr(importlib.import_module(f"scatterwalk.{module}"), attr):
            missing.append(qualified)
    assert not missing, f"perfbench/tracer.py traces names that do not exist: {missing}"
