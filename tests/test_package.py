"""Package surface: every name a module lists in __all__ resolves, and so does
every function the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import willmore_lab

MODULES = ["willmore_lab"] + [f"willmore_lab.{info.name}" for info in pkgutil.iter_modules(willmore_lab.__path__)]
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_traced_layers_resolve(monkeypatch):
    # the traced benchmark wraps each LAYERS function; one deleted from the package
    # would break only that run, so its names are checked here (the file is only read)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = [(module, fn) for _, module, fns in tracer.LAYERS for fn in fns]
    assert layers
    missing = [(module, fn) for module, fn in layers
               if not callable(getattr(importlib.import_module(f"willmore_lab.{module}"), fn, None))]
    assert missing == []
