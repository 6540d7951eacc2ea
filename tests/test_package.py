"""Package surface: every name a module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import willmore_lab

MODULES = ["willmore_lab"] + [f"willmore_lab.{info.name}" for info in pkgutil.iter_modules(willmore_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
