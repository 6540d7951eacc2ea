"""Package surface: every name a module lists in __all__ resolves, so does
every function the benchmark's tracer wraps, and each benchmark workload
still reaches every layer its traced run requires; the output hash tool
finds every bundle array it lists and hashes arrays by value only."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import willmore_lab

MODULES = ["willmore_lab"] + [f"willmore_lab.{info.name}" for info in pkgutil.iter_modules(willmore_lab.__path__)]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
OUTPUT_HASHES = PERFBENCH.parent / "tools" / "output_hashes.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _load(monkeypatch, path):
    """The Python file at path as a module, read only: no bytecode is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve(monkeypatch):
    # the traced benchmark wraps each LAYERS function; one deleted from the package
    # would break only that run, so its names are checked here (the file is only read)
    layers = [(module, fn) for _, module, fns in _load(monkeypatch, TRACER).LAYERS for fn in fns]
    assert layers
    missing = [(module, fn) for module, fn in layers
               if not callable(getattr(importlib.import_module(f"willmore_lab.{module}"), fn, None))]
    assert missing == []


def test_hashed_bundle_arrays_resolve(monkeypatch):
    # the output hash tool reads each of its bundle arrays from a bundle field or, through DERIVED_ARRAYS,
    # from the immersion function that computes it; a field moved to a function without its mapping would
    # break only that slow tool, run by hand, so its names are checked here (the file is only read)
    from willmore_lab import immersion

    tool = _load(monkeypatch, OUTPUT_HASHES)
    fields = {f.name for f in dataclasses.fields(immersion.GeometryBundle)}
    unresolved = [name for name in tool.BUNDLE_ARRAYS if name not in fields and not (
        name in tool.DERIVED_ARRAYS and callable(getattr(immersion, tool.DERIVED_ARRAYS[name][0], None)))]
    assert unresolved == []


def test_hashed_surfaces_cover_the_catalog(monkeypatch):
    # the output hash tool lists the catalog surfaces by hand; a surface added to the catalog without its
    # line would silently drop out of the bit-identity listing
    from willmore_lab import immersion

    assert set(_load(monkeypatch, OUTPUT_HASHES).CATALOG) == set(immersion.CATALOG)


def test_required_bindings_resolve(monkeypatch):
    # the benchmark's smoke test pins bindings made by "from .x import f", which the tracer
    # must wrap too; one dropped by a refactor would fail only that slow test
    tree = ast.parse((PERFBENCH / "test_smoke.py").read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["REQUIRED_BINDINGS"]]
    bindings = ast.literal_eval(value)
    assert bindings
    traced = {}  # id of each LAYERS function -> its module
    for _, module, fns in _load(monkeypatch, TRACER).LAYERS:
        for fn in fns:
            traced[id(getattr(importlib.import_module(f"willmore_lab.{module}"), fn))] = module
    unbound = []
    for binding in sorted(bindings):
        module, attr = binding.split(".")
        obj = getattr(importlib.import_module(f"willmore_lab.{module}"), attr, None)
        if traced.get(id(obj), module) == module:
            unbound.append(binding)
    assert unbound == []


def test_output_hashes_refuse_object_arrays(monkeypatch):
    # the bytes of an object array are addresses, which differ between runs: a listing that hashed
    # one (None included) would differ between two runs of the same tree
    tool = _load(monkeypatch, OUTPUT_HASHES)
    for value in (None, np.array([1.0, None])):
        with pytest.raises(TypeError, match="Python objects"):
            tool._array_bytes(value)
    assert tool._array_bytes(np.zeros(2)) == b"<f8|(2,)|(8,)|" + bytes(16)


def _load_perfbench(monkeypatch):
    """perfbench/run.py as a module, read only: no bytecode is written next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up there
    spec.loader.exec_module(run)
    return run


WORKLOADS = ["flow_catenoid", "verify_m3", "verify_m6", "wente_batch"]


def test_every_workload_is_guarded(monkeypatch):
    assert sorted(_load_perfbench(monkeypatch).WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_reaches_its_layers(workload, monkeypatch, tmp_path):
    # the traced benchmark raises when a must_call layer records no call, e.g. after a
    # caller stops going through a wrapped binding; the tiny pass is checked here
    run = _load_perfbench(monkeypatch)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setenv("WILLMORE_LAB_THREADS", "2")
    from willmore_lab import cli

    tracer = run.Tracer()
    with tracer.installed():
        for op in run.make_pass(workload, random.Random(3), tiny=True, shuffle=False):
            assert cli.main(list(op.argv)) in (0, 1)
    seen = {span.name for span in tracer.spans}
    assert [name for name in run.WORKLOADS[workload].must_call if name not in seen] == []


def test_cli_import_loads_no_scipy():
    # the solvers' transforms run on numpy.fft: scipy is no runtime dependency
    src = Path(willmore_lab.__file__).resolve().parents[1]
    code = ("import willmore_lab.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
