"""Smoke test of the benchmark harness at tiny sizes (n = 33, one pass).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced replay reproduces the untraced outputs, that exact
counts repeat between two traced runs, and that the harness refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# bindings made by "from .x import f" that the tracer must replace too
REQUIRED_BINDINGS = {
    "confwillmore.assemble_Q", "confwillmore.dz_L0_closed_form", "confwillmore.surface_scale",
    "flow.assemble_Q", "flow.make_bundle", "flow.willmore_energy",
    "reports.make_bundle", "reports.willmore_energy",
    "cli.make_bundle", "cli.make_surface", "cli.perturb_normal", "cli.ps_norm", "cli.flow_run",
}


def _run(workload: str, trace: int, cwd: Path = HERE.parent) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    detail, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert 0 <= result["failed"] <= result["attempted"]
    assert detail["failed_frac"] == result["failed"] / result["attempted"]
    prov = detail["provenance"]
    for key in ("python", "numpy", "scipy", "nproc", "cache", "env", "git_commit", "seed", "sizes"):
        assert key in prov
    assert int(prov["env"]["WILLMORE_LAB_THREADS"]) <= prov["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_exact_counts(workload):
    runs = [_run(workload, 1) for _ in range(2)]
    counts = []
    for detail, result in runs:
        assert _units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        assert detail["trace_reproduces_untraced"] is True
        assert REQUIRED_BINDINGS <= set(detail["wrapped_bindings"])
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"].startswith(("count", "B/"))})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
