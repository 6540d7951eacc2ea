"""willmore-lab benchmark: drives the public CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop with one client: the next op (one
``willmore_lab.cli.main`` call) starts when the previous one returns.
The CLI dispatches its independent items on WILLMORE_LAB_THREADS = 2
threads; BLAS/OpenMP pools are pinned to one thread, so the process
computes on at most two threads.  The seed makes the generated CLI
arguments and nothing else; the program receives only those arguments.

A run repeats whole passes over a workload's op list, so every run sees
the same mix of ops.  The number of passes is ``--seconds`` divided by
the pass time on the reference machine (2-core x86-64, Python 3.11,
numpy 2.4.6, scipy 1.17.1); a pass that would end after 1.25 x
``--seconds`` is not started.  Pool sizes are odd, so the median op
always falls on the same pool entry.

Workloads (ROADMAP item 1 = separable Wente cosines, 2 = one context
per bundle and batched solvers, 3 = descent flow, 5 = grade-blocked
multivector kernel):

verify_m3      verify --m 3 --n 129 --n 257 over sphere, clifford torus
               patch, catenoid, enneper, cylinder (order shuffled per
               pass).  Loads diskgrid FD and Neumann solves, conservation,
               confwillmore.  Claim workload for 2; near-bypass for 5;
               predicts no change for 1 and 3.
verify_m6      verify --m 6 --n 65 --n 129 over sphere, clifford torus
               patch and a dense graph_perturbation (bump seed from the
               benchmark seed).  Loads multivec (_apply_bilinear on
               64 blade slots).  Claim workload for 5, secondary for 2;
               predicts no change for 1 and 3.
flow_catenoid  flow --surface perturbed-catenoid:seed=K,amplitude=0.05
               --m 3 --n 65 --stop-ratio 0.2 --max-iters 500 over the
               fixed pool K = 1, 0, 3, 4, 7 (29 to 65 iterations; order
               shuffled per pass).  Loads flow, make_bundle and
               small-grid diskgrid calls.  Claim workload for 3;
               predicts no change for 1.  The pool is fixed
               because iteration counts range from 28 to 81 over
               perturbation seeds 0..39: resampling their measured
               times, K drawn per run would spread op_s.p50 by 12-19 %
               between seeds, wider than any useful bound.
wente_batch    wente --n 257 --samples 8 with a fresh sample seed per op.
               Loads lorentz (random_band_limited, rearrange,
               lorentz_norm) and one Dirichlet solve per sample.  Claim
               workload for 1; predicts no change for 2, 3 and 5.

--trace 0 prints the end-to-end metrics: setup_s (import plus the first
warm-up op, repeated with the package's lru caches cleared; median),
op_s.p50, op_s.tail (the highest percentile with ten ops beyond it, or
the median when fewer than twenty ops ran), ops_per_s (reports, samples
or accepted flow steps per second of op time) and peak_rss_mb.
--trace 1 runs half the passes untraced, replays the same ops with every
layer function wrapped (perfbench/tracer.py), checks that the replay
reproduces every output exactly, and prints the per-layer metrics,
normalized per op.  Failed ops are counted, never fatal; the result line
carries ``attempted`` and ``failed``, and the detail line before it
carries failed_frac, iters_to_target.p50 and the provenance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import BYTE_SPANS, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREADS = 2
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3

M3_SURFACES = ("sphere", "clifford_torus_patch", "catenoid", "enneper", "cylinder")
M6_SURFACES = ("sphere", "clifford_torus_patch", "graph_perturbation")
# iterations to the gate: 29, 65, 39, 38, 38.  The middle three are near
# equal, so the median op is estimated from three pool entries per pass.
# Seed 1, the quickest, comes first: it is the warm-up op.
FLOW_SEEDS = (1, 0, 3, 4, 7)
WENTE_SAMPLES = 8
TINY_N = 33

_VERIFY_LAYERS = (
    "cli.main", "reports.residual_report", "reports.check_report",
    "immersion.make_surface", "immersion.make_bundle", "immersion.frames",
    "immersion.second_fundamental", "immersion.willmore_energy",
    "conservation.surface_scale", "conservation.assemble_Q", "conservation.willmore_residual",
    "conservation.tangency_identities", "conservation.recover_L", "conservation.assemble_L0",
    "conservation.dz_L0_closed_form", "conservation.build_S_R",
    "conservation.sr_system_residual", "conservation.phi_identity_residual",
    "confwillmore.extract_A_f", "confwillmore.conformal_willmore_residual",
    "confwillmore.eq13_residual", "confwillmore.frame_derivative_residuals",
    "confwillmore.codazzi_residual", "confwillmore.gauss_map_energy",
    "diskgrid.poisson_neumann", "diskgrid.grad_potential", "diskgrid.curl_potential",
    "diskgrid.fd", "multivec.field_wedge", "multivec.field_bullet", "multivec.field_hodge",
    "multivec.field_inner", "multivec.embed",
)


@dataclass(frozen=True)
class Op:
    kind: str                  # "verify" | "flow" | "wente"
    argv: tuple[str, ...]
    work: int                  # reports (verify) or samples (wente); flow counts its steps


@dataclass(frozen=True)
class Workload:
    name: str
    pass_s: float              # one pass on the reference machine
    sizes: dict
    must_call: tuple[str, ...]  # layer functions the traced run must see


def make_pass(workload: str, rng: random.Random, tiny: bool, shuffle: bool = True) -> list[Op]:
    """One pass over the workload's op list, arguments drawn from rng."""
    order = list({"verify_m3": M3_SURFACES, "verify_m6": M6_SURFACES,
                  "flow_catenoid": FLOW_SEEDS, "wente_batch": (None,)}[workload])
    if shuffle:
        rng.shuffle(order)
    ops = []
    for entry in order:
        if workload.startswith("verify"):
            m, ns = (3, (129, 257)) if workload == "verify_m3" else (6, (65, 129))
            ns = (TINY_N,) if tiny else ns
            spec = entry
            if entry == "graph_perturbation":
                spec = f"graph_perturbation:seed={rng.randrange(1 << 16)},amplitude=0.05"
            argv = ["verify", "--surface", spec, "--m", str(m), *(a for n in ns for a in ("--n", str(n))),
                    "--out", str(OUT / "verify.json"), "--csv", str(OUT / "verify.csv")]
            ops.append(Op("verify", tuple(argv), len(ns)))
        elif workload == "flow_catenoid":
            argv = ["flow", "--surface", f"perturbed-catenoid:seed={entry},amplitude=0.05",
                    "--m", "3", "--n", str(TINY_N if tiny else 65), "--stop-ratio", "0.2",
                    "--max-iters", "500", "--out", str(OUT / "flow.csv")]
            ops.append(Op("flow", tuple(argv), 0))
        else:
            samples = 2 if tiny else WENTE_SAMPLES
            argv = ["wente", "--n", str(TINY_N if tiny else 257), "--samples", str(samples),
                    "--seed", str(rng.randrange(1 << 30)), "--out", str(OUT / "wente.csv")]
            ops.append(Op("wente", tuple(argv), samples))
    return ops


WORKLOADS = {
    "verify_m3": Workload("verify_m3", 4.7, {"m": 3, "n": [129, 257], "surfaces": list(M3_SURFACES)},
                          _VERIFY_LAYERS),
    "verify_m6": Workload("verify_m6", 3.5, {"m": 6, "n": [65, 129], "surfaces": list(M6_SURFACES)},
                          _VERIFY_LAYERS),
    "flow_catenoid": Workload(
        "flow_catenoid", 6.8,
        {"m": 3, "n": 65, "perturbation_seeds": list(FLOW_SEEDS), "amplitude": 0.05,
         "stop_ratio": 0.2, "max_iters": 500},
        ("cli.main", "immersion.make_surface", "immersion.perturb_normal", "immersion.make_bundle",
         "immersion.frames", "immersion.second_fundamental", "immersion.willmore_energy",
         "conservation.assemble_Q", "flow.run", "flow.step", "flow.ps_norm",
         "flow.descent_velocity", "diskgrid.poisson_dirichlet", "diskgrid.fd",
         "multivec.field_wedge", "multivec.field_hodge", "multivec.embed"),
    ),
    "wente_batch": Workload(
        "wente_batch", 0.55, {"n": 257, "samples_per_op": WENTE_SAMPLES},
        ("cli.main", "lorentz.random_band_limited", "lorentz.rearrange", "lorentz.lorentz_norm",
         "lorentz.wente_solve", "diskgrid.poisson_dirichlet", "diskgrid.fd"),
    ),
}


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    op: Op
    seconds: float
    problems: list[str] = field(default_factory=list)
    signature: object = None   # outputs minus timestamps, compared bit for bit
    work: int = 0
    iterations: int = 0


def _outputs(kind: str) -> list[Path]:
    return {"verify": [OUT / "verify.json", OUT / "verify.csv"],
            "flow": [OUT / "flow.csv", OUT / "flow.csv.json"],
            "wente": [OUT / "wente.csv", OUT / "wente.csv.json"]}[kind]


def _check_verify(op: Op, rc, res: OpResult) -> None:
    payload = json.loads((OUT / "verify.json").read_text())
    if rc != 0 or payload["pass"] is not True:
        res.problems.append(f"verify exit {rc}, pass={payload['pass']}")
    for item in payload["items"]:
        keys = item["keys"]
        bad = sorted(k for k, v in keys.items() if not math.isfinite(v))
        if bad:
            res.problems.append(f"{item['surface']} n={item['n']}: non-finite {bad}")
        if item["kind"] == "cylinder" and item["n"] == 257:
            # acceptance criteria 2 and 3: 1/(4 rho^3) within 5 %, f = 1/(2 rho^2) within 1e-3
            if not abs(keys["divQ_inf"] - 0.25) <= 0.05 * 0.25:
                res.problems.append(f"cylinder divQ_inf {keys['divQ_inf']!r} not ~ 0.25")
            if not abs(keys["f_inf"] - 0.5) < 1e-3:
                res.problems.append(f"cylinder f_inf {keys['f_inf']!r} not ~ 0.5")
    payload.pop("timestamp")
    res.signature = (payload, (OUT / "verify.csv").read_text())
    res.work = len(payload["items"])


def _check_flow(op: Op, rc, res: OpResult) -> None:
    payload = json.loads((OUT / "flow.csv.json").read_text())
    text = (OUT / "flow.csv").read_text()
    energies = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    if rc != 0 or payload["stopped_by"] != "threshold":
        res.problems.append(f"flow exit {rc}, stopped_by={payload['stopped_by']}")
    if not all(math.isfinite(e) for e in energies) or any(b > a for a, b in zip(energies, energies[1:])):
        res.problems.append("flow energy trace is not finite and non-increasing")
    if not payload["final_ps_norm"] <= 0.2 * payload["initial_ps_norm"]:
        res.problems.append("flow stopped above the 0.2 ps_norm gate")
    payload.pop("timestamp")
    res.signature = (payload, text)
    res.iterations = res.work = int(payload["iterations"])


def _check_wente(op: Op, rc, res: OpResult) -> None:
    payload = json.loads((OUT / "wente.csv.json").read_text())
    text = (OUT / "wente.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    if rc != 0 or len(rows) != op.work:
        res.problems.append(f"wente exit {rc}, {len(rows)} rows for {op.work} samples")
    ratios = [float(x) for row in rows for x in row[1:3]]
    if not all(math.isfinite(r) and r > 0.0 for r in ratios):
        res.problems.append("wente ratio non-finite or degenerate")
    payload.pop("timestamp")
    res.signature = (payload, text)
    res.work = len(rows)


CHECKS = {"verify": _check_verify, "flow": _check_flow, "wente": _check_wente}


def run_op(cli, op: Op) -> OpResult:
    for path in _outputs(op.kind):
        path.unlink(missing_ok=True)
    start = perf_counter()
    try:
        rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a failed op is counted, never fatal
        traceback.print_exc()
        rc = None
    res = OpResult(op, perf_counter() - start)
    if rc is None:
        res.problems.append("raised")
        return res
    try:
        CHECKS[op.kind](op, rc, res)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        res.problems.append(f"output unreadable: {exc!r}")
    for problem in res.problems:
        print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
    return res


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (median floor)."""
    lat = sorted(latencies)
    k = max(len(lat) - 10, math.ceil(len(lat) / 2))
    return lat[k - 1], 100.0 * k / len(lat)


def end_to_end(results: list[OpResult], setup_s: float) -> tuple[dict, dict]:
    lat = [r.seconds for r in results]
    tail, tail_pct = _tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "op_s.tail": (tail, "s"),
        "ops_per_s": (sum(r.work for r in results) / sum(lat), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"op_s.tail.percentile": tail_pct, "op_s.samples": len(lat)}
    return metrics, extra


def layer_metrics(tracer, wl: Workload, untraced: list[OpResult], traced: list[OpResult]) -> dict:
    spans = tracer.spans
    self_times = tracer.self_times()
    by_id = {s.id: s for s in spans}
    calls, self_s, nbytes = Counter(), defaultdict(float), defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += self_times[s.id]
        nbytes[s.name] += s.nbytes
    missing = [name for name in wl.must_call if calls[name] == 0]
    if missing:
        raise RuntimeError(f"traced run on {wl.name} recorded no calls to {missing}")

    def parent_name(s):
        parent = by_id.get(s.parent)
        return parent.name if parent else None

    ops = len(traced)
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (calls[name] / ops, "count/op")
        m[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
    for name in sorted(BYTE_SPANS):
        m[f"{name}.bytes_computed"] = (nbytes[name] / ops, "B/op")
    wait = sum(s.start - by_id[s.parent].start for s in spans
               if s.name == "reports.residual_report" and parent_name(s) == "cli.main")
    m["cli.dispatch_wait_s"] = (wait / ops, "s/op")

    reports = calls["reports.residual_report"]
    for name in ("conservation.recover_L", "conservation.assemble_Q", "conservation.surface_scale"):
        m[f"{name}.calls_per_report"] = (calls[name] / reports if reports else 0.0, "count/report")
    solves = calls["diskgrid.poisson_dirichlet"] + calls["diskgrid.poisson_neumann"]
    m["diskgrid.solves_per_report"] = (solves / reports if reports else 0.0, "count/report")

    steps = sum(r.iterations for r in traced)
    candidates = sum(1 for s in spans if s.name == "immersion.make_bundle" and parent_name(s) == "flow.step")
    flow_ops = [r for r in untraced if r.op.kind == "flow"]
    untraced_steps = sum(r.iterations for r in flow_ops)
    m["flow.step_s"] = (sum(r.seconds for r in flow_ops) / untraced_steps if untraced_steps else 0.0, "s/step")
    m["flow.bundle_builds_per_step"] = (calls["immersion.make_bundle"] / steps if steps else 0.0, "count/step")
    m["flow.accept_ratio"] = (steps / candidates if candidates else 0.0, "ratio")
    m["flow.iters_to_target.p50"] = (
        float(statistics.median(r.iterations for r in flow_ops)) if flow_ops else 0.0, "count")
    m["trace.overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0, "ratio")
    return m


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _cache_sizes() -> dict:
    sizes = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10, check=True).stdout
        for line in text.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                sizes[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("cache size"):
                    sizes["cache size"] = line.partition(":")[2].strip()
                    break
        except OSError:
            pass
    return sizes


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl: Workload, seed: int, tiny: bool, passes: int) -> dict:
    import numpy
    import scipy

    sizes = dict(wl.sizes)
    if tiny:
        sizes["n"] = TINY_N
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cache": _cache_sizes(),
        "env": {k: os.environ.get(k) for k in ("WILLMORE_LAB_THREADS",) + THREAD_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": wl.name,
        "sizes": sizes,
        "passes": passes,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("willmore_lab") and module is not None:
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n = 33, one pass (smoke test)")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    os.environ["WILLMORE_LAB_THREADS"] = str(min(THREADS, os.cpu_count() or 1))
    for key in THREAD_ENV:
        os.environ[key] = "1"
    src = ROOT / "src"
    if not (src / "willmore_lab" / "cli.py").is_file():
        print(f"willmore_lab sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(exist_ok=True)

    start = perf_counter()
    from willmore_lab import cli
    import_s = perf_counter() - start

    warmup = make_pass(wl.name, random.Random(args.seed), args.tiny, shuffle=False)[0]
    setups, warm_problems = [], []
    for _ in range(SETUP_REPS):
        _clear_caches()
        res = run_op(cli, warmup)
        setups.append(import_s + res.seconds)
        warm_problems += res.problems

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = 1 if args.tiny else max(1, round(seconds / wl.pass_s))
    rng = random.Random(args.seed)
    ops, results = [], []
    start = perf_counter()
    for p in range(passes):
        elapsed = perf_counter() - start
        if p and elapsed + elapsed / p > 1.25 * seconds:
            break  # a much slower machine: keep the run inside its time budget
        batch = make_pass(wl.name, rng, args.tiny)
        ops += batch
        results += [run_op(cli, op) for op in batch]
    detail = {"provenance": provenance(wl, args.seed, args.tiny, len(ops) // len(batch)),
              "setup_runs_s": setups, "import_s": import_s}

    if args.trace:
        tracer = Tracer()
        with tracer.installed() as bindings:
            traced = [run_op(cli, op) for op in ops]
        tracer.write_csv(OUT / f"spans-{wl.name}-seed{args.seed}.csv")
        reproduced = all(a.signature == b.signature for a, b in zip(results, traced))
        metrics = layer_metrics(tracer, wl, results, traced)
        detail["wrapped_bindings"] = sorted(bindings)
        detail["trace_reproduces_untraced"] = reproduced
        all_results = results + traced
    else:
        reproduced = True
        metrics, extra = end_to_end(results, statistics.median(setups))
        detail.update(extra)
        all_results = results

    failed = sum(1 for r in all_results if r.problems)
    iters = [r.iterations for r in results if r.op.kind == "flow"]
    detail["failed_frac"] = failed / len(all_results)
    detail["iters_to_target.p50"] = statistics.median(iters) if iters else None
    detail["op_s"] = [r.seconds for r in results]
    out = {
        "correct": failed == 0 and not warm_problems and reproduced,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, **out}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({"detail": detail}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
