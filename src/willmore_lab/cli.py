"""Command-line orchestration: verification suites, refinement studies,
Wente batches, Lorentz-norm queries, and flow runs.

Each command computes its results and ``main`` writes them where
``_outputs`` says: a JSON payload (schema version 1), a CSV table and, for
``flow``, a binary checkpoint, each to a file or to standard output
(``-``).  Identical invocations with the same seed produce byte-identical
output apart from the timestamp field.  Independent (surface, grid) items
are dispatched in parallel, capped by the WILLMORE_LAB_THREADS environment
variable.
The same pool runs the stage groups inside each report (see
``reports.residual_report``), so a worker whose report is done helps with
the stages of another; report keys keep their order and every value its
bits, whatever the thread count.  ``main`` sets glibc's allocator policy first.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from functools import cache

import numpy as np

from . import lorentz as lo
from . import reports as rp
from .diskgrid import Grid, read_field, write_field
from .flow import ps_norm, run as flow_run  # noqa: F401 (ps_norm: a binding perfbench pins)
from .immersion import CATALOG, make_bundle, make_surface, perturb_normal  # noqa: F401 (make_bundle: likewise)
from .reports import DEFAULT_THRESHOLDS, FLOOR

__all__ = ["main"]

SCHEMA_VERSION = 1

def _max_workers() -> int:
    env = os.environ.get("WILLMORE_LAB_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"WILLMORE_LAB_THREADS must be a positive integer, got {env!r}")
    return workers


@cache
def _allocator_policy() -> None:
    """Keep large temporaries on glibc's heap, not unmapped and faulted in again; no mallopt, no-op.
    All three or none: glibc can refuse only the first, and one threshold alone stops the dynamic ones."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def _parse_surface(arg: str) -> tuple[str, dict]:
    """Parse 'name' or 'name:key=value,...' (JSON values); a value that is not
    JSON, or a key given twice, raises ValueError with a one-line message."""
    name, _, tail = arg.partition(":")
    name = name.replace("-", "_")
    params: dict = {}
    if tail:
        for item in tail.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"--surface {arg}: parameter {key} is given twice")
            try:
                params[key] = json.loads(value)
            except json.JSONDecodeError:
                raise ValueError(f"--surface {arg}: {key}={value} is not a JSON value") from None
    return name, params


def _patched(name: str, params: dict, s: float, n: int, m: int, seed: int):
    """The parsed --surface on Grid(s, n); perturbed_<kind> hands seed and amplitude to the bump.
    make_surface and perturb_normal check the name, m and every parameter (ValueError)."""
    kind = name.removeprefix("perturbed_")
    bump = ("seed", "amplitude") if kind != name else ()
    patch = make_surface(kind, Grid(s, n), m=m, **{k: v for k, v in params.items() if k not in bump})
    if not bump:
        return patch
    return perturb_normal(patch, **{"seed": seed, **{k: v for k, v in params.items() if k in bump}})


def _read_thresholds(path) -> dict:
    """DEFAULT_THRESHOLDS overridden by the JSON object at path (None: no file); ValueError
    unless it maps thresholded key names to finite numbers (a JSON boolean is none), OSError
    if unreadable."""
    if path is None:
        return dict(DEFAULT_THRESHOLDS)
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except ValueError:  # not JSON (or not text): rejected below like any other non-object
        overrides = None
    if not isinstance(overrides, dict) or not all(
            type(v) in (int, float) and -np.inf < v < np.inf for v in overrides.values()):
        raise ValueError(f"--threshold-file {path} must hold a JSON object of finite numbers")
    unknown = sorted(set(overrides) - set(DEFAULT_THRESHOLDS))
    if unknown:
        raise ValueError(f"--threshold-file {path}: {unknown[0]!r} is no thresholded key; "
                         f"have {sorted(DEFAULT_THRESHOLDS)}")
    return {**DEFAULT_THRESHOLDS, **overrides}


def _outputs(args) -> dict[str, str]:
    """Where args.command writes each of its outputs: "json" (the payload), "table" (CSV rows)
    and "checkpoint" (binary field) map to a path, "-" being standard output; ValueError if
    two outputs would go to one file or to standard output, or the checkpoint to standard output."""
    out = getattr(args, "out", None)
    if args.command == "verify":
        paths = {"json": out or "-", "table": args.csv}
    elif args.command == "refine":
        paths = {"table": out} if out else {"json": "-"}
    elif args.command in ("wente", "flow"):  # the JSON summary is the table's companion
        paths = {"table": out, "checkpoint": getattr(args, "checkpoint", None),
                 "json": out + ".json" if out and out != "-" else "-"}
    else:
        paths = {}
    paths = {kind: path for kind, path in paths.items() if path}
    stdout = [kind for kind, path in paths.items() if path == "-"]
    if "checkpoint" in stdout:
        raise ValueError("--checkpoint is a binary field and cannot go to standard output (-)")
    if len(stdout) > 1:
        raise ValueError(f"{args.command} would write both its JSON and its CSV table to standard output (-)")
    files: dict[str, str] = {}
    for kind, path in paths.items():
        first = files.setdefault(os.path.realpath(path), kind) if path != "-" else kind
        if first != kind:
            raise ValueError(f"{args.command} would write its {first} and its {kind} output to the same file {path}")
    return paths


def _json_text(value):
    """value with each non-finite float replaced by the text the CSV writes for it ("inf", "-inf", "nan")."""
    if isinstance(value, dict):
        return {k: _json_text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_text(v) for v in value]
    if isinstance(value, float) and not -np.inf < value < np.inf:
        return f"{value:.17g}"
    return value


def _write_outputs(paths: dict[str, str], command: str, results: dict) -> None:
    """Write each result of a cmd_* to its path from _outputs: results maps "json" to the payload
    without its schema/command/timestamp header, "table" to (header, rows), "checkpoint" to
    (grid, values).  The JSON is strict: a non-finite float is written as text (``_json_text``)."""
    for kind, path in paths.items():
        if kind == "checkpoint":
            write_field(path, *results[kind])
            continue
        with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="") as fh:
            if kind == "json":
                stamp = datetime.now(timezone.utc).isoformat()
                payload = {"schema": SCHEMA_VERSION, "command": command, "timestamp": stamp, **results[kind]}
                fh.write(json.dumps(_json_text(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")
            else:
                header, rows = results[kind]
                csv.writer(fh).writerows([header, *rows])


def _check_writable(paths: list[str]) -> None:
    """OSError unless every path opens for appending, which leaves an existing
    file as it is; the files this made are removed again."""
    made = []
    try:
        for path in paths:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                made.append(path)
    finally:
        for path in made:
            os.remove(path)


def _report_items(args) -> list[dict]:
    def work(item):
        # the report gets the one reference to its patch, so the patch and its jet go once the bundle exists
        report = rp.residual_report(item.pop("patch"), pool)
        item["keys"] = {k: float(v) for k, v in sorted(report.items())}
        return item

    items = [{"surface": patch.label, "kind": args.kind, "params": args.params, "m": args.m, "n": patch.grid.n,
              "s": args.s, "patch": patch} for patch in vars(args).pop("patches")]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        return list(pool.map(work, items))


def cmd_verify(args) -> tuple[int, dict]:
    items = _report_items(args)
    ok = True
    rows = []
    for item in items:
        failures = rp.check_report(item["keys"], args.kind, args.thresholds)
        item["failures"] = {k: {"value": v, "threshold": t} for k, (v, t) in sorted(failures.items())}
        ok = ok and not failures
        rows.extend([item["surface"], item["m"], item["n"], k, f"{v:.17g}"] for k, v in item["keys"].items())
        for key, info in item["failures"].items():
            print(f"FAIL {item['surface']} n={item['n']}: {key} = {info['value']:.3e} "
                  f"> {info['threshold']:.3e}", file=sys.stderr)
    payload = {"thresholds": args.thresholds, "items": items, "pass": ok}
    return 0 if ok else 1, {"json": payload, "table": (["surface", "m", "n", "key", "value"], rows)}


def cmd_refine(args) -> tuple[int, dict]:
    items = _report_items(args)
    ratios = rp.refinement_ratios([item["keys"] for item in items])
    rows = [[coarse["surface"], coarse["m"], coarse["n"], fine["n"], key,
             row[key] if row[key] == FLOOR else f"{row[key]:.17g}"]
            for (coarse, fine), row in zip(zip(items, items[1:]), ratios) for key in row]
    payload = {
        "items": items,
        "ratios": [{k: (v if v == FLOOR else float(v)) for k, v in row.items()} for row in ratios],
    }
    return 0, {"json": payload, "table": (["surface", "m", "n_coarse", "n_fine", "key", "ratio"], rows)}


def cmd_wente(args) -> tuple[int, dict]:
    grid = Grid(args.s, args.n[0])

    def work(seed):
        # the fields go straight to wente_solve, which frees each once its gradient exists
        res = lo.wente_solve(grid, lo.random_band_limited(grid, 2 * seed + args.seed),
                             lo.random_band_limited(grid, 2 * seed + 1 + args.seed))
        return seed, res.ratio_L2, res.ratio_L21

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        samples = list(pool.map(work, range(args.samples)))
    _, r2s, r21s = zip(*samples)
    payload = {
        "n": grid.n,
        "s": args.s,
        "samples": args.samples,
        "max_ratio_L2": max(r2s),
        "mean_ratio_L2": float(np.mean(r2s)),
        "max_ratio_L21": max(r21s),
        "mean_ratio_L21": float(np.mean(r21s)),
    }
    rows = [[seed, f"{r2:.17g}", f"{r21:.17g}", grid.n] for seed, r2, r21 in samples]
    return 0, {"json": payload, "table": (["seed", "ratio_L2", "ratio_L21", "n"], rows)}


def cmd_lorentz(args) -> tuple[int, dict]:
    norm = lo.lorentz_norm(lo.rearrange(args.grid, args.values[..., 0]), args.p, args.q)
    print(f"{norm:.12g}")
    return 0, {}


def cmd_flow(args) -> tuple[int, dict]:
    patch = args.patches[0]
    trace = flow_run(patch, max_iters=args.max_iters, stop_ratio=args.stop_ratio)
    payload = {
        "surface": patch.label,
        "iterations": len(trace.states) - 1,
        "stopped_by": trace.stopped_by,
        "initial_energy": trace.initial.energy,
        "final_energy": trace.final.energy,
        "initial_ps_norm": trace.initial.ps,
        "final_ps_norm": trace.final.ps,
        "final_conformal_defect": trace.final.conformal_defect,
    }
    rows = [[i, f"{s.energy:.17g}", f"{s.ps:.17g}", f"{s.conformal_defect:.17g}", f"{s.tau:.17g}"]
            for i, s in enumerate(trace.states)]
    return 0, {"json": payload, "table": (["iter", "energy", "ps_norm", "conformal_defect", "tau"], rows),
               "checkpoint": (patch.grid, trace.final.patch.phi)}


def _add_common(parser: argparse.ArgumentParser, surface: bool = True) -> None:
    if surface:
        parser.add_argument("--surface", required=True,
                            help="catalog name or perturbed-<name>, optionally name:key=value,... "
                                 f"(catalog: {', '.join(sorted(CATALOG))})")
        parser.add_argument("--m", type=int, default=3, help="ambient dimension (3..6)")
    parser.add_argument("--n", type=int, action="append", default=None,
                        help="points per side (repeatable, odd)")
    parser.add_argument("--s", type=float, default=0.5, help="half-width of the grid square")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output path, - for standard output (JSON report / CSV table)")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so ``main`` reports them in its one line
    (subparsers are built from this class too); --help still exits 0."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="willmore-lab",
        description="Verification suites for divergence-form Willmore conservation laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all residual checks against thresholds")
    _add_common(p)
    p.add_argument("--threshold-file", default=None, help="JSON {key: threshold} overrides")
    p.add_argument("--csv", default=None, help="also write {surface,m,n,key,value} rows")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("refine", help="per-key Richardson ratio table")
    _add_common(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("wente", help="seeded random Wente-constant batch")
    _add_common(p, surface=False)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_wente)

    p = sub.add_parser("lorentz", help="Lorentz norm of a binary field file")
    p.add_argument("--field", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True, help="inf for the weak norm")
    p.set_defaults(func=cmd_lorentz)

    p = sub.add_parser("flow", help="Willmore descent run with trace output")
    _add_common(p)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--stop-ratio", type=float, default=0.0,
                   help="stop once ps_norm falls below this fraction of its start")
    p.add_argument("--checkpoint", default=None, help="write final patch as binary field")
    p.set_defaults(func=cmd_flow)

    return parser


def main(argv: list[str] | None = None) -> int:
    _allocator_policy()  # before any worker pool starts
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "n", None) is None:
            args.n = [65]
        if args.command in ("flow", "wente") and len(args.n) > 1:
            raise ValueError(f"{args.command} takes one --n, got {args.n}")
        if args.command == "refine" and len(args.n) < 2:
            raise ValueError(f"refine needs at least two --n grid sizes, got {args.n}")
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if getattr(args, "max_iters", 0) < 0:
            raise ValueError(f"--max-iters must be non-negative, got {args.max_iters}")
        if not 0.0 <= getattr(args, "stop_ratio", 0.0) < np.inf:
            raise ValueError(f"--stop-ratio must be finite and non-negative, got {args.stop_ratio}")
        if hasattr(args, "threshold_file"):
            args.thresholds = _read_thresholds(args.threshold_file)
        if any(a >= b for a, b in zip(args.n, args.n[1:])):
            raise ValueError(f"--n values must be increasing, got {args.n}")
        if hasattr(args, "s"):
            grids = [Grid(args.s, n) for n in args.n]
            # the Dirichlet eigenvalues reach 8/h^2, which overflows on a finer grid: wente and flow solve
            # Dirichlet problems; verify, whose keys such a grid makes NaN or huge, reports them (README)
            if args.command in ("wente", "flow") and grids[0].h**2 < 8.0 / np.finfo(float).max:
                raise ValueError(f"{args.command} --s {args.s} --n {args.n[0]}: grid step too small, "
                                 f"h^2 = {grids[0].h**2:.3g} makes the Poisson eigenvalues 8/h^2 overflow")
        if hasattr(args, "surface"):
            # workers only run reports: every patch is built, and checked, here
            args.kind, args.params = _parse_surface(args.surface)
            args.patches = [_patched(args.kind, args.params, args.s, n, args.m, args.seed) for n in args.n]
        if hasattr(args, "field"):
            lo._check_exponents(args.p, args.q)
            args.grid, args.values = read_field(args.field)
            if args.values.shape[-1] != 1:
                raise ValueError(f"field file {args.field}: holds {args.values.shape[-1]} values per node, "
                                 "lorentz takes one")
        args.workers = _max_workers()
        paths = _outputs(args)
        # all or nothing: no output is written unless every one can be
        _check_writable([path for path in paths.values() if path != "-"])
        code, results = args.func(args)
        _write_outputs(paths, args.command, results)
        return code
    except (OSError, ValueError) as exc:  # input the toolkit cannot handle; a RuntimeError is a bug and raises
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
