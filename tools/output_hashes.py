"""Print one sha256 per output of a fixed list of runs, to check that two
source trees give byte-identical results.

    python tools/output_hashes.py --src PATH/TO/src > hashes.txt

Run it once on each tree's ``src`` directory and ``diff`` the listings.
The outputs are:

* ``verify`` JSON (timestamp line removed) and CSV: the seven catalog
  surfaces at m = 3 (--n 65 --n 129); sphere, clifford_torus_patch,
  graph_perturbation and plane at m = 4, 5, 6 (--n 65);
  graph_perturbation:seed=7 at m = 6, n = 129; perturbed-sphere:seed=2 at
  m = 3 and 6 (n = 65);
* ``flow`` CSV, JSON (timestamp removed) and ``--checkpoint`` (the
  final patch) on perturbed-catenoid:seed=K,amplitude=0.05, n = 65,
  --stop-ratio 0.2, --max-iters 500, for K = 1, 0, 3, 4, 7;
* ``wente --n 129 --samples 3 --seed 5`` CSV and JSON (timestamp removed);
* ``refine --surface sphere --n 65 --n 129``: the CSV of ``--out``, and the
  JSON (timestamp removed) it prints without ``--out``;
* the JSON (timestamp removed) printed by ``wente --n 65 --samples 2
  --seed 3`` and by ``flow`` on perturbed-catenoid:seed=2, n = 65,
  --max-iters 20, neither given ``--out``;
* for 37 (surface, m) patches at n = 65 (the catalog at m = 3..6 and the
  perturbed catenoid, sphere and plane at m = 3, 4, 6): every array of the
  jet ``make_bundle`` differentiates (``patch.jet()``, the second order
  included), and of the patch's bundle each array of ``BUNDLE_ARRAYS``
  (dtype, shape, strides and bytes, signed zeros included), the f and L
  arrays of ``extract_A_f``, Q, S, R, the S/R defects, the S/R system
  residuals and the phi identity (the three values of
  ``sr_system_residual``, on two lines) and the tangency identities (each
  divided by ``surface_scale``, as the report divides them), the Gauss-map
  energy, and the values of ``residual_report`` on the patch.
  Blade-row fields are hashed through ``.dense()``.  A name of
  ``BUNDLE_ARRAYS`` that is no bundle field is read from the immersion
  function that computes it (``DERIVED_ARRAYS``), so a quantity that moves
  between a field and a derived entry keeps its line in the listing;
* the standard output of each script in the ``demos`` directory beside
  ``--src``, run on that ``src`` from an empty temporary working directory.

Runs single-process, apart from the demos, with WILLMORE_LAB_THREADS=2
unless it is set.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# the geometry arrays of a bundle, in listing order
BUNDLE_ARRAYS = ("lam", "elam", "t1", "t2", "ez", "ezstar", "normal_frame", "gauss",
                 "h", "H", "H0", "K_lambda", "K_gauss", "area_density")
# name -> (immersion function of the bundle, index into the tuple it returns; None: it returns the array)
DERIVED_ARRAYS = {"H0": ("tracefree_H0", None), "ez": ("complex_frame", 0), "ezstar": ("complex_frame", 1),
                  "K_lambda": ("gaussian_curvature", 0), "K_gauss": ("gaussian_curvature", 1),
                  "gauss": ("gauss_map", None)}

CATALOG = ("plane", "sphere", "cylinder", "catenoid", "enneper", "clifford_torus_patch", "graph_perturbation")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_bytes(x) -> bytes:
    x = x.dense() if hasattr(x, "dense") else np.asarray(x)
    if x.dtype.hasobject:  # its bytes would be object addresses, which differ between runs
        raise TypeError(f"cannot hash an array of Python objects (dtype {x.dtype})")
    head = f"{x.dtype.str}|{x.shape}|{x.strides}|".encode()
    return head + x.tobytes()


def _float_bytes(*values) -> bytes:
    return b"".join(struct.pack("<d", float(v)) for v in values)


def _bundle_array(bundle, name):
    """The bundle field name, else the value its immersion function computes."""
    if name in {f.name for f in dataclasses.fields(bundle)}:
        return getattr(bundle, name)
    from willmore_lab import immersion

    fn, index = DERIVED_ARRAYS[name]
    value = bundle.derived(getattr(immersion, fn))
    return value if index is None else value[index]


def _cli_runs():
    m3 = [(f"verify {s} m=3", ["--surface", s, "--m", "3", "--n", "65", "--n", "129"]) for s in CATALOG]
    m456 = [(f"verify {s} m={m}", ["--surface", s, "--m", str(m), "--n", "65"])
            for m in (4, 5, 6) for s in ("sphere", "clifford_torus_patch", "graph_perturbation", "plane")]
    extra = [("verify graph_perturbation:seed=7 m=6 n=129",
              ["--surface", "graph_perturbation:seed=7", "--m", "6", "--n", "129"])]
    extra += [(f"verify perturbed-sphere:seed=2 m={m}", ["--surface", "perturbed-sphere:seed=2", "--m", str(m), "--n", "65"])
              for m in (3, 6)]
    for name, argv in m3 + m456 + extra:
        yield name, ["verify", *argv, "--out", "{dir}/out.json", "--csv", "{dir}/out.csv"], ("out.json", "out.csv")
    for k in (1, 0, 3, 4, 7):
        yield (f"flow perturbed-catenoid:seed={k}",
               ["flow", "--surface", f"perturbed-catenoid:seed={k},amplitude=0.05", "--n", "65",
                "--stop-ratio", "0.2", "--max-iters", "500", "--out", "{dir}/flow.csv",
                "--checkpoint", "{dir}/flow.bin"],
               ("flow.csv", "flow.csv.json", "flow.bin"))
    yield ("wente n=129", ["wente", "--n", "129", "--samples", "3", "--seed", "5", "--out", "{dir}/wente.csv"],
           ("wente.csv", "wente.csv.json"))
    refine = ["refine", "--surface", "sphere", "--n", "65", "--n", "129"]
    yield "refine sphere", [*refine, "--out", "{dir}/refine.csv"], ("refine.csv",)
    yield "refine sphere", refine, ("stdout",)
    yield "wente n=65", ["wente", "--n", "65", "--samples", "2", "--seed", "3"], ("stdout",)
    yield ("flow perturbed-catenoid:seed=2",
           ["flow", "--surface", "perturbed-catenoid:seed=2,amplitude=0.05", "--n", "65", "--max-iters", "20"],
           ("stdout",))


def _bundle_cases():
    for m in (3, 4, 5, 6):
        for s in CATALOG:
            yield s, m
    for m in (3, 4, 6):
        for s in ("catenoid", "sphere", "plane"):
            yield f"perturbed-{s}", m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the src directory of the tree to hash (default: this repository's)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    os.environ.setdefault("WILLMORE_LAB_THREADS", "2")

    from willmore_lab import cli, confwillmore, conservation, reports
    from willmore_lab.diskgrid import Grid
    from willmore_lab.immersion import make_bundle, make_surface, perturb_normal

    stamp = re.compile(rb'\n *"timestamp": "[^"]*",?')
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, files in _cli_runs():
            for f in files:
                Path(tmp, f).unlink(missing_ok=True)
            stdout = io.StringIO()
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(stdout):
                code = cli.main([a.format(dir=tmp) for a in argv])
            for f in files:
                data = stdout.getvalue().encode() if f == "stdout" else Path(tmp, f).read_bytes()
                data = stamp.sub(b"", data)
                print(_sha(data), f"{name} {f} (exit {code})")

    for surface, m in _bundle_cases():
        kind = surface.removeprefix("perturbed-")
        patch = make_surface(kind, Grid(0.5, 65), m=m)
        if kind != surface:
            patch = perturb_normal(patch, seed=0, amplitude=0.05)
        bundle = make_bundle(patch)
        case = f"{surface} m={m}"
        for name in BUNDLE_ARRAYS:
            print(_sha(_array_bytes(_bundle_array(bundle, name))), f"{case} bundle.{name}")
        jet = patch.jet()
        for f in dataclasses.fields(jet):
            print(_sha(_array_bytes(getattr(jet, f.name))), f"{case} jet.{f.name}")
        print(_sha(_array_bytes(bundle.derived(conservation.assemble_Q))), f"{case} Q")
        conf = confwillmore.extract_A_f(bundle)
        for name in ("f", "L"):
            print(_sha(_array_bytes(getattr(conf, name))), f"{case} extract_A_f.{name}")
        sr = conservation.build_S_R(bundle, conf.L)
        print(_sha(_array_bytes(sr.S)), f"{case} S")
        print(_sha(_array_bytes(sr.R)), f"{case} R")
        scale = conservation.surface_scale(bundle)

        def scaled(*values):
            return _float_bytes(*(v / scale for v in values))

        print(_sha(scaled(sr.S_defect, sr.R_defect)), f"{case} S/R defects")
        *sr_resids, phi = conservation.sr_system_residual(bundle, sr.S, sr.R)
        print(_sha(scaled(*sr_resids)), f"{case} S/R residuals")
        print(_sha(scaled(phi)), f"{case} phi identity")
        print(_sha(scaled(*conservation.tangency_identities(bundle))), f"{case} tangency identities")
        print(_sha(_float_bytes(confwillmore.gauss_map_energy(bundle))), f"{case} Gauss-map energy")
        print(_sha(_float_bytes(*reports.residual_report(patch).values())), f"{case} report values")

    env = {**os.environ, "PYTHONPATH": str(src)}
    for demo in sorted((src.parent / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env, capture_output=True)
        print(_sha(proc.stdout), f"demo {demo.name} stdout (exit {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
