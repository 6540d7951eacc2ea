"""Print how far each residual report moves under the 8 symmetries of the index square.

    python tools/symmetry_probe.py [--src PATH/TO/src] [--n 65]

Each patch is an FD-jet patch (its samples without the analytic jet).  The
symmetries are the flips and transposes of phi's two grid axes, which map the
grid square onto itself.  For each patch the tool runs ``residual_report`` on
all 8 images and prints the largest relative move of any key against the
identity's value, with that key's name.  A parametrization-invariant report
moves only at rounding level; this is the measure of ROADMAP item 2a's gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

SYMMETRIES = [lambda p: p, lambda p: p[::-1], lambda p: p[:, ::-1], lambda p: p[::-1, ::-1]]
SYMMETRIES += [lambda p, f=f: f(p).transpose(1, 0, 2) for f in SYMMETRIES]


def relative_move(value: float, images: list[float]) -> float:
    """The largest |image - value| / |value|; inf when a zero value moves."""
    moved = max(abs(image - value) for image in images)
    return moved / abs(value) if value else (np.inf if moved else 0.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--n", type=int, default=65)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    from willmore_lab.diskgrid import Grid
    from willmore_lab.immersion import make_surface, perturb_normal
    from willmore_lab.reports import residual_report

    grid = Grid(0.5, args.n)
    patches = {"graph_perturbation m=3": make_surface("graph_perturbation", grid, m=3),
               "graph_perturbation m=6": make_surface("graph_perturbation", grid, m=6),
               "clifford_torus_patch m=4": make_surface("clifford_torus_patch", grid, m=4),
               "perturbed catenoid seed=0 m=3": perturb_normal(make_surface("catenoid", grid), seed=0)}
    for name, patch in patches.items():
        reports = [residual_report(patch.with_phi(sym(patch.phi) + 0.0)) for sym in SYMMETRIES]
        moves = {key: relative_move(value, [r[key] for r in reports[1:]]) for key, value in reports[0].items()}
        key = max(moves, key=moves.get)
        print(f"{name} n={args.n}: {moves[key]:.2g} ({key})")


if __name__ == "__main__":
    main()
