#!/usr/bin/env python3
"""Willmore-energy descent as a Palais-Smale sequence generator.

Starting from a catenoid with a smooth normal bump, the fixed-boundary
descent drives the energy monotonically down while the stationarity
proxy (an H^{-1}-type norm of div Q) collapses: a desk-scale instance
of the sequences whose limits satisfy the conservation system.  A round
sphere starts at its discretization floor and stops immediately.
"""

import numpy as np

from willmore_lab import flow as fl
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid

grid = Grid(0.5, 65)

print("== Perturbed catenoid, amplitude 0.05, fixed boundary ring ==")
patch = im.perturb_normal(im.make_surface("catenoid", grid), seed=0, amplitude=0.05)
trace = fl.run(patch, max_iters=200)
print(f"{'iter':>6s} {'energy':>12s} {'ps_norm':>12s} {'conf defect':>12s} {'tau':>10s}")
for i in [0, 1, 2, 5, 10, 20, 50, 100, 200]:
    if i < len(trace.states):
        s = trace.states[i]
        print(f"{i:6d} {s.energy:12.6f} {s.ps:12.4e} {s.conformal_defect:12.4e} {s.tau:10.2e}")
energies = trace.energies()
print(f"energies non-increasing: {bool(np.all(np.diff(energies) <= 0.0))}")
print(f"stationarity norm reduced by {trace.initial.ps / trace.final.ps:.1f}x "
      f"({trace.initial.ps:.3e} -> {trace.final.ps:.3e})")
print("note: conformality drifts and is recorded, never silently repaired")

print()
print("== Round sphere: already critical, stops at the discretization floor ==")
sphere = im.make_surface("sphere", grid, rho=1.0)
sphere_trace = fl.run(sphere, max_iters=500, stop_ratio=1.01)
floor = sphere_trace.initial.ps
print(f"ps floor {floor:.3e}; accepted steps: {len(sphere_trace.states) - 1}; "
      f"stopped by: {sphere_trace.stopped_by}")

print()
print("== The floor is a discretization artifact: it refines at O(h^2) ==")
for n in (33, 65, 129):
    b = im.make_bundle(im.make_surface("sphere", Grid(0.5, n), rho=1.0))
    print(f"  n = {n:4d}: ps floor {fl.ps_norm(b):.4e}")
