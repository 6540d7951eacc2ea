#!/usr/bin/env python3
"""Conservation laws in divergence form, surface by surface.

The star of the show is the field

    Q = grad H - 3 pi_n(grad H) + star(grad_perp n ^ H),

whose divergence vanishes exactly on Willmore patches.  This script
builds the analytic catalog, evaluates div Q under grid refinement, and
shows the clean separation between Willmore surfaces (residual -> 0 at
second order) and the round cylinder (residual -> 1/(4 rho^3) in
Euler-Lagrange normalization).
"""

from willmore_lab import conservation as cons
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid, interior_sup


SURFACES = [
    ("plane", {}, 0.5),
    ("sphere", {"rho": 1.0}, 0.5),
    ("catenoid", {}, 0.5),
    ("enneper", {}, 0.4),
    ("clifford_torus_patch", {}, 0.5),
    ("cylinder", {"rho": 1.0}, 0.5),
]

print("Willmore residual -(1/2) e^{-2 lam} div Q, interior sup norm")
print(f"{'surface':24s} {'n=65':>12s} {'n=129':>12s} {'n=257':>12s}  verdict")
for kind, params, s in SURFACES:
    sups = []
    for n in (65, 129, 257):
        bundle = im.make_bundle(im.make_surface(kind, Grid(s, n), **params))
        sups.append(interior_sup(bundle.grid, cons.willmore_residual(bundle)))
    verdict = "Willmore" if sups[-1] < 1e-3 else f"not Willmore (-> {sups[-1]:.4f})"
    print(f"{kind:24s} {sups[0]:12.3e} {sups[1]:12.3e} {sups[2]:12.3e}  {verdict}")

print()
print("The cylinder limit is the hand-derived value 1/(4 rho^3):")
for rho in (1.0, 1.5, 2.0):
    bundle = im.make_bundle(im.make_surface("cylinder", Grid(0.5, 129), rho=rho))
    sup = interior_sup(bundle.grid, cons.willmore_residual(bundle))
    print(f"  rho = {rho}: residual {sup:.6f}   1/(4 rho^3) = {0.25 / rho**3:.6f}")

print()
print("Tangency identities of Q hold on every conformal patch, Willmore or not:")
for kind, params, s in SURFACES[1:]:
    bundle = im.make_bundle(im.make_surface(kind, Grid(s, 129), **params))
    dot, wedge = cons.tangency_identities(bundle)
    print(f"  {kind:24s} grad Phi . Q: {dot:.2e}   grad Phi ^ Q + 2 grad Phi ^ grad H: {wedge:.2e}")

print()
print("Potential recovery grad_perp L = Q (componentwise curl potentials):")
for kind, params in (("sphere", {"rho": 1.0}), ("clifford_torus_patch", {}), ("cylinder", {"rho": 1.0})):
    bundle = im.make_bundle(im.make_surface(kind, Grid(0.5, 129), **params))
    rec = cons.recover_L(bundle)
    note = "exact potential (Willmore)" if rec.defect < 1e-3 else "no potential: div Q != 0"
    print(f"  {kind:24s} defect {rec.defect:.3e}   {note}")
