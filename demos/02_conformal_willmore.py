#!/usr/bin/env python3
"""The conformal Willmore equation and its holomorphic multiplier.

A CMC cylinder is not Willmore, but it is a critical point of the
Willmore energy under conformal variations: the Euler-Lagrange equation
picks up the right-hand side e^{-2 lambda} Re(f H0) for a holomorphic
function f, which for radius rho is the constant 1/(2 rho^2).

This script extracts f from the integrability structure of the
conservation-law potential, confirms it is the predicted constant,
plugs it back into the conformal Willmore equation, and closes the loop
with the potential-difference identity Lap(L - L0) = 2 i H0 f.
"""

from willmore_lab import confwillmore as cw
from willmore_lab import conservation as cons
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid, interior_sup


print("== CMC cylinder: the constrained multiplier is f = 1/(2 rho^2) ==")
for rho in (1.0, 1.5):
    grid = Grid(0.5, 257)
    bundle = im.make_bundle(im.make_surface("cylinder", grid, rho=rho))
    data = cw.extract_A_f(bundle)
    f_center = data.f[grid.n // 2, grid.n // 2]
    print(f"rho = {rho}:")
    print(f"  extracted f at the center   {f_center:.8f}")
    print(f"  predicted 1/(2 rho^2)       {0.5 / rho**2:.8f}")
    print(f"  sup |f - prediction|        {interior_sup(grid, data.f - 0.5 / rho**2):.2e}")
    print(f"  holomorphy defect           {data.holomorphy_defect:.2e}")
    resid_f = cw.conformal_willmore_residual(bundle, data.f)
    resid_0 = cw.conformal_willmore_residual(bundle, 0.0)
    print(f"  cw residual with f          {interior_sup(grid, resid_f):.2e}")
    print(f"  cw residual with f = 0      {interior_sup(grid, resid_0):.6f}"
          f"   (the Willmore defect 1/(4 rho^3) = {0.25 / rho**3:.6f})")
    print(f"  Lap(L - L0) - 2 i H0 f      {cw.eq13_residual(bundle, data.f, data.L):.2e}")

print()
print("== Genus-zero patches carry no quadratic differential: f -> 0 ==")
for kind, params in (("sphere", {"rho": 1.0}), ("catenoid", {}), ("clifford_torus_patch", {})):
    sups = []
    for n in (129, 257):
        grid = Grid(0.5, n)
        bundle = im.make_bundle(im.make_surface(kind, grid, **params))
        sups.append(interior_sup(grid, cw.extract_A_f(bundle).f))
    print(f"  {kind:24s} sup|f|: {sups[0]:.3e} (n=129) -> {sups[1]:.3e} (n=257)")

print()
print("== Unconditional complex-frame identities (interior sup, normalized) ==")
for kind, params in (("sphere", {"rho": 1.0}), ("cylinder", {"rho": 1.0}), ("clifford_torus_patch", {})):
    bundle = im.make_bundle(im.make_surface(kind, Grid(0.5, 129), **params))
    a4, a5 = cw.frame_derivative_residuals(bundle)
    print(f"  {kind:24s} frame derivatives {a4:.2e} / {a5:.2e}   "
          f"Codazzi-Mainardi {cw.codazzi_residual(bundle):.2e}")

print()
print("Energy of the Gauss map per patch (the smallness hypothesis is reported, never asserted):")
for kind, params in (("sphere", {"rho": 1.0}), ("cylinder", {"rho": 1.0}), ("clifford_torus_patch", {})):
    bundle = im.make_bundle(im.make_surface(kind, Grid(0.5, 129), **params))
    print(f"  {kind:24s} integral |grad n|^2 = {cw.gauss_map_energy(bundle):.4f}")
