#!/usr/bin/env python3
"""Lorentz norms by rearrangement, and the Wente constant, empirically.

The weak-L^2 norm of 1/|x| is a classical exact value: on the range
where the level sets are disks, f**(t) = 2 sqrt(pi/t), so
||f||_{2,inf} = 2 sqrt(pi).  The script recovers it from the discrete
rearrangement, then estimates the square-domain constants of the Wente
estimates

    ||grad u||_L2    <~ ||grad a||_L2 ||grad b||_{2,inf}
    ||grad u||_{2,1} <~ ||grad a||_L2 ||grad b||_L2

for Lap u = grad a . grad_perp b over seeded random pairs.
"""

import numpy as np

from willmore_lab import diskgrid as dg
from willmore_lab import lorentz as lo
from willmore_lab.diskgrid import Grid

print("== Non-increasing rearrangement of 1/|x| on the square ==")
grid = Grid(0.5, 513)
X1, X2 = grid.nodes()
r = np.hypot(X1, X2)
origin = r < 1e-14          # singular cell indexed out, bounded analytically
f = np.zeros_like(r)
f[~origin] = 1.0 / r[~origin]
profile = lo.rearrange(grid, f[~origin])
sel = (profile.t > 0.02) & (profile.t < 0.2)
fit = profile.fstar[sel] * np.sqrt(profile.t[sel] / np.pi)
print(f"level sets are disks: f*(t) sqrt(t/pi) = 1 within "
      f"[{fit.min():.4f}, {fit.max():.4f}] on the disk range")
weak = lo.lorentz_norm(profile, 2.0, np.inf)
print(f"||1/|x|||_(2,inf) = {weak:.5f}   analytic 2 sqrt(pi) = {2 * np.sqrt(np.pi):.5f}")

print()
print("== L^{2,2} coincides with L^2 up to the Hardy factor <= 2 ==")
g65 = Grid(0.5, 65)
ratios = []
for seed in range(50):
    field = lo.random_band_limited(g65, seed)
    ratios.append(lo.lorentz_norm(lo.rearrange(g65, field), 2.0, 2.0) / dg.l2norm(g65, field))
print(f"50 random fields: ratio in [{min(ratios):.4f}, {max(ratios):.4f}]")

print()
print("== Empirical Wente constants of the square (100 seeded pairs) ==")
for n in (129, 257):
    gridn = Grid(0.5, n)
    r2, r21 = [], []
    for seed in range(100):
        a = lo.random_band_limited(gridn, 2 * seed)
        b = lo.random_band_limited(gridn, 2 * seed + 1)
        res = lo.wente_solve(gridn, a, b)
        r2.append(res.ratio_L2)
        r21.append(res.ratio_L21)
    print(f"n = {n}: max/mean ratio_L2 = {max(r2):.4f}/{np.mean(r2):.4f}   "
          f"max/mean ratio_L21 = {max(r21):.4f}/{np.mean(r21):.4f}")
print("(the constants are the square's, not the disk's; corner effects are")
print(" reported through this harness rather than analyzed)")
