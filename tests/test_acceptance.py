"""Acceptance suite: one test per criterion, one printed line each.

Conventions used throughout:

* identity residuals are interior sup-norms normalized by the surface
  scale sup e^{2 lambda}(1 + |H|^2 + |B|^2); divQ_inf (the Willmore
  residual) is absolute, in Euler-Lagrange normalization, so the unit
  cylinder converges to 1/(4 rho^3) = 1/4;
* refinement ratios compare n = 129 to n = 257 and must land in
  [3.4, 4.6] unless both values sit below the floating floor (an
  identically-zero identity cannot decrease);
* the Hodge harmonicity criterion is evaluated on the central
  half-width window, in the spirit of interior elliptic estimates on
  the half-disk.
"""

import time

import numpy as np
import pytest

from willmore_lab import confwillmore as cw
from willmore_lab import conservation as cons
from willmore_lab import diskgrid as dg
from willmore_lab import flow as fl
from willmore_lab import immersion as im
from willmore_lab import lorentz as lo
from willmore_lab import multivec as mv
from willmore_lab.diskgrid import Grid, interior_sup

RATIO_BAND = (3.4, 4.6)
FLOOR = 1e-9


def ratio_ok(coarse, fine, band=RATIO_BAND, floor=FLOOR):
    if fine < floor:
        return True  # at the floating floor: six orders below the targets
    return band[0] <= coarse / fine <= band[1]


def announce(num, ok, text):
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'}: {text}")


def identity_statistics(kind, n, s, **params):
    grid = Grid(s, n)
    bundle = im.make_bundle(im.make_surface(kind, grid, **params))
    dot, wedge = cons.tangency_identities(bundle)
    cdata = cw.extract_A_f(bundle)
    sr = cons.build_S_R(bundle, cdata.L)
    a4, a5 = cw.frame_derivative_residuals(bundle)
    lap_phi = dg.laplace(grid, bundle.phi) - 2.0 * bundle.area_density[..., None] * bundle.H
    raw = {
        "b1_dot": dot,
        "b1_wedge": wedge,
        "r1b_phi": cons.sr_system_residual(bundle, sr.S, sr.R)[2],
        "a4": a4,
        "a5": a5,
        "a10_codazzi": cw.codazzi_residual(bundle),
        "laplace_phi": interior_sup(grid, lap_phi),
    }
    scale = cons.surface_scale(bundle)
    return {key: value / scale for key, value in raw.items()}


SUITE_SURFACES = [
    ("sphere", 0.5, {"rho": 1.0}),
    ("cylinder", 0.5, {"rho": 1.0}),
    ("catenoid", 0.5, {}),
    ("enneper", 0.4, {}),
]


def test_criterion_1_unconditional_identity_suite():
    problems = []
    for kind, s, params in SUITE_SURFACES:
        start = time.perf_counter()
        coarse = identity_statistics(kind, 129, s, **params)
        fine = identity_statistics(kind, 257, s, **params)
        elapsed = time.perf_counter() - start
        for key in coarse:
            if not ratio_ok(coarse[key], fine[key]):
                problems.append(f"{kind}/{key} ratio {coarse[key]:.2e}->{fine[key]:.2e}")
            if fine[key] >= 1e-3:
                problems.append(f"{kind}/{key} value {fine[key]:.2e} >= 1e-3 at n=257")
        if elapsed >= 60.0:
            problems.append(f"{kind} runtime {elapsed:.1f}s >= 60s")
    ok = not problems
    announce(1, ok, "unconditional identities (b1, r1b, a4/a5, a10, Laplace Phi) "
                    "refine in [3.4, 4.6] and sit below 1e-3 at n=257"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_2_willmore_separation():
    problems = []
    for kind, params in [
        ("sphere", {"rho": 1.0}),
        ("catenoid", {}),
        ("enneper", {}),
        ("clifford_torus_patch", {}),
    ]:
        s = 0.4 if kind == "enneper" else 0.5
        grid = Grid(s, 257)
        bundle = im.make_bundle(im.make_surface(kind, grid, **params))
        sup = interior_sup(grid, cons.willmore_residual(bundle))
        if sup >= 1e-3:
            problems.append(f"{kind} willmore residual {sup:.2e} >= 1e-3")
    grid = Grid(0.5, 257)
    bundle = im.make_bundle(im.make_surface("cylinder", grid, rho=1.0))
    sup = interior_sup(grid, cons.willmore_residual(bundle))
    if not 0.95 * 0.25 <= sup <= 1.05 * 0.25:
        problems.append(f"cylinder residual {sup:.5f} not within 5% of 1/4")
    ok = not problems
    announce(2, ok, f"Willmore surfaces < 1e-3, cylinder(1) at {sup:.5f} ~ 1/4"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_3_conformal_willmore_closure_cylinder():
    stats = {}
    for n in (129, 257):
        grid = Grid(0.5, n)
        bundle = im.make_bundle(im.make_surface("cylinder", grid, rho=1.0))
        cdata = cw.extract_A_f(bundle)
        stats[n] = {
            "f_err": interior_sup(grid, cdata.f - 0.5),
            "holo": cdata.holomorphy_defect,
            "cw": interior_sup(grid, cw.conformal_willmore_residual(bundle, cdata.f)),
            "eq13": cw.eq13_residual(bundle, cdata.f, cdata.L) / cons.surface_scale(bundle),
        }
    problems = []
    if stats[257]["f_err"] >= 1e-3:
        problems.append(f"|f - 1/2| = {stats[257]['f_err']:.2e}")
    if not ratio_ok(stats[129]["holo"], stats[257]["holo"], floor=1e-8):
        problems.append(f"holomorphy defect ratio {stats[129]['holo']:.2e}->{stats[257]['holo']:.2e}")
    if stats[257]["cw"] >= 1e-3:
        problems.append(f"cw residual {stats[257]['cw']:.2e}")
    if stats[257]["eq13"] >= 1e-2:
        problems.append(f"eq13 residual {stats[257]['eq13']:.2e}")
    ok = not problems
    announce(3, ok, f"cylinder: f = 1/2 +- {stats[257]['f_err']:.1e}, holomorphy defect "
                    f"{stats[257]['holo']:.1e}, cw residual {stats[257]['cw']:.1e}, "
                    f"Lap(L - L0) = 2iH0f closes to {stats[257]['eq13']:.1e}"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_4_sr_system_with_negative_control():
    vals = {}
    for n in (129, 257):
        grid = Grid(0.5, n)
        bundle = im.make_bundle(im.make_surface("sphere", grid, rho=1.0))
        sr = cons.build_S_R(bundle, cons.recover_L(bundle).u)
        srS, srR, _ = cons.sr_system_residual(bundle, sr.S, sr.R)
        raw = {"S_defect": sr.S_defect, "R_defect": sr.R_defect, "srS": srS, "srR": srR}
        vals[n] = {key: value / cons.surface_scale(bundle) for key, value in raw.items()}
    problems = []
    for key in vals[129]:
        coarse, fine = vals[129][key], vals[257][key]
        if fine >= 1e-2:
            problems.append(f"sphere {key} = {fine:.2e} >= 1e-2")
        if fine > max(coarse / 2.0, FLOOR):
            problems.append(f"sphere {key} not O(h^2): {coarse:.2e} -> {fine:.2e}")
    grid = Grid(0.5, 257)
    control = im.make_bundle(im.make_surface("graph_perturbation", grid, seed=0, amplitude=0.05))
    src = cons.build_S_R(control, cons.recover_L(control).u)
    srS_c, srR_c, _ = cons.sr_system_residual(control, src.S, src.R)
    floor_stats = vals[257]
    for key, raw in (("R_defect", src.R_defect), ("srS", srS_c), ("srR", srR_c)):
        value = raw / cons.surface_scale(control)
        if value <= 10.0 * max(floor_stats[key], 1e-12):
            problems.append(f"control {key} = {value:.2e} not > 10x sphere floor {floor_stats[key]:.2e}")
    ok = not problems
    announce(4, ok, f"sphere S/R defects and system residuals < 1e-2 at n=257 "
                    f"(max {max(vals[257].values()):.1e}); graph control exceeds the floor 10x"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_5_lorentz_norms():
    problems = []
    g65 = Grid(0.5, 65)
    rng = np.random.default_rng(42)
    f = rng.normal(size=(65, 65))
    prof = lo.rearrange(g65, f)
    if not np.array_equal(np.sort(prof.fstar), np.sort(np.abs(f).ravel())):
        problems.append("rearrangement not exactly equimeasurable")
    g = Grid(0.5, 513)
    X1, X2 = g.nodes()
    r = np.hypot(X1, X2)
    exclude = r < 1e-14
    recip = np.zeros_like(r)
    recip[~exclude] = 1.0 / r[~exclude]
    weak = lo.lorentz_norm(lo.rearrange(g, recip[~exclude]), 2.0, np.inf)
    target = 2.0 * np.sqrt(np.pi)
    if abs(weak - target) >= 0.02 * target:
        problems.append(f"||1/|x|||_2,inf = {weak:.4f} vs {target:.4f}")
    ratios = []
    for seed in range(50):
        field = lo.random_band_limited(g65, seed)
        ratios.append(
            lo.lorentz_norm(lo.rearrange(g65, field), 2.0, 2.0) / dg.l2norm(g65, field)
        )
    if not all(1.0 - 1e-9 <= q <= 2.0 for q in ratios):
        problems.append(f"L22/L2 ratios outside [1,2]: {min(ratios):.3f}..{max(ratios):.3f}")
    ok = not problems
    announce(5, ok, f"rearrangement exact; weak norm {weak:.4f} ~ 2 sqrt(pi) within 2%; "
                    f"L22/L2 in [{min(ratios):.3f}, {max(ratios):.3f}]"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_6_wente_harness():
    start = time.perf_counter()
    maxima = {}
    for n in (129, 257):
        grid = Grid(0.5, n)
        r2s, r21s = [], []
        for seed in range(100):
            a = lo.random_band_limited(grid, 2 * seed)
            b = lo.random_band_limited(grid, 2 * seed + 1)
            res = lo.wente_solve(grid, a, b)
            assert np.isfinite(res.ratio_L2) and np.isfinite(res.ratio_L21)
            r2s.append(res.ratio_L2)
            r21s.append(res.ratio_L21)
        maxima[n] = (max(r2s), max(r21s))
    elapsed = time.perf_counter() - start
    change_2 = abs(maxima[129][0] - maxima[257][0]) / maxima[257][0]
    change_21 = abs(maxima[129][1] - maxima[257][1]) / maxima[257][1]
    problems = []
    if change_2 >= 0.10:
        problems.append(f"max ratio_L2 changes {change_2:.1%}")
    if change_21 >= 0.10:
        problems.append(f"max ratio_L21 changes {change_21:.1%}")
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.0f}s >= 5 min")
    ok = not problems
    announce(6, ok, f"100 seeded pairs: max ratio_L2 {maxima[257][0]:.4f} "
                    f"(change {change_2:.2%}), max ratio_L21 {maxima[257][1]:.4f} "
                    f"(change {change_21:.2%}), {elapsed:.0f}s"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_7_hodge_decomposition():
    sups = {}
    for n in (129, 257):
        grid = Grid(0.5, n)
        g1 = lo.random_band_limited(grid, 100, kmax=1)
        g2 = lo.random_band_limited(grid, 101, kmax=1)
        gv = np.stack([g1, g2])
        gv = gv / np.max(np.abs(gv))
        parts = dg.hodge_decompose(grid, gv)
        recon = dg.grad(grid, parts.alpha) + dg.grad_perp(grid, parts.beta) + parts.harmonic
        assert np.max(np.abs(recon - gv)) < 1e-13  # exact by construction
        lap = np.stack([dg.laplace(grid, parts.harmonic[j]) for j in range(2)])
        q = (n - 1) // 4
        window = (slice(None), slice(q, n - q), slice(q, n - q))
        sups[n] = float(np.max(np.abs(lap[window])))
    problems = []
    if not ratio_ok(sups[129], sups[257]):
        problems.append(f"harmonicity not O(h^2): {sups[129]:.2e} -> {sups[257]:.2e}")
    if sups[257] >= 1e-3:
        problems.append(f"harmonicity residual {sups[257]:.2e} >= 1e-3 at n=257")
    ok = not problems
    announce(7, ok, f"reconstruction exact; |Lap h| on the central window "
                    f"{sups[129]:.2e} -> {sups[257]:.2e}"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


def test_criterion_8_flow_palais_smale_generator():
    grid = Grid(0.5, 65)
    pert = im.perturb_normal(im.make_surface("catenoid", grid), seed=0, amplitude=0.05)
    trace = fl.run(pert, max_iters=500, stop_ratio=0.0)
    energies = trace.energies()
    problems = []
    if not np.all(np.diff(energies) <= 0.0):
        problems.append("energy trace increased")
    ratio = trace.final.ps / trace.initial.ps
    if ratio >= 0.2:
        problems.append(f"final ps/initial ps = {ratio:.3f} >= 0.2")
    if len(trace.states) - 1 > 500:
        problems.append("exceeded 500 iterations")
    sphere = im.make_surface("sphere", grid, rho=1.0)
    sphere_trace = fl.run(sphere, max_iters=500, stop_ratio=1.01)
    floor = sphere_trace.initial.ps
    if len(sphere_trace.states) != 1 or sphere_trace.stopped_by != "threshold":
        problems.append("sphere run did not terminate immediately at the floor")
    ok = not problems
    announce(8, ok, f"perturbed catenoid: ps ratio {ratio:.3f} after "
                    f"{len(trace.states) - 1} iterations, energies non-increasing; "
                    f"sphere stops at its ps floor {floor:.2e}"
                    + ("" if ok else "; " + "; ".join(problems)))
    assert ok, problems


# -- criterion 9: independent tuple-based oracles for the multivector kernel --

def _sorted_sign(seq):
    """Sign of the permutation sorting seq (None if repeated indices)."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return None, ()
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign, tuple(seq)


def _oracle_wedge(a, b):
    sign, merged = _sorted_sign(a + b)
    return {} if sign is None else {merged: float(sign)}


def _oracle_inner(a, b):
    return 1.0 if a == b else 0.0


def _oracle_interior(m, g, b):
    # <g interior b, alpha> = <g, b ^ alpha> over the full grade basis
    from itertools import combinations

    out = {}
    for k in [len(g) - len(b)] if len(g) >= len(b) else []:
        for alpha in combinations(range(1, m + 1), k):
            val = 0.0
            for merged, sign in _oracle_wedge(b, alpha).items():
                val += sign * _oracle_inner(g, merged)
            if val != 0.0:
                out[alpha] = out.get(alpha, 0.0) + val
    return {k: v for k, v in out.items() if v != 0.0}


def _oracle_bullet(m, a, b):
    if len(b) <= 1:
        return _oracle_interior(m, a, b) if len(b) == 1 else {a: 1.0}
    head, rest = (b[0],), b[1:]
    out = {}
    for mask, coeff in _oracle_bullet(m, a, head).items():
        for merged, sign in _oracle_wedge(mask, rest).items():
            out[merged] = out.get(merged, 0.0) + coeff * sign
    par = (-1.0) ** len(rest)
    for mask, coeff in _oracle_bullet(m, a, rest).items():
        for merged, sign in _oracle_wedge(mask, head).items():
            out[merged] = out.get(merged, 0.0) + par * coeff * sign
    return {k: v for k, v in out.items() if v != 0.0}


def test_criterion_9_multivector_kernel_oracles():
    from itertools import combinations

    problems = []
    for m in (3, 4, 5, 6):
        blades = [c for k in range(m + 1) for c in combinations(range(1, m + 1), k)]
        mask_of = {c: sum(1 << (i - 1) for i in c) for c in blades}
        unit = np.eye(1 << m)  # node j of this 1-d field is the basis blade of mask j
        basis = mv.BladeRows.from_dense(unit)
        rows_of = {c: mv.BladeRows.from_dense(unit[mask_of[c]]) for c in blades}
        # interior adjointness on the full enumeration
        for g in blades:
            for b in [b for b in blades if len(b) <= len(g)]:
                # <g interior b, alpha> for every alpha at once: the 0-d field broadcasts over the basis
                got = mv.field_inner(mv.field_interior(rows_of[g], rows_of[b]), basis)
                want = _oracle_interior(m, g, b)
                for alpha in blades:
                    if abs(got[mask_of[alpha]] - want.get(alpha, 0.0)) > 1e-12:
                        problems.append(f"m={m} interior({g},{b}) @ {alpha}")
        # double-star sign law on the full enumeration
        for b in blades:
            k = len(b)
            got = mv.field_hodge(mv.field_hodge(rows_of[b])).dense()
            want = (-1.0) ** (k * (m - k)) * unit[mask_of[b]]
            if not np.allclose(got, want, atol=1e-12, rtol=0.0):
                problems.append(f"m={m} star&star {b}")
        # the star's defining law a ^ star(b) = <a, b> e_1 ^ ... ^ e_m for every pair of same-grade
        # blades (the double-star law holds for either orientation; this one pins it)
        full = (1 << m) - 1
        starred = mv.field_hodge(basis)  # node j: star of the basis blade of mask j
        for a in blades:
            got = mv.field_wedge(rows_of[a], starred).dense()
            for b in [b for b in blades if len(b) == len(a)]:
                want = _oracle_inner(a, b) * unit[full]
                if not np.allclose(got[mask_of[b]], want, atol=1e-12, rtol=0.0):
                    problems.append(f"m={m} {a}^star{b}")
        # bullet recursion against the independent tuple recursion
        for a in blades:
            for b in blades:
                got = mv.field_bullet(rows_of[a], rows_of[b]).dense()
                expect = np.zeros(1 << m)
                for c, v in _oracle_bullet(m, a, b).items():
                    expect[mask_of[c]] = v
                if not np.allclose(got, expect, atol=1e-12):
                    problems.append(f"m={m} bullet({a},{b})")
    ok = not problems
    announce(9, ok, "interior adjointness, double-star sign law, the star's defining law a ^ star b = <a, b> vol, "
                    "and the bullet recursion match brute-force oracles on full blade enumerations, m = 3..6"
                    + ("" if ok else "; first failures: " + "; ".join(problems[:5])))
    assert ok, problems[:20]
