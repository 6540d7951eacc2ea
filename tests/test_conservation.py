"""Divergence-form conservation laws: oracle values and negative controls.

Hand-derived oracle facts used below (unit cylinder, radius rho = 1,
outward normal n):
    Q          = (-e1, e2) / (2 rho^2)
    div Q      = n / (2 rho^3), so the Euler-Lagrange-normalized residual
                 has magnitude 1/(4 rho^3) = 1/4
    the system potential L solving the conservation system is constant.
Round spheres satisfy Q = 0 identically.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from willmore_lab import conservation as cons
from willmore_lab import diskgrid as dg
from willmore_lab import immersion as im
from willmore_lab import multivec as mv
from willmore_lab.diskgrid import Grid, interior_sup

G65 = Grid(0.5, 65)
G129 = Grid(0.5, 129)


def bundle(kind, grid=G129, m=3, **params):
    return im.make_bundle(im.make_surface(kind, grid, m=m, **params))


class TestAssembleQ:
    def test_plane_zero(self):
        b = bundle("plane", G65)
        assert np.max(np.abs(cons.assemble_Q(b))) == 0.0

    def test_minimal_surfaces_zero(self):
        # every term of Q carries H or grad H
        for kind in ("catenoid", "enneper"):
            b = bundle(kind, G65)
            assert np.max(np.abs(cons.assemble_Q(b))) < 1e-12

    def test_sphere_Q_vanishes_identically(self):
        # grad H = -grad Phi cancels the star term exactly on round spheres
        b = bundle("sphere", rho=1.0)
        Q = cons.assemble_Q(b)
        assert interior_sup(G129, Q[0]) + interior_sup(G129, Q[1]) < 1e-3

    def test_cylinder_Q_closed_form(self):
        b = bundle("cylinder", rho=1.0)
        Q = cons.assemble_Q(b)
        expect0 = -0.5 * b.jet.d1 / b.elam[..., None]  # e_i = e^-lambda d_i Phi
        expect1 = 0.5 * b.jet.d2 / b.elam[..., None]
        assert interior_sup(G129, Q[0] - expect0) < 1e-5
        assert interior_sup(G129, Q[1] - expect1) < 1e-5

    def test_replaced_bundle_does_not_reuse_memoized_Q(self):
        b = bundle("cylinder", G65, rho=1.0)
        Q = b.derived(cons.assemble_Q)
        assert b.derived(cons.assemble_Q) is Q
        scaled = replace(b, H=2.0 * b.H)
        Q2 = scaled.derived(cons.assemble_Q)
        assert Q2 is not Q
        assert np.array_equal(Q2, cons.assemble_Q(scaled))
        assert np.max(np.abs(Q2 - 2.0 * Q)) < 1e-12 * np.max(np.abs(Q))


class TestWillmoreResidual:
    @pytest.mark.parametrize("kind,params", [
        ("sphere", {"rho": 1.0}),
        ("clifford_torus_patch", {}),
    ])
    def test_willmore_surfaces_converge(self, kind, params):
        sups = []
        for n in (129, 257):
            g = Grid(0.5, n)
            b = bundle(kind, g, **params)
            sups.append(interior_sup(g, cons.willmore_residual(b)))
        assert 3.4 <= sups[0] / sups[1] <= 4.6
        assert sups[1] < 1e-3

    def test_cylinder_residual_is_quarter(self):
        # not Willmore: the residual converges to magnitude 1/(4 rho^3)
        for rho in (1.0, 1.5):
            b = bundle("cylinder", rho=rho)
            wr = cons.willmore_residual(b)
            sup = interior_sup(G129, wr)
            assert sup == pytest.approx(0.25 / rho**3, rel=1e-3)

    def test_divergence_normalization_factor(self):
        # div Q = -2 e^{2 lambda} * (EL residual), checked off-shell
        b = bundle("cylinder", rho=1.0)
        raw = dg.div(G129, cons.assemble_Q(b))
        el = cons.willmore_residual(b)
        resid = raw + 2.0 * b.area_density[..., None] * el
        assert interior_sup(G129, resid) < 1e-10  # definitionally tied
        # and the EL residual is the classical Willmore operator: compare
        # against the independent cw-form assembly on the cylinder
        from willmore_lab.confwillmore import conformal_willmore_residual

        lhs = conformal_willmore_residual(b, 0.0)
        assert interior_sup(G129, lhs - el) < 1e-4


class TestTangencyIdentities:
    def test_plane_exact_zero(self):
        b = bundle("plane", G65)
        dot, wedge = (r / cons.surface_scale(b) for r in cons.tangency_identities(b))
        assert dot == 0.0 and wedge == 0.0

    @pytest.mark.parametrize("kind,params", [
        ("sphere", {"rho": 1.0}),
        ("cylinder", {"rho": 1.0}),          # holds although not Willmore
        ("clifford_torus_patch", {}),
    ])
    def test_unconditional_convergence(self, kind, params):
        vals = []
        for n in (129, 257):
            b = bundle(kind, Grid(0.5, n), **params)
            vals.append([r / cons.surface_scale(b) for r in cons.tangency_identities(b)])
        dot_c, wedge_c = vals[0]
        dot_f, wedge_f = vals[1]
        assert dot_f < max(1e-12, dot_c)
        assert wedge_f < max(1e-12, wedge_c)
        assert dot_f < 1e-4 and wedge_f < 1e-4


class TestRecoverL:
    def test_plane_zero(self):
        b = bundle("plane", G65)
        rec = cons.recover_L(b)
        assert np.max(np.abs(rec.u)) < 1e-12
        assert rec.defect / cons.surface_scale(b) < 1e-12

    def test_sphere_defect_converges(self):
        defs = []
        for n in (129, 257):
            rec = cons.recover_L(bundle("sphere", Grid(0.5, n), rho=1.0))
            defs.append(rec.defect)
        assert defs[1] < defs[0]
        assert defs[1] < 1e-4

    def test_cylinder_defect_bounded_away_from_zero(self):
        # div Q != 0: no exact rotated-gradient potential exists
        defs = []
        for n in (65, 129):
            rec = cons.recover_L(bundle("cylinder", Grid(0.5, n), rho=1.0))
            defs.append(rec.defect)
        assert min(defs) > 0.01
        assert abs(defs[0] - defs[1]) < 0.2 * defs[0]

    def test_mean_zero_per_component(self):
        rec = cons.recover_L(bundle("clifford_torus_patch", G65))
        w = np.ones(G65.n)
        w[0] = w[-1] = 0.5
        W = np.outer(w, w)
        for k in range(3):
            assert abs(np.sum(W * rec.u[..., k])) < 1e-8 * W.sum()


class TestL0:
    @pytest.mark.parametrize("kind,params,m", [
        ("sphere", {"rho": 1.0}, 3),
        ("cylinder", {"rho": 1.0}, 3),
        ("clifford_torus_patch", {}, 3),
        ("sphere", {"rho": 1.0}, 4),
        ("graph_perturbation", {"seed": 5, "amplitude": 0.02}, 4),
    ])
    def test_defining_combination_matches_closed_form(self, kind, params, m):
        b = bundle(kind, G129, m=m, **params)
        consistency = cons.assemble_L0(b) / cons.surface_scale(b)
        tol = 5e-4 if kind != "graph_perturbation" else 5e-3
        assert consistency < tol

    def test_consistency_converges(self):
        vals = []
        for n in (129, 257):
            b = bundle("cylinder", Grid(0.5, n), rho=1.0)
            vals.append(cons.assemble_L0(b) / cons.surface_scale(b))
        assert 3.4 <= vals[0] / vals[1] <= 4.6


class TestSRSystem:
    def test_plane_trivial(self):
        b = bundle("plane", G65)
        sr = cons.build_S_R(b, np.zeros((65, 65, 3)))
        assert np.max(np.abs(sr.S)) < 1e-12
        assert np.max(np.abs(sr.R.rows)) < 1e-12

    def test_sphere_defects_and_residuals(self):
        vals = []
        for n in (129, 257):
            b = bundle("sphere", Grid(0.5, n), rho=1.0)
            sr = cons.build_S_R(b, cons.recover_L(b).u)
            srS, srR = cons.sr_system_residual(b, sr.S, sr.R)
            vals.append([r / cons.surface_scale(b) for r in (sr.S_defect, sr.R_defect, srS, srR)])
        for c, f in zip(vals[0], vals[1]):
            assert f <= max(c, 1e-12)
        assert max(vals[1]) < 1e-2

    def test_cylinder_with_system_potential(self):
        # the conservation system on the CMC cylinder is solved by L = 0
        b = bundle("cylinder", rho=1.0)
        scale = cons.surface_scale(b)
        sr = cons.build_S_R(b, np.zeros_like(b.H))
        assert sr.S_defect / scale < 1e-12
        assert sr.R_defect / scale < 1e-4
        srS, srR = cons.sr_system_residual(b, sr.S, sr.R)
        assert srS / scale < 1e-6 and srR / scale < 1e-4

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", sorted(im.CATALOG))
    def test_star_of_grad_n_is_grad_of_star_n(self, kind, m):
        # the residual reads grad(star n) as star of the memoized grad n: the star is a signed
        # permutation of slots, so the two agree value for value (up to the sign of a zero)
        b = bundle(kind, Grid(0.5, 33), m=m)
        star_grad = mv.field_hodge(cons._grad_gauss(b))
        grad_star = mv.field_slotwise(partial(dg.grad, b.grid), mv.field_hodge(b.gauss))
        assert np.array_equal(star_grad.dense(), grad_star.dense())

    @pytest.mark.parametrize("n", [33, 65])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", sorted(im.CATALOG) + ["perturbed sphere"])
    def test_laplacians_from_the_rotated_gradients_keep_the_bits(self, kind, m, n):
        # the residual reads Lap S and Lap R as curl(grad_perp S) and curl(grad_perp R); the reference
        # forms them with dg.laplace, as div(grad), and every other term as the residual does.  The
        # routes differ at most in the sign of an exact zero, which no residual norm sees: the raw
        # sups agree bit for bit, and so do the report's values, each divided by the surface scale
        grid = Grid(0.5, n)
        if kind == "perturbed sphere":  # no analytic jet: the FD jet
            b = im.make_bundle(im.perturb_normal(im.make_surface("sphere", grid, m=m), seed=2))
        else:
            b = bundle(kind, grid, m=m)
        sr = cons.build_S_R(b, cons.recover_L(b).u)
        S, R, scale, blades = sr.S, sr.R, cons.surface_scale(b), mv.grade_masks(m, 2)
        gn = b.derived(cons._grad_gauss)
        gstarn, gperpS = mv.field_hodge(gn), dg.grad_perp(grid, S)
        gperpR = mv.field_slotwise(partial(dg.grad_perp, grid), R)
        res_S = dg.laplace(grid, S) - sum(mv.field_inner(gstarn, gperpR))
        gs = gstarn.part(blades)
        bullet = mv.field_bullet(gn, gperpR)
        contraction = mv.field_hodge(bullet._replace(rows=bullet.rows[:, 0] + bullet.rows[:, 1])).part(blades)
        rhs = (-1.0) ** m * contraction - (gs[:, 0] * gperpS[0] + gs[:, 1] * gperpS[1])
        res_R = mv.BladeRows(m, blades, mv.field_slotwise(partial(dg.laplace, grid), R).part(blades) - rhs)
        want = interior_sup(grid, res_S), interior_sup(grid, np.sqrt(mv.field_inner(res_R, res_R)))
        got = cons.sr_system_residual(b, S, R)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert (np.array(got) / scale).tobytes() == (np.array(want) / scale).tobytes()

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sign_exponent_is_ambient_dimension(self, m):
        # (-1)^m is consistent at O(h^2).  The flipped sign changes the R
        # residual by twice the contraction term star(grad n . grad_perp R),
        # which is O(1): over 100x the residual with (-1)^m
        b = bundle("sphere", G129, m=m, rho=1.0)
        sr = cons.build_S_R(b, cons.recover_L(b).u)
        good = cons.sr_system_residual(b, sr.S, sr.R)[1] / cons.surface_scale(b)
        grad_n = mv.field_slotwise(partial(dg.grad, G129), b.gauss)
        bullet = mv.field_bullet(grad_n, mv.field_slotwise(partial(dg.grad_perp, G129), sr.R))
        blades = mv.grade_masks(m, 2)
        term = mv.field_hodge(bullet._replace(rows=bullet.rows[:, 0] + bullet.rows[:, 1]))
        term = mv.BladeRows(m, blades, term.part(blades))
        size = interior_sup(G129, np.sqrt(mv.field_inner(term, term))) / cons.surface_scale(b)
        assert good < 5e-3
        assert size > 100.0 * good

    def test_clifford_nontrivial_potential(self):
        # L != 0, S != 0 here: exercises every term of the system
        vals = []
        for n in (129, 257):
            b = bundle("clifford_torus_patch", Grid(0.5, n))
            sr = cons.build_S_R(b, cons.recover_L(b).u)
            srS, srR = cons.sr_system_residual(b, sr.S, sr.R)
            phi = cons.phi_identity_residual(b, sr.S, sr.R)
            vals.append([r / cons.surface_scale(b) for r in (srS, srR, phi)])
        for c, f in zip(vals[0], vals[1]):
            assert 2.8 <= c / f <= 5.5
        assert max(vals[1]) < 1e-3

    def test_graph_negative_control(self):
        # off the conservation shell the defects stay > 10x the sphere floor
        b_sph = bundle("sphere", G129, rho=1.0)
        sr_sph = cons.build_S_R(b_sph, cons.recover_L(b_sph).u)
        b_g = bundle("graph_perturbation", G129, seed=11, amplitude=0.05)
        sr_g = cons.build_S_R(b_g, cons.recover_L(b_g).u)
        scale_sph, scale_g = cons.surface_scale(b_sph), cons.surface_scale(b_g)
        assert sr_g.R_defect / scale_g > 10.0 * max(sr_sph.R_defect / scale_sph, 1e-12)
        srR_g = cons.sr_system_residual(b_g, sr_g.S, sr_g.R)[1] / scale_g
        srR_s = cons.sr_system_residual(b_sph, sr_sph.S, sr_sph.R)[1] / scale_sph
        assert srR_g > 10.0 * srR_s


class TestPhiIdentity:
    def test_plane_zero(self):
        b = bundle("plane", G65)
        sr = cons.build_S_R(b, np.zeros((65, 65, 3)))
        assert cons.phi_identity_residual(b, sr.S, sr.R) / cons.surface_scale(b) < 1e-12

    @pytest.mark.parametrize("kind,params,Lmode", [
        ("sphere", {"rho": 1.0}, "recover"),
        ("cylinder", {"rho": 1.0}, "zero"),
        ("catenoid", {}, "zero"),
    ])
    def test_convergence(self, kind, params, Lmode):
        vals = []
        for n in (129, 257):
            b = bundle(kind, Grid(0.5, n), **params)
            L = np.zeros_like(b.H) if Lmode == "zero" else cons.recover_L(b).u
            sr = cons.build_S_R(b, L)
            vals.append(cons.phi_identity_residual(b, sr.S, sr.R) / cons.surface_scale(b))
        assert vals[1] < max(vals[0] / 3.0, 1e-10)
        assert vals[1] < 1e-4

    def test_sign_of_S_term_matters(self):
        # flipping grad S grad_perp Phi breaks the identity on a surface
        # with a genuinely nonzero potential: negative control
        b = bundle("clifford_torus_patch", G129)
        sr = cons.build_S_R(b, cons.recover_L(b).u)
        scale = cons.surface_scale(b)
        good = cons.phi_identity_residual(b, sr.S, sr.R) / scale
        bad = cons.phi_identity_residual(b, -sr.S, sr.R) / scale
        assert bad > 50.0 * good


def test_surface_scale_order_of_magnitude():
    assert cons.surface_scale(bundle("plane", G65)) == 1.0
    s = cons.surface_scale(bundle("sphere", G65, rho=1.0))
    assert 10.0 < s < 20.0  # sup 4 e^{2 lambda} with e^lambda <= 2


@pytest.mark.parametrize("kind,params,m,tol", [
    ("clifford_torus_patch", {}, 3, 5e-4),
    ("graph_perturbation", {"seed": 3, "amplitude": 0.02}, 4, 5e-2),
])
def test_contraction_form_of_the_wedge_identity(kind, params, m, tol):
    # grad Phi ^ grad H = (-1)^(m-1) grad(star(n interior H)) interior grad_perp Phi:
    # the sign-resolved bridge between the two forms of the conservation
    # system; the opposite sign is off by O(1)
    from willmore_lab import multivec as mvec

    b = bundle(kind, G129, m=m, **params)
    grid = b.grid
    win = grid.interior()
    jet = b.jet
    gH = dg.grad(grid, b.H)
    lhs = sum(
        mvec.field_wedge(mvec.vector_field_to_mv(d), mvec.vector_field_to_mv(gh)).dense()
        for d, gh in ((jet.d1, gH[0]), (jet.d2, gH[1]))
    )
    star_nH = mvec.field_hodge(mvec.field_interior(b.gauss, mvec.vector_field_to_mv(b.H)))
    gs = mvec.field_slotwise(partial(dg.grad, grid), star_nH)
    gperp_phi = np.stack([-jet.d2, jet.d1])
    contr = sum(mvec.field_interior(gs, mvec.vector_field_to_mv(gperp_phi)).dense())
    scale = max(1.0, interior_sup(grid, lhs))
    sign = (-1.0) ** (m - 1)
    assert interior_sup(grid, lhs - sign * contr) / scale < tol
    assert interior_sup(grid, lhs + sign * contr) / scale > 1.0


def test_no_dense_blade_field_on_the_residual_path(monkeypatch):
    """A residual report at m = 6 and a flow step at m = 3 keep every blade field
    in rows: neither BladeRows.dense nor the dense -> rows constructor runs."""
    from willmore_lab import flow as fl
    from willmore_lab import multivec as mvec
    from willmore_lab import reports as rp

    calls = []
    dense, from_dense = mvec.BladeRows.dense, mvec.BladeRows.from_dense.__func__
    monkeypatch.setattr(mvec.BladeRows, "dense", lambda self: calls.append("dense") or dense(self))
    monkeypatch.setattr(mvec.BladeRows, "from_dense",
                        classmethod(lambda cls, a: calls.append("from_dense") or from_dense(cls, a)))
    report = rp.residual_report(im.make_surface("graph_perturbation", Grid(0.5, 33), m=6))
    assert np.all(np.isfinite(list(report.values())))
    patch = im.perturb_normal(im.make_surface("catenoid", Grid(0.5, 33), m=3), seed=0, amplitude=0.05)
    state = fl._state_from_patch(patch, 0.0)
    assert fl.step(state, tau0=1.0).energy < state.energy
    assert calls == []
    mvec.BladeRows.from_dense(np.ones(8)).dense()  # the counters do see a call
    assert calls == ["from_dense", "dense"]
