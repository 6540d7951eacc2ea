"""Conformal Willmore machinery: frame identities, quadratic-differential
extraction, and the closure identities tying everything together."""

import numpy as np
import pytest

from willmore_lab import confwillmore as cw
from willmore_lab import conservation as cons
from willmore_lab import immersion as im
from willmore_lab import reports as rp
from willmore_lab.diskgrid import Grid, dz, grad, interior_sup, l2norm

G65 = Grid(0.5, 65)
G129 = Grid(0.5, 129)


def bundle(kind, grid=G129, m=3, **params):
    return im.make_bundle(im.make_surface(kind, grid, m=m, **params))


class TestFrameDerivativeIdentities:
    def test_plane_exact(self):
        b = bundle("plane", G65)
        a4, a5 = (r / cons.surface_scale(b) for r in cw.frame_derivative_residuals(b))
        assert a4 == 0.0 and a5 == 0.0

    @pytest.mark.parametrize("kind,params", [
        ("sphere", {"rho": 1.0}),
        ("cylinder", {"rho": 1.0}),    # unconditional: not Willmore
        ("catenoid", {}),
        ("clifford_torus_patch", {}),
    ])
    def test_refinement_ratio(self, kind, params):
        vals = []
        for n in (129, 257):
            b = bundle(kind, Grid(0.5, n), **params)
            vals.append([r / cons.surface_scale(b) for r in cw.frame_derivative_residuals(b)])
        for c, f in zip(vals[0], vals[1]):
            if c > 1e-12:
                assert 3.4 <= c / f <= 4.6, (kind, c, f)
        assert max(vals[1]) < 1e-4

    def test_m4_padded(self):
        b = bundle("sphere", G129, m=4, rho=1.0)
        a4, a5 = (r / cons.surface_scale(b) for r in cw.frame_derivative_residuals(b))
        assert a4 < 1e-4 and a5 < 1e-4


def codazzi(b):
    """The Codazzi residual as the report gives it, divided by the surface scale."""
    return cw.codazzi_residual(b) / cons.surface_scale(b)


class TestCodazzi:
    def test_minimal_surfaces_exactly_zero(self):
        # H = 0 kills every term exactly
        for kind in ("catenoid", "enneper"):
            assert codazzi(bundle(kind, G65)) == 0.0

    def test_umbilic_sphere_at_discretization_floor(self):
        # both sides vanish identically (H0 = 0, |H| const); discretely
        # the contraction-vs-product-rule mismatch leaves an O(h^2) floor
        vals = [codazzi(bundle("sphere", Grid(0.5, n), rho=1.0)) for n in (65, 129)]
        assert vals[1] < 1e-5
        assert vals[1] < vals[0]

    def test_clifford_nontrivial_convergence(self):
        vals = [codazzi(bundle("clifford_torus_patch", Grid(0.5, n))) for n in (129, 257)]
        assert vals[0] > 1e-7  # genuinely exercised
        assert 3.4 <= vals[0] / vals[1] <= 4.6
        assert vals[1] < 1e-4


class TestExtraction:
    def test_plane_all_zero(self):
        data = cw.extract_A_f(bundle("plane", G65))
        assert np.max(np.abs(data.f)) == 0.0
        assert data.holomorphy_defect == 0.0

    def test_cylinder_constant_f(self):
        for rho in (1.0, 1.5):
            b = bundle("cylinder", rho=rho)
            data = cw.extract_A_f(b)
            expect = 0.5 / rho**2
            assert interior_sup(G129, data.f - expect) < 1e-4
            assert data.holomorphy_defect < 1e-6

    def test_cylinder_holomorphy_defect_converges(self):
        vals = []
        for n in (129, 257):
            data = cw.extract_A_f(bundle("cylinder", Grid(0.5, n), rho=1.0))
            vals.append(data.holomorphy_defect)
        # the defect sits at the discretization floor; it must not grow
        assert vals[1] < 1e-6

    def test_sphere_f_vanishes(self):
        # genus-0 statement: no holomorphic quadratic differential
        for n in (129, 257):
            data = cw.extract_A_f(bundle("sphere", Grid(0.5, n), rho=1.0))
            assert interior_sup(Grid(0.5, n), data.f) < 1e-12

    def test_clifford_f_vanishes_at_second_order(self):
        sups = []
        for n in (129, 257):
            g = Grid(0.5, n)
            data = cw.extract_A_f(bundle("clifford_torus_patch", g))
            sups.append(interior_sup(g, data.f))
        assert 3.4 <= sups[0] / sups[1] <= 4.6
        assert sups[1] < 1e-3

    def test_supplied_potential_route_matches_on_willmore_surface(self):
        # with the recovered (true) potential, the A-pairing
        # A = 2 <dz L, e_z> and f = -i e^lambda (A + 2 i e^lambda H0* . H)
        # give the same vanishing f on a Willmore surface with L != 0
        b = bundle("clifford_torus_patch", G129)
        L = cons.recover_L(b).u
        assert interior_sup(G129, L) > 1e-2
        ez = im.complex_frame(b)[0]
        A = 2.0 * np.sum(dz(G129, L) * ez, axis=-1)
        H0cH = np.sum(np.conj(b.H0) * b.H, axis=-1)
        f = -1j * b.elam * (A + 2j * b.elam * H0cH)
        assert interior_sup(G129, f) < 5e-3

    @pytest.mark.parametrize("kind", ["clifford_torus_patch", "sphere"])
    def test_zero_padding_keeps_f(self, kind):
        # the fit's gate counts nodes, not node x component rows
        for grid in (G65, G129):
            f3 = cw.extract_A_f(bundle(kind, grid, m=3)).f
            for m in (4, 6):
                assert np.array_equal(cw.extract_A_f(bundle(kind, grid, m=m)).f.view(np.int64), f3.view(np.int64))

    def test_integrated_potential_solves_the_system(self):
        # the integrated L_sys from the extraction satisfies the
        # conservation system: S/R built from it have small defects
        b = bundle("cylinder", rho=1.0)
        data = cw.extract_A_f(b)
        # the integration defect ||grad L - target||_L2, target the real gradient of the
        # candidate Z0 + i e^{-lambda} f e_{z*} that L integrates
        ezstar = b.derived(im.complex_frame)[1]
        candidate = b.derived(cons.dz_L0_closed_form) + 1j * (data.f / b.elam)[..., None] * ezstar
        target = np.stack([2.0 * candidate.real, -2.0 * candidate.imag])
        assert l2norm(b.grid, grad(b.grid, data.L) - target) < 1e-4
        sr = cons.build_S_R(b, data.L)
        scale = cons.surface_scale(b)
        assert sr.S_defect / scale < 1e-5 and sr.R_defect / scale < 1e-4


class TestConformalWillmoreResidual:
    def test_sphere_with_zero_f(self):
        sups = []
        for n in (129, 257):
            g = Grid(0.5, n)
            b = bundle("sphere", g, rho=1.0)
            sups.append(interior_sup(g, cw.conformal_willmore_residual(b, 0.0)))
        assert 3.4 <= sups[0] / sups[1] <= 4.6

    def test_catenoid_trivial(self):
        b = bundle("catenoid", G65)
        assert interior_sup(G65, cw.conformal_willmore_residual(b, 0.0)) < 1e-12

    def test_cylinder_with_and_without_f(self):
        b = bundle("cylinder", rho=1.0)
        with_f = cw.conformal_willmore_residual(b, 0.5 * np.ones((129, 129), complex))
        without = cw.conformal_willmore_residual(b, 0.0)
        assert interior_sup(G129, with_f) < 1e-5
        assert interior_sup(G129, without) == pytest.approx(0.25, rel=1e-3)

    def test_cylinder_scaling_in_rho(self):
        b = bundle("cylinder", rho=1.5)
        without = cw.conformal_willmore_residual(b, 0.0)
        assert interior_sup(G129, without) == pytest.approx(0.25 / 1.5**3, rel=1e-3)

    def test_quadratic_term_equals_weingarten_form(self):
        # sum h^a_ij h^b_ij H^b n_a - 2 |H|^2 H = 2 Re[(H . H0*) H0]
        b = bundle("clifford_torus_patch", G129)
        Hcoef = np.stack(
            [np.sum(b.H * b.normal_frame[a], axis=-1) for a in range(b.m - 2)], axis=-1
        )
        hh = np.einsum("...aij,...bij->...ab", b.h, b.h)
        quad = np.einsum("...a,a...k->...k", np.einsum("...ab,...b->...a", hh, Hcoef), b.normal_frame)
        quad = quad - 2.0 * np.sum(b.H**2, axis=-1)[..., None] * b.H
        alt = 2.0 * np.real(np.sum(b.H * np.conj(b.H0), axis=-1)[..., None] * b.H0)
        assert interior_sup(G129, quad - alt) < 1e-12


def eq13(b, f, L):
    """The eq. 13 residual as the report gives it (cwbis_resid), divided by the surface scale."""
    return cw.eq13_residual(b, f, L) / cons.surface_scale(b)


class TestEq13Closure:
    def test_cylinder(self):
        vals = []
        for n in (129, 257):
            b = bundle("cylinder", Grid(0.5, n), rho=1.0)
            data = cw.extract_A_f(b)
            vals.append(eq13(b, data.f, data.L))
        assert vals[1] < 1e-5
        assert vals[1] < vals[0]

    def test_sphere(self):
        b = bundle("sphere", rho=1.0)
        data = cw.extract_A_f(b)
        assert eq13(b, data.f, data.L) < 1e-3

    def test_wrong_f_breaks_closure(self):
        b = bundle("cylinder", rho=1.0)
        data = cw.extract_A_f(b)
        good = eq13(b, data.f, data.L)
        bad = eq13(b, data.f + 0.5, data.L)
        assert bad > 100.0 * max(good, 1e-12)


class TestConsistencyTriangle:
    def test_willmore_surfaces(self):
        # f -> 0, cw residual with f = 0 -> 0, and div Q -> 0 together
        for kind in ("sphere", "clifford_torus_patch"):
            params = {"rho": 1.0} if kind == "sphere" else {}
            sups = {"f": [], "cwr": [], "divq": []}
            for n in (129, 257):
                g = Grid(0.5, n)
                b = bundle(kind, g, **params)
                sups["f"].append(interior_sup(g, cw.extract_A_f(b).f))
                sups["cwr"].append(interior_sup(g, cw.conformal_willmore_residual(b, 0.0)))
                sups["divq"].append(interior_sup(g, cons.willmore_residual(b)))
            for key, (coarse, fine) in ((k, v) for k, v in sups.items()):
                if coarse > 1e-12:
                    assert 3.0 <= coarse / fine <= 5.2, (kind, key, coarse, fine)

    def test_frame_rotation_invariance_of_residuals(self):
        # all extraction inputs are frame covariant: a smooth rotation of
        # the normal frame leaves f, the cw residual, and the Codazzi
        # residual unchanged to within 1e-8 relative
        from dataclasses import replace

        patch = im.make_surface("clifford_torus_patch", G65, m=4)
        b1 = im.make_bundle(patch)
        X1, X2 = G65.nodes()
        theta = 0.5 * np.cos(X1 + X2)
        c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
        rot = np.stack(
            [c * b1.normal_frame[0] + s * b1.normal_frame[1],
             -s * b1.normal_frame[0] + c * b1.normal_frame[1]]
        )
        # h is rebuilt from the patch's jet: the bundle keeps no second order; the Gauss map is the rotated frame's
        b2 = replace(b1, normal_frame=rot, **im.second_fundamental(patch.jet(), b1.elam, rot))
        f1 = cw.extract_A_f(b1).f
        f2 = cw.extract_A_f(b2).f
        assert interior_sup(G65, f1 - f2) < 1e-8 * interior_sup(G65, f1)
        r1 = cw.conformal_willmore_residual(b1, f1)
        r2 = cw.conformal_willmore_residual(b2, f2)
        assert interior_sup(G65, r1 - r2) < 1e-8 * interior_sup(G65, r1)
        c1, c2 = codazzi(b1), codazzi(b2)
        assert abs(c1 - c2) < 1e-9 * c1


def test_gauss_map_energy_positive_and_stable():
    vals = [cw.gauss_map_energy(bundle("sphere", Grid(0.5, n), rho=1.0)) for n in (65, 129)]
    assert vals[0] > 0.0
    assert abs(vals[0] - vals[1]) < 1e-3 * vals[1]


SR_KEYS = ("S_defect", "R_defect", "srS_resid", "srR_resid", "phi_identity")


def fd_report(kind, n):
    patch = im.make_surface(kind, Grid(0.5, n))
    return rp.residual_report(patch.with_phi(patch.phi + 0.0))


class TestHolomorphicFit:
    """f as one polynomial fit: the S/R chain built from its L refines at second order."""

    def test_clifford_sr_keys_refine(self):
        r65, r129 = (rp.residual_report(im.make_surface("clifford_torus_patch", g)) for g in (G65, G129))
        for key in SR_KEYS:
            assert 3.4 <= r65[key] / r129[key] <= 4.6, key

    @pytest.mark.parametrize("kind", ["sphere", "catenoid", "cylinder", "clifford_torus_patch"])
    def test_fd_jets_pass_and_refine(self, kind, monkeypatch):
        coarse, fine = fd_report(kind, 129), fd_report(kind, 257)
        assert rp.check_report(coarse, kind) == {} and rp.check_report(fine, kind) == {}
        for key in SR_KEYS:
            assert coarse[key] / fine[key] >= 3.4, key
        # raising the degree by 4 changes no verdict
        monkeypatch.setattr(cw, "_DEGREE", cw._DEGREE + 4)
        assert rp.check_report(fd_report(kind, 129), kind) == {} and rp.check_report(fd_report(kind, 257), kind) == {}

    def test_raising_the_degree_keeps_the_catalog_verdicts(self, monkeypatch):
        def verdicts():
            return {kind: set(rp.check_report(rp.residual_report(im.make_surface(kind, G65)), kind))
                    for kind in im.CATALOG}

        chosen = verdicts()
        monkeypatch.setattr(cw, "_DEGREE", cw._DEGREE + 4)
        assert verdicts() == chosen
