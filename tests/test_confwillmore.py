"""Conformal Willmore machinery: frame identities, quadratic-differential
extraction, and the closure identities tying everything together."""

import numpy as np
import pytest

from willmore_lab import confwillmore as cw
from willmore_lab import conservation as cons
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid, dz, interior_sup

G65 = Grid(0.5, 65)
G129 = Grid(0.5, 129)


def bundle(kind, grid=G129, m=3, **params):
    return im.make_bundle(im.make_surface(kind, grid, m=m, **params))


class TestFrameDerivativeIdentities:
    def test_plane_exact(self):
        a4, a5 = cw.frame_derivative_residuals(bundle("plane", G65))
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
            vals.append(cw.frame_derivative_residuals(bundle(kind, Grid(0.5, n), **params)))
        for c, f in zip(vals[0], vals[1]):
            if c > 1e-12:
                assert 3.4 <= c / f <= 4.6, (kind, c, f)
        assert max(vals[1]) < 1e-4

    def test_m4_padded(self):
        a4, a5 = cw.frame_derivative_residuals(bundle("sphere", G129, m=4, rho=1.0))
        assert a4 < 1e-4 and a5 < 1e-4


class TestCodazzi:
    def test_minimal_surfaces_exactly_zero(self):
        # H = 0 kills every term exactly
        for kind in ("catenoid", "enneper"):
            assert cw.codazzi_residual(bundle(kind, G65)) == 0.0

    def test_umbilic_sphere_at_discretization_floor(self):
        # both sides vanish identically (H0 = 0, |H| const); discretely
        # the contraction-vs-product-rule mismatch leaves an O(h^2) floor
        vals = [cw.codazzi_residual(bundle("sphere", Grid(0.5, n), rho=1.0)) for n in (65, 129)]
        assert vals[1] < 1e-5
        assert vals[1] < vals[0]

    def test_clifford_nontrivial_convergence(self):
        vals = [cw.codazzi_residual(bundle("clifford_torus_patch", Grid(0.5, n))) for n in (129, 257)]
        assert vals[0] > 1e-7  # genuinely exercised
        assert 3.4 <= vals[0] / vals[1] <= 4.6
        assert vals[1] < 1e-4


class TestExtraction:
    def test_plane_all_zero(self):
        data = cw.extract_A_f(bundle("plane", G65))
        assert np.max(np.abs(data.A)) == 0.0
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
        L = cons.recover_L(b).L
        assert interior_sup(G129, L) > 1e-2
        ez = im.complex_frame(b)[0]
        A = 2.0 * np.sum(dz(G129, L) * ez, axis=-1)
        H0cH = np.sum(np.conj(b.H0) * b.H, axis=-1)
        f = -1j * b.elam * (A + 2j * b.elam * H0cH)
        assert interior_sup(G129, f) < 5e-3

    def test_integrated_potential_solves_the_system(self):
        # the integrated L_sys from the extraction satisfies the
        # conservation system: S/R built from it have small defects
        b = bundle("cylinder", rho=1.0)
        data = cw.extract_A_f(b)
        assert data.L_defect < 1e-4
        sr = cons.build_S_R(b, data.L)
        assert sr.S_defect < 1e-5 and sr.R_defect < 1e-4


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


class TestEq13Closure:
    def test_cylinder(self):
        vals = []
        for n in (129, 257):
            b = bundle("cylinder", Grid(0.5, n), rho=1.0)
            data = cw.extract_A_f(b)
            vals.append(cw.eq13_residual(b, data.f, data.L))
        assert vals[1] < 1e-5
        assert vals[1] < vals[0]

    def test_sphere(self):
        b = bundle("sphere", rho=1.0)
        data = cw.extract_A_f(b)
        assert cw.eq13_residual(b, data.f, data.L) < 1e-3

    def test_wrong_f_breaks_closure(self):
        b = bundle("cylinder", rho=1.0)
        data = cw.extract_A_f(b)
        good = cw.eq13_residual(b, data.f, data.L)
        bad = cw.eq13_residual(b, data.f + 0.5, data.L)
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

        from willmore_lab import multivec as mvec

        b1 = bundle("clifford_torus_patch", G65, m=4)
        X1, X2 = G65.nodes()
        theta = 0.5 * np.cos(X1 + X2)
        c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
        rot = np.stack(
            [c * b1.normal_frame[0] + s * b1.normal_frame[1],
             -s * b1.normal_frame[0] + c * b1.normal_frame[1]]
        )
        gauss = mvec.field_wedge(mvec.vector_field_to_mv(rot[0]), mvec.vector_field_to_mv(rot[1]))
        b2 = replace(b1, normal_frame=rot, gauss=gauss, **im.second_fundamental(b1.jet, b1.elam, rot))
        f1 = cw.extract_A_f(b1).f
        f2 = cw.extract_A_f(b2).f
        assert interior_sup(G65, f1 - f2) < 1e-8 * interior_sup(G65, f1)
        r1 = cw.conformal_willmore_residual(b1, f1)
        r2 = cw.conformal_willmore_residual(b2, f2)
        assert interior_sup(G65, r1 - r2) < 1e-8 * interior_sup(G65, r1)
        c1, c2 = cw.codazzi_residual(b1), cw.codazzi_residual(b2)
        assert abs(c1 - c2) < 1e-9 * c1


def test_gauss_map_energy_positive_and_stable():
    vals = [cw.gauss_map_energy(bundle("sphere", Grid(0.5, n), rho=1.0)) for n in (65, 129)]
    assert vals[0] > 0.0
    assert abs(vals[0] - vals[1]) < 1e-3 * vals[1]


class TestPseudoInverse:
    """``_pinv_psd2`` is ``np.linalg.pinv(G, 1e-8, hermitian=True)`` bit for bit."""

    N = 20000

    def setup_method(self):
        self.rng = np.random.default_rng(16)

    def check(self, G, monkeypatch, fallback_calls=0):
        """Compare the bits; return the stack size of each np.linalg.pinv call made."""
        ref = np.linalg.pinv(G, rcond=1e-8, hermitian=True)
        calls = []
        pinv = np.linalg.pinv

        def counted(stack, **kwargs):
            calls.append(len(stack))
            return pinv(stack, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted)
        out = cw._pinv_psd2(G, 1e-8)
        monkeypatch.undo()
        assert out.shape == ref.shape
        differ = np.any(out.view(np.int64) != ref.view(np.int64), axis=(-1, -2))  # signed zeros count
        assert not differ.any(), G[differ][:3]
        assert len(calls) == fallback_calls
        return calls

    def gram(self, rows, scale):
        M = self.rng.normal(size=(self.N, rows, 2)) * scale
        return np.einsum("...ka,...kb->...ab", M, M)

    @pytest.mark.parametrize("rows", [2, 3, 4, 6])
    def test_gram_over_twelve_decades(self, rows, monkeypatch):
        self.check(self.gram(rows, 10.0 ** self.rng.uniform(-6, 6, size=(self.N, 1, 1))), monkeypatch)

    def test_rank_one_and_near_cutoff(self, monkeypatch):
        scale = 10.0 ** self.rng.uniform(-6, 6, self.N)
        v = self.rng.normal(size=(self.N, 2)) * scale[:, None]
        self.check(np.einsum("...a,...b->...ab", v, v), monkeypatch)
        # eigenvalues l and l * 1e-8 * (1 +- d), d in 1e-4..1, in a random frame
        small = scale * 1e-8 * (1 + self.rng.choice([-1, 1], self.N) * 10.0 ** self.rng.uniform(-4, 0, self.N))
        th = self.rng.uniform(0, 2 * np.pi, self.N)
        R = np.stack([np.stack([np.cos(th), -np.sin(th)], -1), np.stack([np.sin(th), np.cos(th)], -1)], -2)
        G = np.einsum("...ik,...k,...jk->...ij", R, np.stack([scale, small], -1), R)
        G[..., 0, 1] = G[..., 1, 0]
        self.check(G, monkeypatch)

    def test_diagonal_ties_and_tiny_off_diagonal(self, monkeypatch):
        d = 10.0 ** self.rng.uniform(-6, 6, size=(self.N, 2))
        d[::3, 1] = d[::3, 0]  # equal-diagonal ties
        G = np.zeros((self.N, 2, 2))
        G[:, 0, 0], G[:, 1, 1] = d[:, 0], d[:, 1]
        self.check(G, monkeypatch)
        off = np.sqrt(d[:, 0] * d[:, 1]) * self.rng.choice([1e-17, 1e-16, 2e-16, 1e-15], self.N)
        G[:, 0, 1] = G[:, 1, 0] = off * self.rng.choice([-1, 1], self.N)
        self.check(G, monkeypatch)
        self.check(np.zeros((7, 2, 2)), monkeypatch)

    def test_wide_diagonal_ratios(self, monkeypatch):
        # c/a down to 1e-300 and |b|/sqrt(ac) down to 1e-200: dsteqr's second split test, whose
        # safe-minimum term decides once b^2 underflows
        a = 10.0 ** self.rng.uniform(-100, 100, self.N)
        c = a * 10.0 ** -self.rng.uniform(0, 300, self.N)
        b = np.sqrt(a) * np.sqrt(c) * self.rng.uniform(-1, 1, self.N)
        b *= 10.0 ** -self.rng.choice([0, 8, 16, 17, 30, 200], self.N)
        G = np.empty((self.N, 2, 2))
        G[:, 0, 0], G[:, 1, 1], G[:, 0, 1], G[:, 1, 0] = a, c, b, b
        self.check(G, monkeypatch)
        self.check(G[:, ::-1, ::-1].copy(), monkeypatch)

    def test_extraction_gram_of_graph_perturbation(self, monkeypatch):
        H0 = bundle("graph_perturbation", Grid(0.5, 129), m=4).H0
        M = np.stack([H0.real, -H0.imag], axis=-1)
        self.check(np.einsum("...ka,...kb->...ab", M, M), monkeypatch)

    @pytest.mark.parametrize("m", [3, 6])
    def test_extraction_matches_the_numpy_route(self, m, monkeypatch):
        # A, f and L of extract_A_f keep their bits with einsum and np.linalg.pinv put back
        b = bundle("graph_perturbation", Grid(0.5, 65), m=m)
        fast = cw.extract_A_f(b)
        monkeypatch.setattr(cw, "_gram", lambda M: np.einsum("...ka,...kb->...ab", M, M))
        monkeypatch.setattr(cw, "_pinv_psd2", lambda G, rcond: np.linalg.pinv(G, rcond=rcond, hermitian=True))
        ref = cw.extract_A_f(b)
        for name in ("A", "f", "L"):
            x, y = getattr(fast, name), getattr(ref, name)
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), name

    @pytest.mark.parametrize("scale", [1e150, 1e-130])
    def test_rescaled_range_goes_to_numpy(self, scale, monkeypatch):
        # where LAPACK rescales, the masked matrices take one np.linalg.pinv call
        G = self.gram(3, 1.0)[:100]
        G[::4] *= scale
        assert self.check(G, monkeypatch, fallback_calls=1) == [25]
