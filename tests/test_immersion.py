"""Surface catalog and conformal-frame geometry against closed forms."""

import functools
import gc
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from willmore_lab import diskgrid as dg
from willmore_lab import immersion as im
from willmore_lab import multivec as mv
from willmore_lab.diskgrid import Grid

G33 = Grid(0.5, 33)
G65 = Grid(0.5, 65)

ALL_KINDS = [
    ("plane", {}),
    ("sphere", {"rho": 1.0}),
    ("cylinder", {"rho": 1.0}),
    ("catenoid", {}),
    ("enneper", {}),
    ("clifford_torus_patch", {}),
    ("graph_perturbation", {"seed": 1, "amplitude": 0.05}),
]


def test_all_kinds_cover_the_catalog():
    assert {kind for kind, _ in ALL_KINDS} == set(im.CATALOG)


@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_analytic_jets_match_finite_differences(kind, params):
    errs = []
    for n in (65, 129):
        g = Grid(0.5, n)
        p = im.make_surface(kind, g, **params)
        ja = p.jets
        jf = im.fd_jet(g, p.phi)
        win = g.interior()
        errs.append(
            max(
                np.max(np.abs((getattr(ja, f) - getattr(jf, f))[win]))
                for f in ("d1", "d2", "d11", "d12", "d22")
            )
        )
    # FD jets agree with the analytic ones at second order (or exactly
    # for polynomial surfaces)
    assert errs[1] < max(4e-3, errs[0])
    if errs[1] > 1e-11:
        assert 3.2 <= errs[0] / errs[1] <= 4.8


class TestEachValueOnce:
    """A catalog jet is evaluated once, in make_surface; a bundle reuses it, and an
    FD patch's jet is differenced once per bundle."""

    def test_bundle_holds_the_catalog_jet(self):
        for kind, params in ALL_KINDS:
            p = im.make_surface(kind, G65, **params)
            b = im.make_bundle(p)
            assert b.phi is p.jets.phi and b.d1 is p.jets.d1 and b.d2 is p.jets.d2, kind
            assert (b.grid, b.m) == (p.grid, p.phi.shape[-1]), kind

    def test_bundle_has_no_second_order_or_patch_field(self):
        # a bundle keeps phi, d1 and d2 of its jet and no patch, so the second order goes once h is formed
        names = {f.name for f in fields(im.GeometryBundle)}
        assert {"phi", "d1", "d2"} <= names and names.isdisjoint({"d11", "d12", "d22", "jet", "patch"})

    def test_patch_reads_its_dimension_from_its_samples(self):
        # m is no patch field: samples padded to R^4 give the bundle of the R^4 sphere, bit for bit
        assert "m" not in {f.name for f in fields(im.ImmersionPatch)}
        p3, p4 = im.make_surface("sphere", G33, m=3), im.make_surface("sphere", G33, m=4)
        phi = np.concatenate([p3.phi, np.zeros(p3.phi.shape[:-1] + (1,))], axis=-1)
        got, want = im.make_bundle(p3.with_phi(phi)), im.make_bundle(p4.with_phi(phi + 0.0))
        assert got.m == 4
        for name in ("lam", "elam", "t1", "t2", "normal_frame", "h", "H"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_bundle_sheds_the_second_order_jet(self):
        # only second_fundamental reads the second order: a bundle keeps phi, d1 and d2 of the jet it was
        # built from and the patch's grid and m (no patch), and h and H hold what the whole jet gives
        catalog = im.make_surface("catenoid", G33)
        patches = [catalog, catalog.with_phi(catalog.phi + 0.0), im.perturb_normal(catalog, seed=1)]
        for patch in patches:
            b, jet = im.make_bundle(patch), patch.jet()
            assert b.phi is patch.phi and b.grid is patch.grid and b.m == patch.phi.shape[-1], patch.label
            assert all(np.array_equal(getattr(b, name), getattr(jet, name)) for name in ("phi", "d1", "d2"))
            want = im.second_fundamental(jet, b.elam, b.normal_frame)
            assert all(getattr(b, name).tobytes() == want[name].tobytes() for name in ("h", "H", "area_density"))

    def test_fd_jet_once_per_bundle(self, monkeypatch):
        calls = []
        fd_jet = im.fd_jet
        monkeypatch.setattr(im, "fd_jet", lambda *a: calls.append(1) or fd_jet(*a))
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0)
        im.make_bundle(patch)
        assert len(calls) == 1


class TestDerivedEntries:
    """Bundle fields hold the geometry; what is computed from them is a derived
    entry, so a bundle made by dataclasses.replace computes it from its own fields."""

    def test_no_field_holds_a_derived_value(self):
        names = {f.name for f in fields(im.GeometryBundle)}
        assert names.isdisjoint({"H0", "e1", "e2", "ez", "ezstar", "K_lambda", "K_gauss"})

    def test_H0_is_formed_on_first_read(self):
        # bundle.H0 reads the entry tracefree_H0: absent until read, then the einsum second_fundamental
        # formed, bit for bit and in its layout, and formed anew from the h of a replaced bundle
        b = im.make_bundle(im.make_surface("graph_perturbation", G65, m=4, seed=3, amplitude=0.05))
        assert im.tracefree_H0 not in b._memo
        h = b.h
        coef = 0.5 * (h[..., 0, 0] - h[..., 1, 1] + 2j * h[..., 0, 1])
        want = np.einsum("...a,a...k->...k", coef, b.normal_frame.astype(complex))
        assert b.H0.tobytes() == want.tobytes() and b.H0.strides == want.strides
        assert b.H0 is b.derived(im.tracefree_H0)
        assert np.array_equal(replace(b, h=2.0 * b.h).H0, 2.0 * b.H0)

    def test_wrapper_shares_its_functions_entry(self):
        # the memo keys on the unwrapped function: a functools.wraps wrapper (a tracer's, a counter's)
        # computes the entry of the function it wraps, and dropping that function drops it
        calls = []

        @functools.wraps(im.norm_H2)
        def wrapper(bundle):
            calls.append(bundle)
            return im.norm_H2(bundle)

        b = im.make_bundle(im.make_surface("sphere", G33))
        value = b.derived(wrapper)
        assert b.derived(im.norm_H2) is value and len(calls) == 1
        b.drop(im.norm_H2)
        assert b.derived(wrapper) is not value and len(calls) == 2

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", sorted(im.CATALOG))
    def test_H0_einsum_reads_the_real_frame(self, kind, m):
        # the einsum casts the real normal frame in its own buffers: the bits and layout of the einsum
        # on a complex copy of the frame
        b = im.make_bundle(im.make_surface(kind, G33, m=m))
        h = b.h
        coef = 0.5 * (h[..., 0, 0] - h[..., 1, 1] + 2j * h[..., 0, 1])
        want = np.einsum("...a,a...k->...k", coef, b.normal_frame.astype(complex))
        H0 = im.tracefree_H0(b)
        assert H0.tobytes() == want.tobytes() and H0.strides == want.strides

    def test_H0_peak_memory(self):
        # no complex copy of the normal frame, which alone is m - 2 results: an m = 6 call peaked at
        # 5.7 results above its start with the copy and peaks at 1.7 without it
        b = im.make_bundle(im.make_surface("graph_perturbation", G65, m=6))
        im.tracefree_H0(b)  # warm einsum
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            H0 = im.tracefree_H0(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2.0 * H0.nbytes

    def test_replaced_H_gives_fresh_curvature_and_H2(self):
        b = im.make_bundle(im.make_surface("sphere", G65, rho=1.0))
        K_gauss = b.derived(im.gaussian_curvature)[1]
        b2 = replace(b, H=2.0 * b.H)
        assert np.array_equal(b2.derived(im.norm_H2), 4.0 * b.derived(im.norm_H2))
        K2_lambda, K2_gauss = b2.derived(im.gaussian_curvature)
        assert np.array_equal(K2_gauss, 2.0 * b2.derived(im.norm_H2) - 0.5 * b.derived(im.norm_B2))
        assert np.max(np.abs(K2_gauss - 7.0)) < 1e-12  # 2 |2H|^2 - |B|^2 / 2 = 8 - 1
        assert np.max(np.abs(K_gauss - 1.0)) < 1e-12
        assert np.array_equal(K2_lambda, b.derived(im.gaussian_curvature)[0])  # lambda is unchanged

    def test_complex_frame_pairing(self):
        # e_a . e_b = delta_{a b*} / 2 on a conformal patch
        ez, ezstar = im.make_bundle(im.make_surface("sphere", G65, rho=1.0)).derived(im.complex_frame)
        assert np.max(np.abs(np.sum(ez * ez, axis=-1))) < 1e-14
        assert np.max(np.abs(np.sum(ez * ezstar, axis=-1) - 0.5)) < 1e-14
        assert np.array_equal(ezstar, np.conj(ez))


class TestCatalogClosedForms:
    def test_plane(self):
        b = im.make_bundle(im.make_surface("plane", G65))
        assert np.max(np.abs(b.lam)) == 0.0
        assert np.max(np.abs(b.H)) == 0.0
        assert im.conformal_defect(b) == 0.0
        assert np.max(np.abs(b.normal_frame[0] - np.array([0.0, 0.0, 1.0]))) < 1e-14

    def test_sphere(self):
        b = im.make_bundle(im.make_surface("sphere", G65, rho=1.0))
        X1, X2 = G65.nodes()
        assert np.max(np.abs(b.elam - 2.0 / (1.0 + X1**2 + X2**2))) < 1e-13
        assert b.lam[32, 32] == pytest.approx(np.log(2.0), abs=1e-13)
        assert np.max(np.abs(np.linalg.norm(b.H, axis=-1) - 1.0)) < 1e-12
        assert np.max(np.abs(b.H0)) < 1e-12          # umbilic
        K_lambda, K_gauss = b.derived(im.gaussian_curvature)
        assert np.max(np.abs(K_gauss - 1.0)) < 1e-12
        win = G65.interior()
        assert np.max(np.abs(K_lambda - 1.0)[win]) < 1e-3
        # h coefficients are -sigma/rho on the diagonal
        assert np.max(np.abs(np.abs(b.h[..., 0, 0, 0]) - 1.0)) < 1e-12
        assert np.max(np.abs(b.h[..., 0, 0, 1])) < 1e-12

    def test_sphere_radius_scaling(self):
        b = im.make_bundle(im.make_surface("sphere", G65, rho=2.0))
        assert np.max(np.abs(np.linalg.norm(b.H, axis=-1) - 0.5)) < 1e-12
        assert np.max(np.abs(b.derived(im.gaussian_curvature)[1] - 0.25)) < 1e-12

    def test_cylinder(self):
        b = im.make_bundle(im.make_surface("cylinder", G65, rho=1.0))
        assert np.max(np.abs(b.lam)) < 1e-14
        assert np.max(np.abs(np.linalg.norm(b.H, axis=-1) - 0.5)) < 1e-13
        assert np.max(np.abs(np.linalg.norm(np.abs(b.H0), axis=-1) - 0.5)) < 1e-13
        assert np.max(np.abs(b.H0.imag)) < 1e-13     # purely real Weingarten vector
        assert np.max(np.abs(b.derived(im.gaussian_curvature)[1])) < 1e-13
        # principal curvatures {1/rho, 0}
        eigs = np.linalg.eigvalsh(b.h[..., 0, :, :])
        assert np.max(np.abs(np.sort(np.abs(eigs), axis=-1)[..., 0])) < 1e-12
        assert np.max(np.abs(np.sort(np.abs(eigs), axis=-1)[..., 1] - 1.0)) < 1e-12

    def test_catenoid(self):
        b = im.make_bundle(im.make_surface("catenoid", G65))
        _, X2 = G65.nodes()
        assert np.max(np.abs(b.lam - np.log(np.cosh(X2)))) < 1e-13
        assert np.max(np.abs(b.H)) < 1e-13
        assert im.conformal_defect(b) < 1e-13

    def test_enneper_minimal_conformal(self):
        b = im.make_bundle(im.make_surface("enneper", Grid(0.4, 65)))
        X1, X2 = Grid(0.4, 65).nodes()
        assert np.max(np.abs(b.elam - (1.0 + X1**2 + X2**2))) < 1e-13
        assert np.max(np.abs(b.H)) < 1e-13

    def test_clifford_patch(self):
        b = im.make_bundle(im.make_surface("clifford_torus_patch", G65))
        _, X2 = G65.nodes()
        v = 2.0 * np.arctan((np.sqrt(2.0) + 1.0) * np.tan(X2 / 2.0))
        assert np.max(np.abs(b.elam - (np.sqrt(2.0) + np.cos(v)))) < 1e-13
        assert im.conformal_defect(b) < 1e-13


class TestConformalDefect:
    def test_defect_zero_for_exact_catalog(self):
        for kind, params in ALL_KINDS[:-1]:
            defect = im.conformal_defect(im.make_bundle(im.make_surface(kind, G65, **params)))
            assert defect < 1e-12, kind

    def test_graph_defect_scales_with_amplitude_squared(self):
        d = {}
        for amp in (0.02, 0.04):
            d[amp] = im.conformal_defect(
                im.make_bundle(im.make_surface("graph_perturbation", G65, seed=1, amplitude=amp))
            )
        assert 3.0 < d[0.04] / d[0.02] < 5.0

    def test_degenerate_immersion_raises(self):
        patch = im.ImmersionPatch(G65, np.zeros((65, 65, 3)), None, "degenerate")
        with pytest.raises(im.DegenerateImmersionError):
            im.frames(patch)

    def test_degeneracy_gate_is_relative(self):
        # a sphere of radius 1e-13 is a valid immersion; one node at 1e-13 of the rest is not
        patch = im.make_surface("sphere", G65, rho=1e-13)
        speed = im.frames(patch)["elam"]
        assert np.all(np.isfinite(np.log(speed)))
        d1 = patch.jets.d1.copy()
        d1[3, 4] *= 1e-13
        with pytest.raises(im.DegenerateImmersionError, match=r"\(3, 4\)"):
            im.frames(replace(patch, jets=replace(patch.jets, d1=d1)))


def inadmissible_sphere(case):
    """A sphere patch on G33 that no entry point may admit: its metric overflows or underflows, a
    sample is NaN (finite differences carry it into the metric, as in a flow trial), or |d1 Phi|
    falls to 1e-13 of the rest at node (3, 4)."""
    rho = {"overflow": 1e308, "underflow": 1e-200, "nan": 1.0, "floor": 1e-13}[case]
    with np.errstate(all="ignore"):  # the overflow is the point
        jet = im.CATALOG["sphere"].jets(G33, 3, rho=rho)
    if case == "nan":
        phi = jet.phi.copy()
        phi[3, 4, 0] = np.nan
        return rho, im.ImmersionPatch(G33, phi, None, case)
    if case == "floor":
        d1 = jet.d1.copy()
        d1[3, 4] *= 1e-13
        jet = replace(jet, d1=d1)
    return rho, im.ImmersionPatch(G33, jet.phi, jet, case)


ENTRY_POINTS = {
    "make_surface": lambda rho, patch: im.make_surface("sphere", G33, rho=rho),
    "perturb_normal": lambda rho, patch: im.perturb_normal(patch),
    "make_bundle": lambda rho, patch: im.make_bundle(patch),
    "frames": lambda rho, patch: im.frames(patch),
}


CASES = {"overflow": "not finite", "underflow": "zero or subnormal", "nan": "not finite", "floor": r"\(3, 4\)"}


# make_surface builds the catalog jet itself, so it takes only the sphere's overflowing and underflowing radii
@pytest.mark.parametrize("entry, case", [(entry, case) for entry in sorted(ENTRY_POINTS) for case in CASES
                                         if entry != "make_surface" or case in ("overflow", "underflow")])
def test_one_metric_rule_admits_every_patch(entry, case):
    # catalog, perturbed and bundled patches (a flow trial's among them) meet one rule
    rho, patch = inadmissible_sphere(case)
    with pytest.raises(im.DegenerateImmersionError, match=CASES[case]):
        ENTRY_POINTS[entry](rho, patch)


class TestFrames:
    @pytest.mark.parametrize("kind,params,m", [
        ("sphere", {"rho": 1.0}, 3),
        ("catenoid", {}, 3),
        ("clifford_torus_patch", {}, 3),
        ("sphere", {"rho": 1.0}, 4),
        ("graph_perturbation", {"seed": 2, "amplitude": 0.05}, 4),
        ("graph_perturbation", {"seed": 2, "amplitude": 0.05}, 5),
    ])
    def test_frame_orthonormality(self, kind, params, m):
        b = im.frames(im.make_surface(kind, G65, m=m, **params))
        vecs = [b["t1"], b["t2"]] + [b["normal_frame"][a] for a in range(m - 2)]
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                gram = np.sum(vecs[i] * vecs[j], axis=-1)
                assert np.max(np.abs(gram - (1.0 if i == j else 0.0))) < 1e-10

    @pytest.mark.parametrize("kind,params,m", [
        ("sphere", {"rho": 1.0}, 3),
        ("cylinder", {"rho": 1.0}, 3),
        ("clifford_torus_patch", {}, 3),
        ("sphere", {"rho": 1.0}, 4),
        ("graph_perturbation", {"seed": 2, "amplitude": 0.05}, 5),
    ])
    def test_gauss_map_orientation(self, kind, params, m):
        # star(n ^ e1) = e2 and star(n ^ e2) = -e1, exactly by construction
        b = im.make_bundle(im.make_surface(kind, G65, m=m, **params))
        gauss = im.gauss_map(b)
        s1 = mv.mv_field_vector_part(mv.field_hodge(mv.field_wedge(gauss, mv.vector_field_to_mv(b.t1))))
        s2 = mv.mv_field_vector_part(mv.field_hodge(mv.field_wedge(gauss, mv.vector_field_to_mv(b.t2))))
        assert np.max(np.abs(s1 - b.t2)) < 1e-10
        assert np.max(np.abs(s2 + b.t1)) < 1e-10

    def test_sphere_normal_is_radial(self):
        p = im.make_surface("sphere", G65, rho=1.0)
        b = im.frames(p)
        radial = np.abs(np.sum(b["normal_frame"][0] * p.phi, axis=-1))
        assert np.max(np.abs(radial - 1.0)) < 1e-12

    def test_frame_error_when_tangents_exhaust_seeds(self):
        X1, X2 = G65.nodes()
        phi = np.zeros((65, 65, 4))
        phi[..., 2], phi[..., 3] = X1, X2
        patch = im.ImmersionPatch(G65, phi, None, "pathological")
        with pytest.raises(im.FrameError):
            im.frames(patch)


class TestSecondFundamental:
    def test_h_symmetry_and_frame_route_agreement(self):
        # -e^-lambda e_i . d_j n_a agrees with e^-2lambda n_a . d_ij Phi
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            b = im.make_bundle(im.make_surface("clifford_torus_patch", g))
            win = g.interior()
            na = b.normal_frame[0]
            gn = dg.grad(g, na)
            for i, ti in enumerate((b.t1, b.t2)):
                for j in range(2):
                    alt = -np.sum(ti * gn[j], axis=-1) / b.elam
                    errs.append(np.max(np.abs((alt - b.h[..., 0, i, j]))[win]))
        assert max(errs[:4]) < 4.6 * 1e-3
        assert max(errs[4:]) < max(errs[:4])

    @pytest.mark.parametrize("kind,params", [
        ("sphere", {"rho": 1.0}),
        ("cylinder", {"rho": 1.0}),
        ("clifford_torus_patch", {}),
    ])
    def test_laplace_phi_identity(self, kind, params):
        # Delta Phi = 2 e^{2 lambda} H at second order
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            p = im.make_surface(kind, g, **params)
            b = im.make_bundle(p)
            resid = dg.laplace(g, p.phi) - 2.0 * b.area_density[..., None] * b.H
            win = g.interior()
            errs.append(np.max(np.linalg.norm(resid[win], axis=-1)))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_H_from_projected_laplacian(self):
        # H = (1/2) e^{-2 lambda} pi_n(Delta Phi) at second order
        g = Grid(0.5, 129)
        p = im.make_surface("clifford_torus_patch", g)
        b = im.make_bundle(p)
        alt = 0.5 * b.project_normal(dg.laplace(g, p.phi)) / b.area_density[..., None]
        win = g.interior()
        assert np.max(np.linalg.norm((alt - b.H)[win], axis=-1)) < 2e-4

    def test_gauss_equation_consistency(self):
        # |B|^2 = 4 |H|^2 - 2 K_lambda at second order
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            b = im.make_bundle(im.make_surface("clifford_torus_patch", g))
            win = g.interior()
            K_lambda, K_gauss = b.derived(im.gaussian_curvature)
            errs.append(np.max(np.abs(K_gauss - K_lambda)[win]))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_projection_routes_agree(self):
        b = im.make_bundle(im.make_surface("clifford_torus_patch", G65, m=4))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(65, 65, 4))
        assert np.max(np.abs(b.project_normal(X) - b.project_normal_frame(X))) < 1e-10

    def test_normal_frame_rotation_invariance(self):
        # smooth SO(2) rotation of {n_1, n_2}: H, H0, K, energy unchanged
        patch = im.make_surface("graph_perturbation", G65, m=4, seed=3, amplitude=0.05)
        b1 = im.make_bundle(patch)
        X1, X2 = G65.nodes()
        theta = 0.7 * np.sin(X1) * np.cos(2.0 * X2)
        c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
        rot = np.stack(
            [c * b1.normal_frame[0] + s * b1.normal_frame[1],
             -s * b1.normal_frame[0] + c * b1.normal_frame[1]]
        )
        # h is rebuilt from the patch's jet: the bundle keeps no second order; the Gauss map is the rotated frame's
        b2 = replace(b1, normal_frame=rot, **im.second_fundamental(patch.jet(), b1.elam, rot))
        assert np.max(np.abs(im.gauss_map(b2).dense() - im.gauss_map(b1).dense())) < 1e-12
        assert np.max(np.abs(b2.H - b1.H)) < 1e-12
        assert np.max(np.abs(b2.H0 - b1.H0)) < 1e-12
        K1, K2 = (b.derived(im.gaussian_curvature)[1] for b in (b1, b2))
        assert np.max(np.abs(K2 - K1)) < 1e-12
        assert im.willmore_energy(b2) == pytest.approx(im.willmore_energy(b1), abs=1e-12)


class TestWillmoreEnergy:
    def test_plane_zero(self):
        assert im.willmore_energy(im.make_bundle(im.make_surface("plane", G65))) == 0.0

    def test_sphere_energy_equals_patch_area(self):
        g = Grid(0.5, 257)
        b = im.make_bundle(im.make_surface("sphere", g, rho=1.0))
        area = float(dg.integrate(g, b.area_density))
        assert abs(im.willmore_energy(b) - area) < 1e-4
        assert area < 4.0 * np.pi  # patch covers part of the full sphere

    def test_cylinder_energy_constant_integrand(self):
        for rho in (1.0, 2.0):
            b = im.make_bundle(im.make_surface("cylinder", G65, rho=rho))
            area = float(dg.integrate(G65, b.area_density))
            assert abs(im.willmore_energy(b) - area / (4.0 * rho**2)) < 1e-6


class TestConstructionInterfaces:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown surface"):
            im.make_surface("torus_of_mystery", G65)

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            im.make_surface("sphere", G65, rho=-1.0)

    def test_parameters_checked_against_the_record(self):
        # names must be declared; values take the type of their default, and a bool is neither
        for kind, params in (("sphere", {"radius": 2.0}), ("graph_perturbation", {"seed": 1.5}),
                             ("sphere", {"rho": float("inf")}), ("sphere", {"rho": True}),
                             ("graph_perturbation", {"seed": True}), ("graph_perturbation", {"amplitude": False})):
            with pytest.raises(ValueError):
                im.make_surface(kind, G65, **params)

    def test_ambient_dimension_bounds(self):
        with pytest.raises(ValueError):
            im.make_surface("plane", G65, m=2)
        with pytest.raises(ValueError):
            im.make_surface("plane", G65, m=7)

    def test_metric_underflow_rejected(self):
        # the sphere's |d_i Phi|^2 is about (2 rho)^2: zero at rho = 1e-200, subnormal at 1e-155
        for rho in (1e-200, 1e-155):
            with pytest.raises(ValueError, match="zero or subnormal"):
                im.make_surface("sphere", G65, rho=rho)

    def test_perturbation_checked_like_a_surface(self):
        base = im.make_surface("catenoid", G65)
        with pytest.raises(ValueError, match="not finite"):
            im.perturb_normal(base, seed=0, amplitude=1e300)

    def test_perturb_normal(self):
        base = im.make_surface("catenoid", G65)
        pert = im.perturb_normal(base, seed=0, amplitude=0.05)
        assert pert.jets is None
        diff = np.linalg.norm(pert.phi - base.phi, axis=-1)
        assert np.max(diff) > 0.01
        assert np.max(diff[0, :]) < 1e-12 and np.max(diff[:, 0]) < 1e-12  # boundary pinned
        b = im.make_bundle(pert)                      # FD fallback path works
        assert im.willmore_energy(b) > 0.0

    def test_with_phi_drops_jets(self):
        base = im.make_surface("sphere", G65)
        moved = base.with_phi(base.phi + 0.01)
        assert moved.jets is None and base.jets is not None


def _sphere_closed_forms(X1, X2, rho):
    """The sphere jet's components (phi, d1, d2, d11, d22, d12), each power written out."""
    u = 1.0 + X1**2 + X2**2
    return [
        (2.0 * rho * X1 / u, 2.0 * rho * X2 / u, rho * (1.0 - 2.0 / u)),
        (2.0 * rho * (u - 2.0 * X1**2) / u**2, -4.0 * rho * X1 * X2 / u**2, 4.0 * rho * X1 / u**2),
        (-4.0 * rho * X1 * X2 / u**2, 2.0 * rho * (u - 2.0 * X2**2) / u**2, 4.0 * rho * X2 / u**2),
        (2.0 * rho * (8.0 * X1**3 - 6.0 * X1 * u) / u**3, -4.0 * rho * X2 * (u - 4.0 * X1**2) / u**3,
         4.0 * rho * (u - 4.0 * X1**2) / u**3),
        (-4.0 * rho * X1 * (u - 4.0 * X2**2) / u**3, 2.0 * rho * (8.0 * X2**3 - 6.0 * X2 * u) / u**3,
         4.0 * rho * (u - 4.0 * X2**2) / u**3),
        (4.0 * rho * X2 * (4.0 * X1**2 - u) / u**3, 4.0 * rho * X1 * (4.0 * X2**2 - u) / u**3,
         -16.0 * rho * X1 * X2 / u**3),
    ]


@pytest.mark.parametrize("s, n", [(0.5, 65), (0.5, 257), (0.3, 129), (0.7, 257)])
def test_catalog_powers_keep_their_bits(s, n):
    # the factories form each cube and repeated power once, the cubes on the n axis values; every jet value
    # keeps its bits (with s = 0.5 every node cube is exact, so other half-widths are checked too)
    grid = Grid(s, n)
    X1, X2 = grid.nodes()
    for rho in (1.0, 1e-3, 7.3):
        jet = im.make_surface("sphere", grid, rho=rho).jets
        got = [jet.phi, jet.d1, jet.d2, jet.d11, jet.d22, jet.d12]
        for field, want in zip(got, _sphere_closed_forms(X1, X2, rho)):
            assert field.tobytes() == np.stack(want, axis=-1).tobytes()
    U, V = X1, X2
    jet = im.make_surface("enneper", grid).jets
    want = (U - U**3 / 3.0 + U * V**2, -(V - V**3 / 3.0 + V * U**2), U**2 - V**2)
    assert jet.phi.tobytes() == np.stack(want, axis=-1).tobytes()
    want = (1.0 - U**2 + V**2, -2.0 * U * V, 2.0 * U)
    assert jet.d1.tobytes() == np.stack(want, axis=-1).tobytes()
    want = (2.0 * U * V, -(1.0 - V**2 + U**2), -2.0 * V)
    assert jet.d2.tobytes() == np.stack(want, axis=-1).tobytes()


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("kind,params", [(k, p) for k, p in ALL_KINDS if k != "graph_perturbation"])
def test_catalog_jets_hold_m_components(kind, params, m):
    """A factory allocates all m components: the first three are the m = 3 jet
    bit for bit, the others are +0.0 (no sign bit set), and no two of the six
    arrays share memory (graph_perturbation adds its bumps in place)."""
    grid = Grid(0.5, 9)
    base = im.make_surface(kind, grid, m=3, **params).jets
    # freed blocks of the jet arrays' size, holding -1.0, so that an array the
    # factory leaves uninitialized shows it
    poison = [np.full((9, 9, m), -1.0) for _ in range(24)]
    del poison
    jet = im.make_surface(kind, grid, m=m, **params).jets
    for f in fields(im.Jet):
        a, b = getattr(jet, f.name), getattr(base, f.name)
        assert a.shape == (9, 9, m)
        assert a[..., :3].tobytes() == b.tobytes(), f.name
        assert np.all(a[..., 3:] == 0.0) and not np.any(np.signbit(a[..., 3:])), f.name
    arrays = [getattr(jet, f.name) for f in fields(im.Jet)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("kind,params", ALL_KINDS)
def test_frames_match_the_dense_blade_chains(kind, params, m):
    """The last normal and the Gauss map, built on blade rows, are bit for bit
    what the dense chains of field_wedge over embedded vectors and the dense
    star (the blade axis reversed and signed) give."""
    def embed(v):
        out = np.zeros(v.shape[:-1] + (1 << m,))
        for k in range(m):
            out[..., 1 << k] = v[..., k]
        return out

    def wedge(a, b):
        return mv.field_wedge(mv.BladeRows.from_dense(a), mv.BladeRows.from_dense(b)).dense()

    b = im.make_bundle(im.make_surface(kind, G65, m=m, **params))
    normal_frame = b.normal_frame
    w = embed(b.t1)
    for v in [b.t2, *normal_frame[:-1]]:
        w = wedge(w, embed(v))
    n_last = (w[..., ::-1] * mv._hodge_signs(m))[..., 1 << np.arange(m)]
    n_last = n_last / np.sqrt(dg.component_sum(n_last * n_last))[..., None]
    gauss = embed(normal_frame[0])
    for v in normal_frame[1:]:
        gauss = wedge(gauss, embed(v))
    assert normal_frame[-1].tobytes() == n_last.tobytes()
    assert im.gauss_map(b).dense().tobytes() == gauss.tobytes()
