"""Rearrangement, Lorentz norms, and the Wente harness."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willmore_lab import diskgrid as dg
from willmore_lab import lorentz as lo
from willmore_lab.diskgrid import Grid

G65 = Grid(0.5, 65)


class TestRearrange:
    def test_constant(self):
        prof = lo.rearrange(G65, -3.0 * np.ones((65, 65)))
        assert np.all(prof.fstar == 3.0)
        assert np.all(prof.fstarstar == 3.0)
        assert prof.t[-1] == pytest.approx(65 * 65 * G65.h**2)

    def test_indicator_of_half_the_cells(self):
        f = np.zeros(65 * 65)
        f[: f.size // 2] = 1.0
        prof = lo.rearrange(G65, f.reshape(65, 65))
        k = f.size // 2
        assert np.all(prof.fstar[:k] == 1.0)
        assert np.all(prof.fstar[k:] == 0.0)

    def test_equimeasurability_exact(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(65, 65))
        prof = lo.rearrange(G65, f)
        assert np.array_equal(np.sort(prof.fstar), np.sort(np.abs(f).ravel()))
        # level-set measures preserved exactly in the discrete sense
        for s in (0.1, 0.5, 1.3):
            assert np.sum(np.abs(f) >= s) == np.sum(prof.fstar >= s)

    def test_profile_invariants(self):
        rng = np.random.default_rng(1)
        prof = lo.rearrange(G65, rng.normal(size=(65, 65)))
        assert np.all(np.diff(prof.fstar) <= 0.0)
        assert np.all(prof.fstarstar >= prof.fstar - 1e-15)
        assert np.all(np.diff(prof.t) > 0.0)

    def test_reciprocal_radius_profile(self):
        # |{1/|x| >= s}| = pi/s^2 while the level sets stay disks, so
        # f*(t) = sqrt(pi/t) on that range
        g = Grid(0.5, 513)
        X1, X2 = g.nodes()
        r = np.hypot(X1, X2)
        exclude = r < 1e-14
        f = np.zeros_like(r)
        f[~exclude] = 1.0 / r[~exclude]
        prof = lo.rearrange(g, f[~exclude])
        sel = (prof.t > 0.01) & (prof.t < 0.2)  # comfortably inside the disk range
        rel = np.abs(prof.fstar[sel] - np.sqrt(np.pi / prof.t[sel])) / np.sqrt(np.pi / prof.t[sel])
        assert np.max(rel) < 0.02

    def test_nonfinite_rejected(self):
        for sample in (np.inf, -np.inf, np.nan):
            f = np.ones((65, 65))
            f[3, 3] = sample
            with pytest.raises(ValueError):
                lo.rearrange(G65, f)
            # only kept cells count: a non-finite sample indexed out is never checked
            exclude = np.zeros((65, 65), dtype=bool)
            exclude[3, 3] = True
            assert np.all(lo.rearrange(G65, f[~exclude]).fstar == 1.0)
            exclude[3, 3], exclude[5, 5] = False, True
            with pytest.raises(ValueError):
                lo.rearrange(G65, f[~exclude])


class TestLorentzNorm:
    def test_parameter_validation(self):
        prof = lo.rearrange(G65, np.ones((65, 65)))
        with pytest.raises(ValueError):
            lo.lorentz_norm(prof, 1.0, 2.0)
        with pytest.raises(ValueError):
            lo.lorentz_norm(prof, np.inf, 2.0)
        with pytest.raises(ValueError):
            lo.lorentz_norm(prof, 2.0, 0.5)

    @pytest.mark.parametrize("q", [1.0, np.inf])
    def test_empty_profile_has_zero_norm(self, q):
        # every sample indexed out: the norm of nothing is 0.0, not an IndexError
        prof = lo.rearrange(G65, np.ones((65, 65))[~np.ones((65, 65), dtype=bool)])
        assert prof.t.size == 0
        assert lo.lorentz_norm(prof, 2.0, q) == 0.0

    def test_constant_closed_forms(self):
        c, T = 2.5, None
        prof = lo.rearrange(G65, c * np.ones((65, 65)))
        T = prof.t[-1]
        # ||c||_{p,q} = c (p/q)^{1/q} T^{1/p}; q = inf gives c sqrt(T) at p = 2
        assert lo.lorentz_norm(prof, 2.0, np.inf) == pytest.approx(c * np.sqrt(T), rel=1e-12)
        assert lo.lorentz_norm(prof, 2.0, 2.0) == pytest.approx(c * np.sqrt(T), rel=1e-12)
        assert lo.lorentz_norm(prof, 3.0, 1.5) == pytest.approx(
            c * (3.0 / 1.5) ** (1 / 1.5) * T ** (1 / 3.0), rel=1e-12
        )

    def test_weak_norm_of_reciprocal_radius(self):
        # f**(t) = 2 sqrt(pi/t) on the disk range: the weak L^2 norm
        # converges to 2 sqrt(pi) within 2 percent at n = 513
        g = Grid(0.5, 513)
        X1, X2 = g.nodes()
        r = np.hypot(X1, X2)
        exclude = r < 1e-14
        f = np.zeros_like(r)
        f[~exclude] = 1.0 / r[~exclude]
        norm = lo.lorentz_norm(lo.rearrange(g, f[~exclude]), 2.0, np.inf)
        assert abs(norm - 2.0 * np.sqrt(np.pi)) < 0.02 * 2.0 * np.sqrt(np.pi)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(65, 65))
        for p, q in ((2.0, 1.0), (2.0, 2.0), (2.0, np.inf), (1.5, 3.0)):
            n1 = lo.lorentz_norm(lo.rearrange(G65, f), p, q)
            n2 = lo.lorentz_norm(lo.rearrange(G65, -2.5 * f), p, q)
            assert n2 == pytest.approx(2.5 * n1, rel=1e-12)

    def test_nesting_weak_below_strong(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            f = lo.random_band_limited(G65, seed)
            prof = lo.rearrange(G65, f)
            weak = lo.lorentz_norm(prof, 2.0, np.inf)
            for q in (1.0, 2.0, 4.0):
                assert weak <= lo.lorentz_norm(prof, 2.0, q) * (1.0 + 1e-12)

    def test_L22_vs_L2_ratio_in_hardy_band(self):
        # f** >= f* gives ratio >= 1; the Hardy bound gives <= p' = 2
        for seed in range(50):
            f = lo.random_band_limited(G65, seed)
            n22 = lo.lorentz_norm(lo.rearrange(G65, f), 2.0, 2.0)
            nl2 = dg.l2norm(G65, f)
            assert 1.0 - 1e-9 <= n22 / nl2 <= 2.0


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 1000))
def test_property_scaling_and_nesting(scale, seed):
    f = scale * lo.random_band_limited(Grid(0.5, 33), seed)
    prof = lo.rearrange(Grid(0.5, 33), f)
    weak = lo.lorentz_norm(prof, 2.0, np.inf)
    strong = lo.lorentz_norm(prof, 2.0, 1.0)
    assert weak <= strong * (1.0 + 1e-12)


class TestWente:
    def test_constant_a_gives_zero(self):
        res = lo.wente_solve(G65, np.ones((65, 65)), lo.random_band_limited(G65, 4))
        assert np.max(np.abs(res.u)) < 1e-12
        assert res.ratio_L2 == 0.0 and res.ratio_L21 == 0.0
        assert res.degenerate

    def test_parallel_linear_gradients_vanish(self):
        # grad a parallel to grad b kills the Jacobian: u = 0 while the
        # denominators stay finite
        X1, X2 = G65.nodes()
        res = lo.wente_solve(G65, X1, 2.0 * X1 + 0.5)
        assert np.max(np.abs(res.u)) < 1e-12
        assert not res.degenerate
        assert res.ratio_L2 == 0.0

    def test_identity_pair_has_unit_jacobian(self):
        # a = x1, b = x2 is the identity map: grad a . grad_perp b = -1,
        # so u solves the unit-rhs Dirichlet problem (center value 0.0736...)
        X1, X2 = G65.nodes()
        res = lo.wente_solve(G65, X1, X2)
        assert np.max(np.abs(res.u)) == pytest.approx(0.07367, abs=5e-4)
        assert res.ratio_L2 > 0.0

    def test_scale_invariance_of_ratios(self):
        # the ratios are homogeneous of degree 0 in a and in b: no scale may flag them degenerate,
        # and a power-of-2 scale, exact on the data, keeps their bits
        a = lo.random_band_limited(G65, 5)
        b = lo.random_band_limited(G65, 6)
        base = lo.wente_solve(G65, a, b)
        for ca, cb in ((3.7, 0.2), (1e-12, 1e-12), (1e-8, 1e-8), (1.0, 1.0), (1e8, 1e8), (1e150, 1e150),
                       (1e-300, 1e300), (2.0**-500, 2.0**-30), (2.0**-1000, 2.0**1000)):
            scaled = lo.wente_solve(G65, ca * a, cb * b)
            assert not scaled.degenerate
            assert scaled.ratio_L2 == pytest.approx(base.ratio_L2, rel=1e-10)
            assert scaled.ratio_L21 == pytest.approx(base.ratio_L21, rel=1e-10)
            if np.frexp(ca)[0] == np.frexp(cb)[0] == 0.5:
                assert (scaled.ratio_L2, scaled.ratio_L21) == (base.ratio_L2, base.ratio_L21)
                assert np.array_equal(scaled.u, ca * cb * base.u)

    def test_sample_frees_its_fields(self):
        # a and b passed straight in are freed once their gradients exist: one n = 129 sample
        # peaks below 9.5 fields above its start (10.9 while both stay alive through the solve)
        grid = Grid(0.5, 129)
        lo.wente_solve(grid, lo.random_band_limited(grid, 0), lo.random_band_limited(grid, 1))  # warm the caches
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            res = lo.wente_solve(grid, lo.random_band_limited(grid, 2), lo.random_band_limited(grid, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not res.degenerate
        assert (peak - start) / (grid.n**2 * 8) < 9.5

    def test_ratios_finite_over_seeds(self):
        for seed in range(20):
            a = lo.random_band_limited(G65, 2 * seed)
            b = lo.random_band_limited(G65, 2 * seed + 1)
            res = lo.wente_solve(G65, a, b)
            assert np.isfinite(res.ratio_L2) and np.isfinite(res.ratio_L21)
            assert res.ratio_L2 > 0.0 and res.ratio_L21 > 0.0

    def test_ratios_equal_separately_computed_reference(self):
        # the route wente_solve takes, recomputed apart: |grad f| = sqrt(d1^2 + d2^2) for the weak
        # norm and ||grad f||_2 = sqrt(h^2 sum (d1^2 + d2^2)); the power-of-2 scaling is exact
        for seed in range(3):
            a = lo.random_band_limited(G65, 2 * seed)
            b = lo.random_band_limited(G65, 2 * seed + 1)
            res = lo.wente_solve(G65, a, b)
            assert (res.ratio_L2, res.ratio_L21) == _reference_ratios(G65, a, b, hypot=False)

    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_ratios_match_the_hypot_route(self, n):
        # the sum of squares rounds differently from np.hypot: the ratios move by rounding only
        grid = Grid(0.5, n)
        for seed in range(3):
            a = lo.random_band_limited(grid, 2 * seed)
            b = lo.random_band_limited(grid, 2 * seed + 1)
            res = lo.wente_solve(grid, a, b)
            for got, ref in zip((res.ratio_L2, res.ratio_L21), _reference_ratios(grid, a, b, hypot=True)):
                assert abs(got - ref) <= 1e-14 * ref


def _reference_ratios(grid, a, b, hypot):
    """The two Wente ratios from unscaled gradients: |grad f| and ||grad f||_2 from np.hypot if
    hypot, else from the sum of squares d1^2 + d2^2."""
    def norms(f):
        G = dg.grad(grid, f)
        if hypot:
            mag = np.hypot(G[0], G[1])
            return G, mag, float(dg.l2norm(grid, mag))
        sq = G[0] ** 2 + G[1] ** 2
        return G, np.sqrt(sq), float(np.sqrt(grid.h**2 * np.sum(sq)))

    Ga, _, na_l2 = norms(a)
    Gb, mag_b, nb_l2 = norms(b)
    Gu, _, nu_l2 = norms(dg.poisson_dirichlet(grid, -Ga[0] * Gb[1] + Ga[1] * Gb[0]))
    nb_weak = lo.lorentz_norm(lo.rearrange(grid, mag_b), 2.0, np.inf)
    nu_l21 = sum(lo.lorentz_norm(lo.rearrange(grid, Gu[j]), 2.0, 1.0) for j in range(2))
    return nu_l2 / (na_l2 * nb_weak), nu_l21 / (na_l2 * nb_l2)


def _meshgrid_band_limited(grid, seed, kmax):
    """The field evaluated on the full meshgrid, one mode at a time."""
    rng = np.random.default_rng(seed)
    X1, X2 = grid.nodes()
    omega = np.pi / (2.0 * grid.s)
    f = np.zeros_like(X1)
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            amp = rng.normal() / (1.0 + k * k + l * l)
            ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            f += amp * np.cos(k * omega * X1 + ph1) * np.cos(l * omega * X2 + ph2)
    return f


def _meshgrid_folded(grid, seed, kmax):
    """The folded sum, sum_k cos(k w X1) C_k(X2) + sum_{k >= 1} sin(k w X1) S_k(X2) in that order,
    evaluated on the full meshgrid: C_k and S_k sum amp cos ph1 and -amp sin ph1 times cos(l w X2 + ph2)."""
    rng = np.random.default_rng(seed)
    X1, X2 = grid.nodes()
    omega = np.pi / (2.0 * grid.s)
    C = [np.zeros_like(X1) for _ in range(kmax + 1)]
    S = [np.zeros_like(X1) for _ in range(kmax + 1)]
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            amp = rng.normal() / (1.0 + k * k + l * l)
            ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            c2 = np.cos(l * omega * X2 + ph2)
            C[k] += amp * np.cos(ph1) * c2
            S[k] -= amp * np.sin(ph1) * c2
    f = np.zeros_like(X1)
    for k in range(kmax + 1):
        f += np.cos(k * omega * X1) * C[k]
    for k in range(1, kmax + 1):
        f += np.sin(k * omega * X1) * S[k]
    return f


@pytest.mark.parametrize("n", [5, 9, 17, 33, 65, 129, 257])
@pytest.mark.parametrize("s", [0.5, 0.7])
@pytest.mark.parametrize("kmax", range(7))
def test_separable_field_is_bit_identical_to_meshgrid(n, s, kmax):
    # the outer products of the folded sum round exactly like its meshgrid evaluation: the
    # terms are added elementwise, in order, never by a BLAS product, and each right factor
    # sums its modes over l in order from zero, as the loop here does
    grid = Grid(s, n)
    for seed in range(10):
        assert np.array_equal(lo.random_band_limited(grid, seed, kmax), _meshgrid_folded(grid, seed, kmax))


@pytest.mark.parametrize("n", [33, 65, 257])
@pytest.mark.parametrize("s", [0.5, 0.7])
@pytest.mark.parametrize("kmax", [1, 4])
def test_separable_field_matches_mode_sum(n, s, kmax):
    # folding the modes rounds differently from adding them one by one (1.03e-15 sup|f| measured)
    grid = Grid(s, n)
    for seed in range(10):
        f = lo.random_band_limited(grid, seed, kmax)
        assert np.max(np.abs(f - _meshgrid_band_limited(grid, seed, kmax))) <= 1e-14 * np.max(np.abs(f))
        assert np.array_equal(f.view(np.int64), lo.random_band_limited(grid, seed, kmax).view(np.int64))
