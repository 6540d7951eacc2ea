"""Grid calculus and elliptic solvers: stencil identities, manufactured
solutions, and convergence order."""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from willmore_lab import conservation as cons
from willmore_lab import diskgrid as dg
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid


def smooth_field(grid):
    X1, X2 = grid.nodes()
    return np.sin(1.3 * X1) * np.cos(0.7 * X2) + X1**2 * X2


def smooth_grad(grid):
    X1, X2 = grid.nodes()
    return np.stack(
        [
            1.3 * np.cos(1.3 * X1) * np.cos(0.7 * X2) + 2.0 * X1 * X2,
            -0.7 * np.sin(1.3 * X1) * np.sin(0.7 * X2) + X1**2,
        ]
    )


def smooth_lap(grid):
    X1, X2 = grid.nodes()
    return -(1.3**2 + 0.7**2) * np.sin(1.3 * X1) * np.cos(0.7 * X2) + 2.0 * X2


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.9, 65)  # outside the unit disk
        with pytest.raises(ValueError):
            Grid(0.5, 64)  # even
        with pytest.raises(ValueError):
            Grid(-0.1, 65)

    def test_spacing_and_nodes(self):
        g = Grid(0.5, 65)
        assert g.h == pytest.approx(1.0 / 64.0)
        X1, X2 = g.nodes()
        assert X1[0, 0] == -0.5 and X1[-1, 0] == 0.5
        assert X2[0, 0] == -0.5 and X2[0, -1] == 0.5
        assert X1[32, 32] == 0.0 == X2[32, 32]

    def test_interior_margin(self):
        assert Grid(0.5, 65).interior_margin() >= 2
        assert Grid(0.5, 257).interior_margin() == 10


class TestOperators:
    def test_quadratic_laplacian_exact(self):
        g = Grid(0.5, 65)
        X1, _ = g.nodes()
        lap = dg.laplace(g, X1**2)
        win = g.interior()
        assert np.max(np.abs(lap[win] - 2.0)) < 1e-11

    def test_gradient_second_order(self):
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            win = g.interior()
            errs.append(np.max(np.abs((dg.grad(g, smooth_field(g)) - smooth_grad(g))[(slice(None),) + win])))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_curl_of_grad_is_zero(self):
        g = Grid(0.5, 65)
        f = smooth_field(g)
        win = g.interior()
        assert np.max(np.abs(dg.curl(g, dg.grad(g, f))[win])) < 1e-11

    def test_div_of_grad_perp_is_zero(self):
        g = Grid(0.5, 65)
        f = smooth_field(g)
        win = g.interior()
        assert np.max(np.abs(dg.div(g, dg.grad_perp(g, f))[win])) < 1e-11

    def test_div_grad_equals_laplace_exactly(self):
        g = Grid(0.5, 65)
        f = smooth_field(g)
        assert np.array_equal(dg.laplace(g, f), dg.div(g, dg.grad(g, f)))

    def test_wirtinger_factorization(self):
        # 4 dzstar(dz f) = laplace f at interior nodes, up to rounding
        g = Grid(0.5, 65)
        f = smooth_field(g)
        win = g.interior()
        resid = 4.0 * dg.dzstar(g, dg.dz(g, f)) - dg.laplace(g, f)
        assert np.max(np.abs(resid[win])) < 1e-11

    def test_derivatives_keep_the_formula_bits_and_the_stack_layout(self):
        # d1 and d2 write into their result, and grad and grad_perp write both components into one
        # array: bits as the stencil formula reads, layout as np.stack lays out the two derivatives
        # (reductions run in memory order), for real and complex fields in any memory order
        def formula(f, h):
            out = np.empty_like(f, dtype=np.result_type(f, float))
            out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
            out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
            out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
            return out

        def same(a, b):
            return a.dtype == b.dtype and a.strides == b.strides and a.tobytes() == b.tobytes()

        g = Grid(0.5, 17)
        X = np.random.default_rng(3).normal(size=(5, 17, 17))
        X[1, 3:6] = -0.0
        fields = [smooth_field(g), X.transpose(1, 2, 0).copy(), np.moveaxis(X, 0, -1), X.transpose(2, 1, 0),
                  (1.0 - 2.0j) * np.moveaxis(X, 0, -1), np.moveaxis(X, 0, -1).real]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in fields:
                d1 = formula(f, g.h)
                d2 = np.swapaxes(formula(np.swapaxes(f, 0, 1), g.h), 0, 1)
                assert same(dg.d1(g, f), d1) and same(dg.d2(g, f), d2)
                assert same(dg.grad(g, f), np.stack([d1, d2]))
                assert same(dg.grad_perp(g, f), np.stack([-d2, d1]))

    def test_operators_broadcast_trailing_axes(self):
        g = Grid(0.5, 33)
        rng = np.random.default_rng(0)
        F = rng.normal(size=(33, 33, 3))
        G = dg.grad(g, F)
        assert G.shape == (2, 33, 33, 3)
        for k in range(3):
            assert np.allclose(G[0][..., k], dg.d1(g, F[..., k]))


class TestPoissonDirichlet:
    def test_zero_data_zero_solution(self):
        g = Grid(0.5, 65)
        u = dg.poisson_dirichlet(g, np.zeros((65, 65)))
        assert np.max(np.abs(u)) == 0.0

    def test_five_point_contract(self):
        g = Grid(0.5, 65)
        rng = np.random.default_rng(1)
        rhs = rng.normal(size=(65, 65))
        u = dg.poisson_dirichlet(g, rhs)
        h2 = g.h**2
        lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2] - 4 * u[1:-1, 1:-1]) / h2
        assert np.max(np.abs(lap - rhs[1:-1, 1:-1])) < 1e-9 * np.max(np.abs(rhs))
        ring = np.concatenate([u[0], u[-1], u[:, 0], u[:, -1]])
        assert np.all(ring == 0.0) and not np.any(np.signbit(ring))

    def test_manufactured_solution_convergence(self):
        # u = (s^2 - x1^2)(s^2 - x2^2) e^(x1 + x2) vanishes on the boundary
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            X1, X2 = g.nodes()
            A, B, E = g.s**2 - X1**2, g.s**2 - X2**2, np.exp(X1 + X2)
            u = A * B * E
            lap = (B * (A - 4.0 * X1 - 2.0) + A * (B - 4.0 * X2 - 2.0)) * E
            got = dg.poisson_dirichlet(g, lap)
            errs.append(np.max(np.abs(got - u)))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_unit_rhs_center_value(self):
        # Lap u = 1, u = 0 on the boundary of [-1/2, 1/2]^2: compare the
        # center value against a Richardson-extrapolated fine-grid oracle
        vals = {}
        for n in (129, 257, 513):
            g = Grid(0.5, n)
            u = dg.poisson_dirichlet(g, np.ones((n, n)))
            vals[n] = u[n // 2, n // 2]
        oracle = vals[513] + (vals[513] - vals[257]) / 3.0
        assert abs(vals[129] - oracle) < 1e-4

    def test_linearity_superposition(self):
        g = Grid(0.5, 65)
        rng = np.random.default_rng(2)
        r1, r2 = rng.normal(size=(2, 65, 65))
        lhs = dg.poisson_dirichlet(g, r1 + 2.0 * r2)
        rhs = dg.poisson_dirichlet(g, r1) + 2.0 * dg.poisson_dirichlet(g, r2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_complex_rhs(self):
        g = Grid(0.5, 65)
        rng = np.random.default_rng(3)
        rhs = rng.normal(size=(65, 65)) + 1j * rng.normal(size=(65, 65))
        u = dg.poisson_dirichlet(g, rhs)
        assert np.array_equal(u.real, dg.poisson_dirichlet(g, rhs.real))
        assert np.array_equal(u.imag, dg.poisson_dirichlet(g, rhs.imag))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_slice_raises(self):
        # the solver reports a non-finite slice by its residual check, without a numpy warning
        g = Grid(0.5, 33)
        rhs = np.random.default_rng(4).normal(size=(33, 33, 3))
        for bad in (np.nan, np.inf):
            rhs[10, 12, 1] = bad
            with pytest.raises(dg.SolverError):
                dg.poisson_dirichlet(g, rhs)

    def test_residual_normalized_per_slice(self):
        # a defect in the small slice hides under the large slice's scale
        # unless every slice is normalized by its own data
        g = Grid(0.5, 33)
        rhs = np.random.default_rng(5).normal(size=(33, 33, 2))
        rhs[..., 0] *= 1e12
        u = dg.poisson_dirichlet(g, rhs)
        u[16, 16, 1] += 1e-6 * np.max(np.abs(u[..., 1]))
        assert dg._five_point_residual(g, u, rhs) > 1e-10


@pytest.mark.parametrize("complex_data", [False, True])
def test_stacked_solves_equal_per_slice_calls(complex_data):
    n, k = 33, 4
    g = Grid(0.5, n)
    rng = np.random.default_rng(6)

    def sample(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_data else x

    rhs = sample(n, n, k)
    u = dg.poisson_dirichlet(g, rhs)
    fluxes = [sample(n, k) for _ in range(4)]
    data = [a.tobytes() for a in (rhs, *fluxes)]
    v, compat = dg.poisson_neumann(g, rhs, *fluxes)
    assert [a.tobytes() for a in (rhs, *fluxes)] == data and not np.shares_memory(v, rhs)  # solved in a copy
    assert compat.shape == (k,)
    for j in range(k):
        assert np.array_equal(u[..., j], dg.poisson_dirichlet(g, rhs[..., j]))
        vj, cj = dg.poisson_neumann(g, rhs[..., j], *(f[:, j] for f in fluxes))
        assert np.array_equal(v[..., j], vj)
        assert isinstance(cj, float) and compat[j] == cj
    G = sample(2, n, n, k)
    for potential in (dg.grad_potential, dg.curl_potential):
        res = potential(g, G)
        parts = [potential(g, G[..., j]) for j in range(k)]
        assert np.array_equal(res.u, np.stack([p.u for p in parts], axis=-1))
        assert res.defect == pytest.approx(np.sqrt(sum(p.defect**2 for p in parts)), rel=1e-14)
        assert res.compat_defect == max(p.compat_defect for p in parts)


def written_out_neumann(g, G, perp):
    """Reference: the Neumann data of a gradient target written out, div G with the fluxes G . nu,
    or with perp curl G with G . tau."""
    if perp:
        return dg.poisson_neumann(g, dg.curl(g, G), -G[1][0, :], G[1][-1, :], G[0][:, 0], -G[0][:, -1])
    return dg.poisson_neumann(g, dg.div(g, G), -G[0][0, :], G[0][-1, :], -G[1][:, 0], G[1][:, -1])


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("trailing", [(), (3,)])
def test_potentials_keep_the_written_out_neumann_data(complex_data, trailing):
    g = Grid(0.5, 33)
    rng = np.random.default_rng(12)
    G = rng.normal(size=(2, 33, 33) + trailing)
    if complex_data:
        G = G + 1j * rng.normal(size=G.shape)
    assert dg.neumann_potential(g, G)[0].tobytes() == written_out_neumann(g, G, False)[0].tobytes()
    for perp, potential, rebuild in ((False, dg.grad_potential, dg.grad), (True, dg.curl_potential, dg.grad_perp)):
        want, want_compat = written_out_neumann(g, G, perp)
        u, compat = dg.neumann_potential(g, G, perp)
        assert u.tobytes() == want.tobytes() and np.asarray(compat).tobytes() == np.asarray(want_compat).tobytes()
        res = potential(g, G)
        assert res.u.tobytes() == want.tobytes()
        assert res.defect == dg.l2norm(g, rebuild(g, want) - G)
        assert res.compat_defect == float(np.max(want_compat))


def test_curl_potential_peak_memory():
    # recover_L is curl_potential of the memoized Q: the solve overwrites its own copy of the data and
    # curl Q goes before grad_perp u is formed, so a sphere at m = 3, n = 129 peaks at 5.0 fields (n, n, 3)
    # above the entry (6.0 with a second array for u and curl Q held to the end)
    g = Grid(0.5, 129)
    b = im.make_bundle(im.make_surface("sphere", g))
    cons.recover_L(b)  # memoizes Q, warms the solver caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cons.recover_L(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (g.n**2 * 3 * 8) < 5.5


def _type1_matrix(n, sine):
    """Dense unnormalized DST-I or DCT-I matrix of length n."""
    j = np.arange(n)
    if sine:
        return 2.0 * np.sin(np.pi * np.outer(j + 1, j + 1) / (n + 1))
    M = 2.0 * np.cos(np.pi * np.outer(j, j) / (n - 1))
    M[:, [0, -1]] /= 2.0
    return M


def _type1(x, sine, inverse=False):
    """scipy.fft's type-1 dstn or dctn over axes (0, 1) (idstn or idctn if inverse) from the
    solvers' passes, composed as they compose them: axis 0 first, the inverse factor rounded
    from long double on that pass, the DST's sign folded into the next pass's factor."""
    out, s, d = np.empty_like(x), (-1.0 if sine else 1.0), (1 if sine else -1)
    fct = float(np.longdouble(1) / (4 * (x.shape[0] + d) * (x.shape[1] + d))) if inverse else 1.0
    with np.errstate(all="ignore"):
        for src, dst in dg._slabs(x, out):
            np.multiply(dg._pass(dg._pass(src, sine), sine, s * fct), s, out=dst)
    return out


def _divide_modes(x, table):
    """x /= table over axes (0, 1), complex x part by part."""
    parts = x[..., None].view(x.real.dtype)
    parts /= table.reshape(table.shape + (1,) * (parts.ndim - 2))


def _laplace_eigs(n, h):
    """5-point Laplacian eigenvalues of cosine mode (k1, k2), k = 0..n-1, from their formula."""
    lam = (2.0 * np.cos(np.pi * np.arange(n) / (n - 1)) - 2.0) / h**2
    return lam[:, None] + lam[None, :]


class TestType1Transforms:
    """The type-I sine/cosine passes the Poisson solvers are built from."""

    @pytest.mark.parametrize("n", [5, 9, 33])
    def test_dense_sums(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, n + 2, 3)) + 1j * rng.normal(size=(n, n + 2, 3))
        for sine, inverse in ((True, False), (True, True), (False, False), (False, True)):
            M0, M1 = _type1_matrix(n, sine), _type1_matrix(n + 2, sine)
            want = np.einsum("ia,jb,abk->ijk", M0, M1, x)
            if inverse:
                want /= 4.0 * (n + 1) * (n + 3) if sine else 4.0 * (n - 1) * (n + 1)
            for part in (x.real, x):
                got = _type1(part, sine, inverse)
                ref = want.real if part is not x else want
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", list(range(5, 67, 2)) + [129, 257])
    def test_scipy_bits(self, n):
        sfft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(n)
        routes = (((True, False), sfft.dstn), ((True, True), sfft.idstn),
                  ((False, False), sfft.dctn), ((False, True), sfft.idctn))
        x2, x3 = rng.normal(size=(n, n)), rng.normal(size=(n, n, 3))
        # 15 slots with the trailing axis outermost in memory, as the m = 6 bivector solves
        # pass them (3 at n = 257, to keep the suite's time); the output keeps the strides
        view = np.moveaxis(rng.normal(size=(15 if n < 257 else 3, n, n)), 0, -1)
        # two trailing axes whose memory order is not C order
        x4 = rng.normal(size=(n, n, 2, 3)).transpose(0, 1, 3, 2)
        for x in (x2, x2 + 1j * x2[::-1], x3, x3 + 1j * x3[::-1], view, view + 1j * view[::-1], x4):
            for (sine, inverse), scipy_route in routes:
                got = _type1(x, sine, inverse)
                want = scipy_route(x, type=1, axes=(0, 1))
                assert got.dtype == want.dtype and got.strides == x.strides
                assert got.tobytes() == want.tobytes()

    def test_scipy_inverse_factor_rounding(self):
        # pocketfft rounds 1/(4 * 126 * 178) from long double, which differs from the double quotient
        sfft = pytest.importorskip("scipy.fft")
        x = np.random.default_rng(0).normal(size=(125, 177))
        assert _type1(x, True, True).tobytes() == sfft.idstn(x, type=1, axes=(0, 1)).tobytes()
        assert _type1(x, False, True).tobytes() == sfft.idctn(x, type=1, axes=(0, 1)).tobytes()

    @pytest.mark.parametrize("n", [33, 65, 129])
    def test_solvers_keep_scipy_bits(self, n):
        # the fused solvers against the transform, divide, transform route on scipy.fft
        sfft = pytest.importorskip("scipy.fft")
        g, rng = Grid(0.5, n), np.random.default_rng(n)
        x3 = rng.normal(size=(n, n, 3))
        view = np.moveaxis(rng.normal(size=(6, n, n)), 0, -1)
        eigs = _laplace_eigs(n, g.h)  # the sine modes are k = 1..n-2
        neumann_eigs = eigs.copy()
        neumann_eigs[0, 0] = 1.0  # the zero mode is projected out, not divided
        for rhs in (x3, x3[..., 0] + 1j * x3[..., 1], view, view + 1j * view[::-1]):
            u = np.zeros(rhs.shape, dtype=rhs.dtype)
            fhat = sfft.dstn(rhs[1:-1, 1:-1].astype(rhs.dtype), type=1, axes=(0, 1), overwrite_x=True)
            _divide_modes(fhat, eigs[1:-1, 1:-1])
            u[1:-1, 1:-1] = sfft.idstn(fhat, type=1, axes=(0, 1), overwrite_x=True)
            assert dg.poisson_dirichlet(g, rhs).tobytes() == u.tobytes()
            w = dg._dct_weights(n)
            c = (n - 1.0) / (2.0 * w)
            beta = sfft.dctn(np.array(rhs), type=1, axes=(0, 1), overwrite_x=True)
            _divide_modes(beta, 4.0 * np.outer(c, c))
            compat = np.abs(beta[0, 0])
            _divide_modes(beta, neumann_eigs)
            beta[0, 0] = 0.0
            _divide_modes(beta, 4.0 * np.outer(w, w))
            got, got_compat = dg.poisson_neumann(g, rhs)
            want = sfft.dctn(beta, type=1, axes=(0, 1), overwrite_x=True)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
            assert np.asarray(got_compat).tobytes() == compat.tobytes()


class TestNeumannAndPotentials:
    def test_neumann_manufactured(self):
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            u = smooth_field(g)
            G = smooth_grad(g)
            got, compat = dg.poisson_neumann(
                g, smooth_lap(g), -G[0][0, :], G[0][-1, :], -G[1][:, 0], G[1][:, -1]
            )
            errs.append(np.max(np.abs((got - got.mean()) - (u - u.mean()))))
        assert 3.4 <= errs[0] / errs[1] <= 4.6

    def test_curl_potential_recovers_x1x2(self):
        g = Grid(0.5, 129)
        X1, X2 = g.nodes()
        L = X1 * X2
        res = dg.curl_potential(g, dg.grad_perp(g, L))
        aligned = res.u - res.u.mean() - (L - L.mean())
        assert np.max(np.abs(aligned)) < 1e-10
        assert res.defect < 1e-9

    def test_curl_potential_manufactured_convergence(self):
        defects = []
        for n in (65, 129):
            g = Grid(0.5, n)
            X1, X2 = g.nodes()
            L = np.sin(1.1 * X1) * X2 + 0.3 * np.cos(2.0 * X2)
            res = dg.curl_potential(g, dg.grad_perp(g, L))
            aligned = res.u - res.u.mean() - (L - L.mean())
            defects.append(np.max(np.abs(aligned)))
        assert 3.4 <= defects[0] / defects[1] <= 4.6

    def test_constant_field_is_exact_rotated_gradient(self):
        # (1, 0) = grad_perp(-x2): the recovery is exact and the Neumann data
        # are compatible (constant fields always admit a potential on the square)
        g = Grid(0.5, 65)
        G = np.stack([np.ones((65, 65)), np.zeros((65, 65))])
        res = dg.curl_potential(g, G)
        assert res.defect < 1e-10
        assert res.compat_defect <= 1e-6 * dg.l2norm(g, G)

    def test_position_field_has_no_potential(self):
        # div(x1, x2) = 2 != 0: the defect stays bounded away from zero
        for n in (65, 129):
            g = Grid(0.5, n)
            res = dg.curl_potential(g, np.stack(g.nodes()))
            assert res.defect > 0.3

    def test_grad_potential_roundtrip(self):
        errs = []
        for n in (65, 129):
            g = Grid(0.5, n)
            f = smooth_field(g)
            res = dg.grad_potential(g, dg.grad(g, f))
            aligned = res.u - res.u.mean() - (f - f.mean())
            errs.append(np.max(np.abs(aligned)))
        assert errs[1] < 2e-5
        assert 3.4 <= errs[0] / errs[1] <= 4.6


class TestHodgeDecompose:
    def test_pure_gradient(self):
        g = Grid(0.5, 129)
        X1, X2 = g.nodes()
        # phi vanishing on the boundary
        phi = np.cos(np.pi * X1) * np.cos(np.pi * X2)
        parts = dg.hodge_decompose(g, dg.grad(g, phi))
        win = g.interior()
        assert np.max(np.abs((parts.alpha - phi)[win])) < 2e-3
        assert np.max(np.abs(parts.beta[win])) < 2e-3

    def test_pure_rotated_gradient(self):
        g = Grid(0.5, 129)
        X1, X2 = g.nodes()
        psi = np.cos(np.pi * X1) * np.cos(np.pi * X2)
        parts = dg.hodge_decompose(g, dg.grad_perp(g, psi))
        win = g.interior()
        assert np.max(np.abs((parts.beta - psi)[win])) < 2e-3

    def test_reconstruction_exact_and_harmonic_residual(self):
        g = Grid(0.5, 129)
        X1, X2 = g.nodes()
        gv = np.stack(
            [np.sin(1.1 * X1 + 0.2) * np.cos(0.9 * X2), np.cos(1.3 * X1) * np.sin(0.8 * X2 + 0.1)]
        )
        parts = dg.hodge_decompose(g, gv)
        recon = dg.grad(g, parts.alpha) + dg.grad_perp(g, parts.beta) + parts.harmonic
        assert np.max(np.abs(recon - gv)) < 1e-13
        win = g.interior()
        lap = np.stack([dg.laplace(g, parts.harmonic[j]) for j in range(2)])
        errs_129 = np.max(np.abs(lap[(slice(None),) + win]))
        g2 = Grid(0.5, 257)
        X1, X2 = g2.nodes()
        gv2 = np.stack(
            [np.sin(1.1 * X1 + 0.2) * np.cos(0.9 * X2), np.cos(1.3 * X1) * np.sin(0.8 * X2 + 0.1)]
        )
        parts2 = dg.hodge_decompose(g2, gv2)
        lap2 = np.stack([dg.laplace(g2, parts2.harmonic[j]) for j in range(2)])
        errs_257 = np.max(np.abs(lap2[(slice(None),) + g2.interior()]))
        assert 3.0 <= errs_129 / errs_257 <= 5.2


class TestFieldIO:
    def test_binary_roundtrip(self, tmp_path):
        g = Grid(0.5, 33)
        rng = np.random.default_rng(4)
        data = rng.normal(size=(33, 33, 3))
        path = tmp_path / "field.bin"
        dg.write_field(path, g, data)
        g2, values = dg.read_field(path)
        assert g2 == g
        assert np.array_equal(values, data)

    def test_binary_roundtrip_complex(self, tmp_path):
        g = Grid(0.5, 33)
        rng = np.random.default_rng(5)
        data = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
        path = tmp_path / "cfield.bin"
        dg.write_field(path, g, data)
        _, values = dg.read_field(path)
        assert values.shape == (33, 33, 2)
        assert np.array_equal(values[..., 0] + 1j * values[..., 1], data)


@pytest.mark.parametrize("x, e", [(0.0, 0), (0.75, 0), (1.0, 1), (-3.0, 2), (5e-324, -1073),
                                  (np.inf, 0), (np.nan, 0)])
def test_exponent(x, e):
    # max |x| 2^-e lies in [1/2, 1), and e = 0 where that max is 0 or not finite
    assert dg.exponent(x) == e
    assert dg.exponent(np.array([[0.0, x], [-0.0, 0.5 * x]])) == e
    sup = np.ldexp(abs(x), -e)
    assert sup == 0.0 or not np.isfinite(sup) or 0.5 <= sup < 1.0


@pytest.mark.parametrize("s, n", [(0.5, 9), (0.5, 65), (0.3, 33)])
def test_integrate_reuses_read_only_weights(s, n):
    # the (n, n) trapezoid weights are built once per (n, h), read-only; the sum keeps the bits of the
    # weights formed on each call
    g = Grid(s, n)
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    W = np.outer(w, w) * g.h**2
    rng = np.random.default_rng(n)
    for f in (rng.normal(size=(n, n)), rng.normal(size=(n, n, 3)), rng.normal(size=(n, n, 2, 4)) + 1j):
        want = np.sum(W.reshape(W.shape + (1,) * (f.ndim - 2)) * f, axis=(0, 1))
        assert np.asarray(dg.integrate(g, f)).tobytes() == np.asarray(want).tobytes()
    cached = dg._trapezoid_weights(g.n, g.h)
    assert cached is dg._trapezoid_weights(g.n, g.h) and not cached.flags.writeable
    assert cached.tobytes() == W.tobytes()


class TestComponentSum:
    """component_sum is np.sum over a short real trailing axis, bit for bit."""

    @pytest.mark.parametrize("n", [33, 129])
    def test_equals_numpy_sum_and_norm(self, n):
        rng = np.random.default_rng(n)
        for m in range(2, 8):
            for _ in range(3):
                X = rng.normal(size=(n, n, m)) * np.exp(rng.uniform(-5, 5, (n, n, m)))
                assert np.array_equal(dg.component_sum(X), np.sum(X, axis=-1))
                assert np.array_equal(np.sqrt(dg.component_sum(X * X)), np.linalg.norm(X, axis=-1))
                # a strided trailing axis (components stacked in front) sums the same way
                Y = np.moveaxis(np.moveaxis(X, -1, 0).copy(), 0, -1)
                assert np.array_equal(dg.component_sum(Y), np.sum(Y, axis=-1))

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_interior_sup_folds_components_as_linalg_norm(self, m):
        # on a 5 x 5 grid the interior window is the centre node, so each call checks one fold bit for
        # bit: a field, a stack of two rows per node, components outermost as blade rows hold them,
        # complex values, and signed zeros; |f| is squared in place, with the bits of |f| * |f|
        g = Grid(0.5, 5)
        rng = np.random.default_rng(m)
        for _ in range(50):
            X = rng.normal(size=(5, 5, 2, m)) * 10.0 ** rng.integers(-100, 100, (5, 5, 2, m))
            X[..., rng.integers(m)] = -0.0
            X[2, 2, rng.integers(2), rng.integers(m)] *= rng.integers(2)
            rows = np.moveaxis(np.moveaxis(X[:, :, 0], -1, 0).copy(), 0, -1)
            for f in (X[:, :, 0], X, rows, X[:, :, 0] + 1j * X[:, :, 1], np.full((5, 5, m), -0.0)):
                want = np.max(np.linalg.norm(np.abs(f[g.interior()]), axis=-1))
                assert np.float64(dg.interior_sup(g, f)).tobytes() == want.tobytes()
                v = np.abs(f[g.interior()])
                assert want.tobytes() == np.max(np.sqrt(dg.component_sum(v * v))).tobytes()

    def test_l2norm_keeps_its_bits(self):
        # the sum of np.abs(f) ** 2 in f's memory order, bit for bit, on real and complex fields, stacked
        # components, strided interior windows, signed zeros and non-finite samples
        g = Grid(0.5, 33)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(33, 33, 2, 4)) * 10.0 ** rng.integers(-100, 100, (33, 33, 2, 4))
        X[..., 3] = -0.0
        Z = X[:, :, 0] + 1j * X[:, :, 1]
        win = g.interior()
        nan, inf = X[:, :, 0].copy(), Z.copy()
        nan[4, 5, 1], inf[6, 7, 2] = np.nan, complex(-np.inf, 1.0)
        for f in (X[:, :, 0, 0], X, Z, X[win], Z[win], X[1::2, ::3, 1], np.moveaxis(X, -1, 0)[:, win[0], win[1]],
                  np.full((33, 33, 3), -0.0), nan, inf):
            want = np.sqrt(g.h**2 * np.sum(np.abs(f) ** 2))
            assert np.float64(dg.l2norm(g, f)).tobytes() == want.tobytes()

    def test_negative_zeros_sum_to_positive_zero(self):
        P = np.full((5, 5, 3), -0.0)
        assert dg.component_sum(P).tobytes() == np.sum(P, axis=-1).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(min_value=1, max_value=7), complex_=st.booleans(),
           layout=st.sampled_from(["C", "components outermost", "window", "transposed"]), data=st.data())
    def test_equals_numpy_sum_bit_for_bit(self, m, complex_, layout, data):
        # real and complex, any layout numpy's sum treats differently, signed zeros and wide magnitudes
        floats = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
        size = 3 * 3 * m * (2 if complex_ else 1)
        X = np.array(data.draw(st.lists(floats, min_size=size, max_size=size)))
        X = (X.view(complex) if complex_ else X).reshape(3, 3, m)
        X = {"C": X, "components outermost": np.moveaxis(np.moveaxis(X, -1, 0).copy(), 0, -1),
             "window": X[1:, :2], "transposed": X.transpose(1, 0, 2)}[layout]
        assert dg.component_sum(X).tobytes() == np.sum(X, axis=-1).tobytes()
