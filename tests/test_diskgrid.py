"""Grid calculus and elliptic solvers: stencil identities, manufactured
solutions, and convergence order."""

import numpy as np
import pytest

from willmore_lab import diskgrid as dg
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

    def test_non_finite_slice_raises(self):
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
    v, compat = dg.poisson_neumann(g, rhs, *fluxes)
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

    def test_negative_zeros_sum_to_positive_zero(self):
        P = np.full((5, 5, 3), -0.0)
        assert dg.component_sum(P).tobytes() == np.sum(P, axis=-1).tobytes()
