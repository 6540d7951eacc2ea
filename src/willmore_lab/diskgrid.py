"""Uniform Cartesian grid on a square inside the unit disk, with
second-order finite-difference calculus and fast Poisson solvers.

Index convention: a field ``f[i, j]`` samples ``f(x1_i, x2_j)``, so axis
0 runs along x1 and axis 1 along x2.  Vector fields carry a leading
length-2 axis, ``G[0] = x1-component``.  Extra trailing axes (ambient
components, blade coefficients) ride along untouched, in the solvers
too: every trailing index of a stacked field, real or complex, is an
independent Poisson problem solved in the same transform call.

Derivatives are centered in the interior and one-sided second order on
the edge rings; ``laplace`` is the composition ``div(grad(f))`` so that
``div o grad = laplace`` holds exactly at the stencil level.  The
Dirichlet Poisson solver takes zero boundary data, the only Dirichlet
problem the package poses, and uses the classical 5-point operator,
diagonalized by a type-I discrete sine transform; Neumann problems use
ghost-point elimination diagonalized by a type-I cosine transform, with
mean-zero normalization and the compatibility defect reported, and only
``neumann_potential`` forms a gradient target's Neumann data.  Both
transforms are pocketfft's type-I recipe on numpy.fft (``_pass``), fused
with the mode divisions, and keep scipy.fft's bits; both divide by one
eigenvalue table.  ``exponent`` is the package's one power-of-two rule.

``component_sum`` sums the short trailing axis of ambient components
(m <= 6) in numpy's order, one full-field add per component.  numpy's
``np.sum`` over that axis runs an inner loop only m long and is 3-8x
slower on these grids; both give the same bits for real and complex P
with at most 7 components, so the geometry modules use it for every
ambient dot product and norm.  Blade-axis sums (2**m slots) are
``multivec.blade_sum``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SolverError",
    "d1",
    "d2",
    "grad",
    "grad_perp",
    "div",
    "curl",
    "laplace",
    "dz",
    "dzstar",
    "integrate",
    "l2norm",
    "component_sum",
    "exponent",
    "interior_sup",
    "poisson_dirichlet",
    "poisson_neumann",
    "neumann_potential",
    "grad_potential",
    "curl_potential",
    "hodge_decompose",
    "PotentialResult",
    "HodgeParts",
    "write_field",
    "read_field",
]


class SolverError(ValueError):
    """Elliptic solve failed to meet its residual contract; a ValueError: unusable input."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class Grid:
    """Square [-s, s]^2 inside the unit disk, n nodes per side.

    n must be odd (so the origin is a node); sizes below 33 are accepted
    for unit tests but production identity checks assume n >= 33.
    """

    s: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.s <= 1.0 / np.sqrt(2.0) + 1e-12:
            raise ValueError(f"half-width s={self.s} must lie in (0, 1/sqrt(2)]")
        if self.n < 5 or self.n % 2 == 0:
            raise ValueError(f"points per side n={self.n} must be odd and >= 5")

    @property
    def h(self) -> float:
        return 2.0 * self.s / (self.n - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(-self.s, self.s, self.n)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X1, X2) with indexing matching the field layout."""
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def interior_margin(self) -> int:
        """Cell offset of the identity-check window (>= 2)."""
        return max(2, int(round(0.04 * (self.n - 1))))

    def interior(self) -> tuple[slice, slice]:
        m = self.interior_margin()
        return (slice(m, self.n - m), slice(m, self.n - m))


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def _diff(f: np.ndarray, h: float, out: np.ndarray, axis: int = 0) -> np.ndarray:
    """Writes d f / dx_{axis+1} into out: centered interior, one-sided second order on the edges."""
    f, v = np.swapaxes(f, 0, axis), np.swapaxes(out, 0, axis)
    np.subtract(f[2:], f[:-2], out=v[1:-1])
    v[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
    v[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
    v /= 2.0 * h
    return out


def _grad(f: np.ndarray, h: float, perp: bool) -> np.ndarray:
    """(d1 f, d2 f), or (-d2 f, d1 f) with perp, written into one array laid out as np.stack lays out two
    derivatives of f: components outermost, each in f's memory order (reductions run in memory order)."""
    a = np.empty_like(f, dtype=np.result_type(f, float))
    out = np.lib.stride_tricks.as_strided(np.empty(2 * a.size, a.dtype), (2,) + a.shape, (a.nbytes,) + a.strides)
    for axis in (0, 1):
        _diff(f, h, out[axis ^ perp], axis)
    if perp:
        np.negative(out[0], out=out[0])
    return out


def d1(grid: Grid, f: np.ndarray) -> np.ndarray:
    """d/dx1, centered interior, one-sided second order on the edges."""
    return _diff(f, grid.h, np.empty_like(f, dtype=np.result_type(f, float)))


def d2(grid: Grid, f: np.ndarray) -> np.ndarray:
    """d/dx2, centered interior, one-sided second order on the edges."""
    return _diff(f, grid.h, np.empty_like(f, dtype=np.result_type(f, float)), 1)


def grad(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Gradient (d1 f, d2 f), stacked on a new leading axis."""
    return _grad(f, grid.h, False)


def grad_perp(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Rotated gradient (-d2 f, d1 f)."""
    return _grad(f, grid.h, True)


def div(grid: Grid, G: np.ndarray) -> np.ndarray:
    """Divergence d1 G[0] + d2 G[1] of a vector field."""
    return d1(grid, G[0]) + d2(grid, G[1])


def curl(grid: Grid, G: np.ndarray) -> np.ndarray:
    """Scalar curl d1 G[1] - d2 G[0]."""
    return d1(grid, G[1]) - d2(grid, G[0])


def laplace(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Laplacian as the exact composition div(grad(f))."""
    return div(grid, grad(grid, f))


def dz(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Wirtinger derivative (d1 - i d2)/2."""
    return 0.5 * (d1(grid, f) - 1j * d2(grid, f))


def dzstar(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Conjugate Wirtinger derivative (d1 + i d2)/2."""
    return 0.5 * (d1(grid, f) + 1j * d2(grid, f))


def integrate(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    """Trapezoidal quadrature of f over the grid square; trailing axes are kept.

    A weighted ``np.sum``, not a BLAS product: OpenBLAS splits long dot
    products over its threads, so their bits depend on its thread count.
    """
    W = _trapezoid_weights(grid.n, grid.h)
    return np.sum(W.reshape(W.shape + (1,) * (f.ndim - 2)) * f, axis=(0, 1))


@lru_cache(maxsize=8)
def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    """The (n, n) trapezoid weights times h^2, read-only: cached and shared like ``_eigs``."""
    w = _dct_weights(n)
    W = np.outer(w, w) * h**2
    W.flags.writeable = False
    return W


def l2norm(grid: Grid, f: np.ndarray) -> float:
    """Discrete L2 norm sqrt(h^2 * sum |f|^2); trailing axes (components) fold in."""
    return float(np.sqrt(grid.h**2 * np.sum(np.abs(f) ** 2)))


def component_sum(P: np.ndarray) -> np.ndarray:
    """Sum over the trailing axis, ``np.sum(P, axis=-1)`` bit for bit for real
    and complex P with at most 7 components.

    numpy adds P[..., k] to zero in index order, except for complex P with at
    least 4 components along a contiguous trailing axis, whose pairwise loop
    adds ((P0 + P1) + (P2 + P3)), then P4 onward, then zero.  The zero makes a
    sum of negative zeros +0.  ``np.sqrt(component_sum(X * X))`` is
    ``np.linalg.norm(X, axis=-1)``.
    """
    m = P.shape[-1]
    if m < 4 or np.isrealobj(P) or P.strides[-1] != P.itemsize:
        out = P[..., 0] + 0.0
        for k in range(1, m):
            out += P[..., k]
        return out
    out = P[..., 0] + P[..., 1]
    out += P[..., 2] + P[..., 3]
    for k in range(4, m):
        out += P[..., k]
    out += 0.0
    return out


def exponent(x) -> int:
    """e bringing max |x| 2^-e into [1/2, 1), an exact scaling (e = 0 if that max is 0 or not finite)."""
    sup = np.max(np.abs(x))
    return int(np.frexp(sup)[1]) if np.isfinite(sup) else 0


def interior_sup(grid: Grid, f: np.ndarray) -> float:
    """Sup of |f| on the default interior window; components fold in by the Euclidean norm."""
    v = np.abs(f[grid.interior()])
    if v.ndim > 2:
        v = np.sqrt(component_sum(np.square(v, out=v)))
    return float(np.max(v))


# ---------------------------------------------------------------------------
# Poisson solvers
# ---------------------------------------------------------------------------

def _pass(v: np.ndarray, sine: bool, factor: float = 1.0) -> np.ndarray:
    """pocketfft's type-I pass over the lines y = factor * v[t, :, j] of v (b, n, p), as (b, p, n):
    numpy.fft.rfft of [0, y, 0, -y[::-1]], whose imaginary parts 1..n are minus the DST-I (callers
    fold that sign into the next factor), or of [y, y[n-2:0:-1]], whose real parts are the DCT-I."""
    b, n, p = v.shape
    e = np.empty((b, p, 2 * n + 2 if sine else 2 * n - 2))
    body, y = (e[..., 1:n + 1] if sine else e[..., :n]), v.transpose(0, 2, 1)
    if factor == 1.0:
        body[...] = y  # strided copies run ~2x faster than strided ufuncs
    else:
        np.multiply(y, factor, out=body)
    if not sine:
        e[..., n:] = e[..., n - 2:0:-1]
        return np.fft.rfft(e).real[..., :n]
    e[..., ::n + 1] = 0.0
    if factor == -1.0:
        e[..., n + 2:] = y[..., ::-1]
    else:
        np.negative(e[..., n:0:-1], out=e[..., n + 2:])
    return np.fft.rfft(e).imag[..., 1:n + 1]


def _slabs(*arrays: np.ndarray):
    """Matching (b, n0, n1) views (never copies) of arrays (n0, n1, ...) with common trailing axes:
    real, then imaginary parts, b trailing slices at a time so the transform buffers stay in cache."""
    nd = max(arrays[0].ndim, 3)
    views = [(a if a.ndim > 2 else a[..., None]).transpose(*range(2, nd), 0, 1) for a in arrays]
    *outer, k, n0, n1 = views[0].shape
    step = max(1, (1 << 15) // (n0 * n1))
    for part in ("real", "imag")[:1 + np.iscomplexobj(arrays[0])]:
        for idx in np.ndindex(*outer):
            for t in range(0, k, step):
                yield [getattr(v, part)[idx][t:t + step] for v in views]


@lru_cache(maxsize=8)
def _eigs(n: int, h: float) -> np.ndarray:
    """5-point Laplacian eigenvalues of cosine mode (k1, k2), zero mode 1.0; [1:-1, 1:-1]: the sine modes."""
    lam = (2.0 * np.cos(np.pi * np.arange(n) / (n - 1)) - 2.0) / h**2
    lam2 = lam[:, None] + lam[None, :]
    lam2[0, 0] = 1.0
    return lam2


def _five_point_residual(grid: Grid, u: np.ndarray, rhs: np.ndarray) -> float:
    """Worst relative interior residual over the trailing slices, each normalized by its own data."""
    n, h2 = grid.n, grid.h**2
    # h^2 times the residual, on rows 1..n-2 of the flat C-order u: shifted slices of it are
    # contiguous, 3x faster than the interior window; the window then drops the wrapped edge columns
    f, k = u.reshape(-1), u.size // (n * n)
    lo, hi, row = n * k, (n - 1) * n * k, n * k
    lap = f[lo + row:hi + row] + f[lo - row:hi - row]
    lap += f[lo + k:hi + k]
    lap += f[lo - k:hi - k]
    lap -= 4.0 * f[lo:hi]
    lap -= h2 * np.ravel(rhs)[lo:hi]
    lap = lap.reshape((n - 2, n) + u.shape[2:])[:, 1:-1]
    # one leading axis at a time: a max over axis=(0, 1) loops over the short trailing axis, ~20x slower
    num, rhs_sup, u_sup = (np.abs(a).max(axis=0).max(axis=0) for a in (lap, rhs, u))
    return float(np.max(num / np.maximum(np.maximum(h2 * rhs_sup, u_sup), 1e-30 * h2)))


def poisson_dirichlet(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve the 5-point Laplace(u) = rhs with zero Dirichlet data.

    rhs is (n, n, ...), real or complex; every trailing index is an
    independent problem, and the boundary ring of u is +0.0.  Direct
    DST-I solve over axes (0, 1).  The relative interior residual of
    every trailing slice, normalized by that slice's data, is checked
    against 1e-10; a SolverError carrying the worst one is raised if any
    slice violates it or is not finite.
    """
    n, h = grid.n, grid.h
    rhs = np.asarray(rhs)
    u = np.zeros(rhs.shape, dtype=np.result_type(rhs, float))
    fct = float(np.longdouble(1) / (4 * (n - 1) ** 2))  # idstn's factor, rounded as pocketfft rounds it
    with np.errstate(all="ignore"):  # non-finite data is the residual check's to report
        for src, dst in _slabs(rhs[1:-1, 1:-1].astype(u.dtype, copy=False), u[1:-1, 1:-1]):
            modes = _pass(_pass(src, True), True, -1.0) / _eigs(n, h)[1:-1, 1:-1]  # -dstn(src) / eigenvalue
            np.negative(_pass(_pass(modes, True, -1.0), True, -fct), out=dst)  # idstn
    res = _five_point_residual(grid, u, rhs)
    if not res <= 1e-10:
        raise SolverError("Dirichlet Poisson solve failed", res)
    return u


def _dct_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def poisson_neumann(
    grid: Grid,
    rhs: np.ndarray,
    flux_w: np.ndarray | float = 0.0,
    flux_e: np.ndarray | float = 0.0,
    flux_s: np.ndarray | float = 0.0,
    flux_n: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Solve Laplace(u) = rhs with outward normal derivative data.

    rhs is (n, n, ...), real or complex; every trailing index is an
    independent problem.  flux_w/e are d_nu u along the x1 = -s / +s
    edges, flux_s/n along x2 = -s / +s: scalars or (n, ...) arrays with
    the trailing axes of rhs.  Ghost-point elimination makes the
    discrete operator DCT-I diagonal over axes (0, 1).  Returns
    (u, compat_defect): each slice of the solution is normalized to zero
    trapezoid-weighted mean, and the modulus of the incompatible constant
    part of its data is projected out and reported, one per trailing
    slice (an array of the trailing shape; a float for a 2-D field).
    """
    n, h = grid.n, grid.h
    u = np.array(rhs, dtype=np.result_type(rhs, float))  # the data, overwritten slab by slab with u
    u[0, :] -= 2.0 * np.asarray(flux_w) / h
    u[-1, :] -= 2.0 * np.asarray(flux_e) / h
    u[:, 0] -= 2.0 * np.asarray(flux_s) / h
    u[:, -1] -= 2.0 * np.asarray(flux_n) / h
    w = _dct_weights(n)
    c = (n - 1.0) / (2.0 * w)  # <w_k, v_k> per mode
    norm, eigs, weights = 4.0 * np.outer(c, c), _eigs(n, h), 4.0 * np.outer(w, w)
    beta00 = np.empty((1, 1) + u.shape[2:], u.dtype)
    with np.errstate(all="ignore"):  # non-finite data gives a non-finite u and no numpy warning
        for slab, zero in _slabs(u, beta00):  # each slab is read into the pass buffers before it is written
            beta = _pass(_pass(slab, False), False) / norm  # dctn(slab), mode by mode
            zero[...] = beta[:, :1, :1]
            beta /= eigs
            beta[:, 0, 0] = 0.0
            beta /= weights
            slab[...] = _pass(_pass(beta, False), False)
    compat = np.abs(beta00[0, 0])
    return u, (compat if compat.ndim else float(compat))


def neumann_potential(grid: Grid, G: np.ndarray, perp: bool = False) -> tuple[np.ndarray, float | np.ndarray]:
    """poisson_neumann's (u, compat_defect) for u with grad u ~ G (2, n, n, ...), Laplace(u) = div G and
    d_nu u = G . nu, or with perp for grad_perp u ~ G, Laplace(u) = curl G and d_nu u = G . tau."""
    if perp:
        return poisson_neumann(grid, curl(grid, G), -G[1][0, :], G[1][-1, :], G[0][:, 0], -G[0][:, -1])
    return poisson_neumann(grid, div(grid, G), -G[0][0, :], G[0][-1, :], -G[1][:, 0], G[1][:, -1])


@dataclass(frozen=True)
class PotentialResult:
    """Potential recovered from a target gradient-type field (2, n, n, ...).

    Each trailing slice of the target is an independent problem; u has
    the target's trailing axes.
    """

    u: np.ndarray
    defect: float            # || reconstructed gradient - target ||_L2, components folded in
    compat_defect: float     # largest incompatible constant part of a slice's Neumann data


def _potential(grid: Grid, G: np.ndarray, perp: bool) -> PotentialResult:
    """neumann_potential's u for the target G; the defect compares grad u (grad_perp u with
    perp) with G, the compat defect is the worst slice's."""
    u, compat = neumann_potential(grid, G, perp)
    defect = grad_perp(grid, u) if perp else grad(grid, u)
    defect -= G  # in place: no third array of the target's size
    return PotentialResult(u, l2norm(grid, defect), float(np.max(compat)))


def grad_potential(grid: Grid, G: np.ndarray) -> PotentialResult:
    """Best-gradient potential: u with grad(u) ~ G.

    Solves Laplace(u) = div G with d_nu u = G . nu, mean zero, for every
    trailing slice of G (2, n, n, ...).  The defect ||grad u - G||_L2
    measures how far G is from an exact gradient; the compat defect of
    the Neumann data is reported, never enforced.
    """
    return _potential(grid, G, False)


def curl_potential(grid: Grid, G: np.ndarray) -> PotentialResult:
    """Rotated-gradient potential: u with grad_perp(u) ~ G.

    Solves Laplace(u) = curl G with d_nu u = G . tau (tau the positively
    oriented boundary tangent), mean zero, for every trailing slice of G
    (2, n, n, ...).  For div-free G on the square this recovers the
    stream-type potential of the flux-free lemma; the defect
    ||grad_perp u - G||_L2 is reported, never enforced.
    """
    return _potential(grid, G, True)


@dataclass(frozen=True)
class HodgeParts:
    """g = grad(alpha) + grad_perp(beta) + harmonic, exact by construction."""

    alpha: np.ndarray
    beta: np.ndarray
    harmonic: np.ndarray


def hodge_decompose(grid: Grid, g: np.ndarray) -> HodgeParts:
    """Hodge-type splitting of a vector field on the square.

    alpha and beta solve Laplace = div g / curl g with zero Dirichlet
    data; the remainder h := g - grad(alpha) - grad_perp(beta) has
    O(h^2)-small divergence and curl in the interior.
    """
    potentials = poisson_dirichlet(grid, np.stack([div(grid, g), curl(grid, g)], axis=-1))
    alpha, beta = np.moveaxis(potentials, -1, 0)
    harmonic = g - grad(grid, alpha) - grad_perp(grid, beta)
    return HodgeParts(alpha, beta, harmonic)


# ---------------------------------------------------------------------------
# Field import/export
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<qdq")  # n, s, value arity


def _flatten_values(data: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(data):
        data = np.ascontiguousarray(data).view(np.float64).reshape(data.shape + (2,))
    flat = np.asarray(data, dtype=np.float64)
    return flat.reshape(flat.shape[0], flat.shape[1], -1)


def write_field(path, grid: Grid, data: np.ndarray) -> None:
    """Write a field as little-endian binary: header (n, s, arity) + row-major doubles."""
    values = _flatten_values(data)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.n, grid.s, values.shape[-1]))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_field(path) -> tuple[Grid, np.ndarray]:
    """Read a binary field; returns (grid, values) with values (n, n, arity).

    A header or payload that does not match, a header that is no valid grid,
    or a sample that is not finite raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        header, payload = fh.read(_HEADER.size), fh.read()
    n, s, arity = _HEADER.unpack(header) if len(header) == _HEADER.size else (0, 0.0, 0)
    if n < 1 or arity < 1 or len(payload) != 8 * n * n * arity:
        raise ValueError(f"field file {path}: truncated, or header and {len(payload)}-byte payload disagree")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, n, arity).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"field file {path}: holds a sample that is not finite")
    try:
        return Grid(s, n), values
    except ValueError as exc:
        raise ValueError(f"field file {path}: {exc}") from None
