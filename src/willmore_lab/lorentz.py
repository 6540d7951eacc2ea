"""Lorentz norms via non-increasing rearrangement, and the empirical
Wente-constant harness.

The discrete measure is the uniform cell area h^2: rearrangement is an
exact (equimeasurable) sort of |f| weighted by cell area, the running
average f**(t) = (1/t) int_0^t f* is evaluated at the right endpoint of
every cell-sized piece, and

    ||f||_{p,q} = || t^{1/p} f** ||_{L^q(dt/t)}

is integrated piecewise with the t-integral done in closed form, so the
norm of a constant is exact.  Vector fields enter the Wente ratios as
follows: weak-type norms use the pointwise magnitude |grad b|, while the
L^{2,1} norm of grad u is the sum of the componentwise norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diskgrid as dg
from .diskgrid import Grid

__all__ = [
    "RearrangedProfile",
    "rearrange",
    "lorentz_norm",
    "WenteResult",
    "wente_solve",
    "random_band_limited",
]


@dataclass(frozen=True)
class RearrangedProfile:
    """Non-increasing rearrangement of |f| on (0, |domain|)."""

    t: np.ndarray          # right endpoints h^2 k (k = 1, 2, ...) of the cell-sized pieces, read-only
    fstar: np.ndarray      # non-increasing rearranged values
    fstarstar: np.ndarray  # running averages (1/t) int_0^t f*


@lru_cache(maxsize=4)
def _pieces(h2: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Piece counts k = 1..size and right endpoints t = h^2 k, read-only: shared by every profile of one size."""
    counts = np.arange(1.0, size + 1.0)
    t = h2 * counts
    counts.flags.writeable = t.flags.writeable = False
    return counts, t


def rearrange(grid: Grid, f: np.ndarray) -> RearrangedProfile:
    """Sort |f| into its non-increasing rearrangement, cell area h^2.

    Each sample of f, of any shape, is one cell: drop nodes by indexing them
    out, ``f[~mask]`` (a singular cell accounted for analytically, say);
    equimeasurability is exact by construction.
    """
    values = np.abs(np.asarray(f, dtype=float)).ravel()
    values.sort()  # np.abs made a fresh array; NaN and inf sort last
    if values.size and not np.isfinite(values[-1]):
        raise ValueError("rearrangement requires finite samples")
    fstar = values[::-1]
    counts, t = _pieces(grid.h**2, fstar.size)
    fstarstar = np.cumsum(fstar)
    fstarstar /= counts
    return RearrangedProfile(t, fstar, fstarstar)


def _check_exponents(p: float, q: float) -> None:
    if not 1.0 < p < np.inf:
        raise ValueError(f"Lorentz exponent p={p} outside (1, inf)")
    if not 1.0 <= q:
        raise ValueError(f"Lorentz exponent q={q} outside [1, inf]")


@lru_cache(maxsize=8)
def _piece_weights(h2: float, size: int, p: float, q: float) -> np.ndarray:
    """t^{1/p} per piece for q = inf, else the exact integrals t_k^{q/p} - t_{k-1}^{q/p}; read-only."""
    t = _pieces(h2, size)[1]
    weights = t ** (1.0 / p) if np.isinf(q) else np.diff(t ** (q / p), prepend=0.0)
    weights.flags.writeable = False
    return weights


def lorentz_norm(profile: RearrangedProfile, p: float, q: float) -> float:
    """Lorentz norm ||t^{1/p} f**||_{L^q(dt/t)} of a rearranged profile.

    p must lie in (1, inf); q in [1, inf] (numpy.inf for the weak norm).
    The norm of an empty profile (every sample dropped) is 0.0.
    """
    _check_exponents(p, q)
    if not profile.t.size:
        return 0.0
    fss = profile.fstarstar
    # piecewise: f** frozen per piece, int t^{q/p - 1} dt exact; t[0] is h^2
    weights = _piece_weights(float(profile.t[0]), profile.t.size, p, q)
    if np.isinf(q):
        return float(np.max(weights * fss))
    return float((np.sum(fss**q * weights) / (q / p)) ** (1.0 / q))


def _grad_norms(grid: Grid, f: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, float, int]:
    """grad f 2^-e as the pair (d1, d2), sq = d1^2 + d2^2, the L2 norm sqrt(h^2 sum sq), and e.

    e brings max(|d1|, |d2|) 2^-e into [1/2, 1) (e = 0 if it is 0 or not finite), read off the
    four extrema of the components.  Scaling by a power of 2 is exact, so quotients of these norms
    keep their bits, while sq <= 2 and the products taken from the scaled components stay far from
    overflow and underflow at any scale of f or of the grid.  A caller that needs |grad f| takes
    sqrt(sq): np.hypot costs several times the sum of squares.
    """
    G = dg.d1(grid, f), dg.d2(grid, f)
    e = dg.exponent(np.array([G[0].max(), G[0].min(), G[1].max(), G[1].min()]))
    for X in G:
        np.ldexp(X, -e, out=X)
    sq = np.square(G[0])
    sq += np.square(G[1])
    return G, sq, float(np.sqrt(grid.h**2 * np.sum(sq))), e


@dataclass(frozen=True)
class WenteResult:
    """Solution and compensation ratios for Lap u = grad a . grad_perp b."""

    u: np.ndarray
    ratio_L2: float      # ||grad u||_L2 / (||grad a||_L2 ||grad b||_{2,inf})
    ratio_L21: float     # ||grad u||_{2,1} / (||grad a||_L2 ||grad b||_L2)
    degenerate: bool     # a denominator is zero (a or b has no gradient) or not finite; ratios reported as 0


def wente_solve(grid: Grid, a: np.ndarray, b: np.ndarray) -> WenteResult:
    """Solve the Jacobian-structure problem and report Wente ratios.

    u solves the zero-Dirichlet problem Lap u = grad a . grad_perp b on
    the grid square; the constants estimated here are the square's, not
    the disk's.  The solve runs on the gradients scaled by powers of 2, an
    exact scaling undone on u and the ratios, so no scale of a, b or the
    grid flips the verdict: ``degenerate`` flags only a zero denominator (a
    or b without gradient) or a non-finite one.  |grad b|, the one magnitude
    rearranged, is sqrt(d1^2 + d2^2); no other magnitude is formed.
    """
    # each field is dropped once used up, a and b too (freed if the caller kept no reference):
    # the CLI pool runs two samples at once, so what one holds outside its solve adds to the
    # other's peak memory
    Gb, sq, nb_l2, eb = _grad_norms(grid, b)
    del b
    nb_weak = lorentz_norm(rearrange(grid, np.sqrt(sq, out=sq)), 2.0, np.inf)  # of |grad b| 2^-eb
    del sq
    Ga, sq, na_l2, ea = _grad_norms(grid, a)
    del a, sq
    rhs = -Ga[0] * Gb[1] + Ga[1] * Gb[0]
    del Ga, Gb
    u = dg.poisson_dirichlet(grid, rhs)  # the solution for a 2^-ea and b 2^-eb
    del rhs
    Gu, sq, nu_l2, eu = _grad_norms(grid, u)
    del sq
    nu_l21 = sum(lorentz_norm(rearrange(grid, Gu[j]), 2.0, 1.0) for j in range(2))
    np.ldexp(u, ea + eb, out=u)
    den2 = na_l2 * nb_weak
    den21 = na_l2 * nb_l2
    if not (0.0 < den2 < np.inf and 0.0 < den21 < np.inf):
        return WenteResult(u, 0.0, 0.0, True)
    return WenteResult(u, float(np.ldexp(nu_l2 / den2, eu)), float(np.ldexp(nu_l21 / den21, eu)), False)


def random_band_limited(grid: Grid, seed: int, kmax: int = 4) -> np.ndarray:
    """Seeded smooth random field: low trigonometric modes, decaying spectrum.

    The field is the sum over k, l = 0..kmax of amp cos(k w x1 + ph1)
    cos(l w x2 + ph2), w = pi / (2 s), with amp = N(0, 1) / (1 + k^2 + l^2)
    and both phases uniform on [0, 2 pi), drawn mode by mode, k-major.
    cos(k w x1 + ph1) = cos(k w x1) cos ph1 - sin(k w x1) sin ph1 folds the
    (kmax + 1)^2 modes into 2 kmax + 1 separable terms; each right factor
    sums amp cos ph1 or -amp sin ph1 times cos(l w x2 + ph2) over l, in
    order from zero.  All the cos(l w x2 + ph2) factors come from one call,
    and the sums from ``np.add.reduce`` over l, which adds the rows one at a
    time as the mode-by-mode loop does.  The terms are summed by
    ``np.einsum``, not a BLAS product, so a seed gives the same field bit for
    bit whatever the thread count.  The fold rounds differently from the
    mode-by-mode sum: they agree within 1e-14 sup|f|.
    """
    rng = np.random.default_rng(seed)
    x = grid.axis()
    omega = np.pi / (2.0 * grid.s)
    modes = np.arange(kmax + 1)
    kx = modes[:, None] * omega * x
    left = np.concatenate([np.cos(kx), np.sin(kx[1:])])  # cos(k w x1), k = 0..kmax, then sin, k = 1..kmax
    draws = [(rng.normal(), *rng.uniform(0.0, 2.0 * np.pi, size=2)) for _ in range((kmax + 1) ** 2)]
    z, ph1, ph2 = np.transpose(draws).reshape(3, kmax + 1, kmax + 1)  # (k, l) planes
    amp = z / (1.0 + modes[:, None] ** 2 + modes**2)
    coef = np.concatenate([amp * np.cos(ph1), -(amp * np.sin(ph1))[1:]])  # rows of right, each over l
    c2 = np.cos(modes[:, None] * omega * x + ph2[..., None])  # cos(l w x2 + ph2) as (k, l, x2)
    right = np.add.reduce(coef[..., None] * c2[np.r_[modes, modes[1:]]], axis=1, initial=0.0)
    return np.einsum("ki,kj->ij", left, right)
