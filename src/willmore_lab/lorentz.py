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

    t: np.ndarray          # right endpoints of the cell-sized pieces, increasing
    fstar: np.ndarray      # non-increasing rearranged values
    fstarstar: np.ndarray  # running averages (1/t) int_0^t f*


def rearrange(grid: Grid, f: np.ndarray, exclude: np.ndarray | None = None) -> RearrangedProfile:
    """Sort |f| into its non-increasing rearrangement, cell area h^2.

    ``exclude`` is an optional boolean mask of nodes to drop (used for
    singular test functions whose singular cell is accounted for
    analytically); equimeasurability is exact by construction.
    """
    values = np.abs(np.asarray(f, dtype=float))
    if exclude is not None:
        values = values[~exclude]
    else:
        values = values.ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError("rearrangement requires finite samples")
    fstar = np.sort(values)[::-1]
    counts = np.arange(1, fstar.size + 1)
    t = grid.h**2 * counts
    fstarstar = np.cumsum(fstar) / counts
    return RearrangedProfile(t, fstar, fstarstar)


def _check_exponents(p: float, q: float) -> None:
    if not 1.0 < p < np.inf:
        raise ValueError(f"Lorentz exponent p={p} outside (1, inf)")
    if not 1.0 <= q:
        raise ValueError(f"Lorentz exponent q={q} outside [1, inf]")


def lorentz_norm(profile: RearrangedProfile, p: float, q: float) -> float:
    """Lorentz norm ||t^{1/p} f**||_{L^q(dt/t)} of a rearranged profile.

    p must lie in (1, inf); q in [1, inf] (numpy.inf for the weak norm).
    """
    _check_exponents(p, q)
    t, fss = profile.t, profile.fstarstar
    if np.isinf(q):
        return float(np.max(t ** (1.0 / p) * fss))
    # piecewise: f** frozen per piece, int t^{q/p - 1} dt exact
    a = q / p
    tq = t**a
    weights = np.empty_like(tq)
    weights[0] = tq[0]
    weights[1:] = tq[1:] - tq[:-1]
    return float((np.sum(fss**q * weights) / a) ** (1.0 / q))


def _grad_norms(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """grad f, its pointwise magnitude |grad f| and ||grad f||_L2."""
    G = dg.grad(grid, f)
    mag = np.hypot(G[0], G[1])
    return G, mag, float(dg.l2norm(grid, mag))


@dataclass(frozen=True)
class WenteResult:
    """Solution and compensation ratios for Lap u = grad a . grad_perp b."""

    u: np.ndarray
    ratio_L2: float      # ||grad u||_L2 / (||grad a||_L2 ||grad b||_{2,inf})
    ratio_L21: float     # ||grad u||_{2,1} / (||grad a||_L2 ||grad b||_L2)
    degenerate: bool     # a zero denominator was flagged; ratios reported as 0


def wente_solve(grid: Grid, a: np.ndarray, b: np.ndarray) -> WenteResult:
    """Solve the Jacobian-structure problem and report Wente ratios.

    u solves the zero-Dirichlet problem Lap u = grad a . grad_perp b on
    the grid square; the constants estimated here are the square's, not
    the disk's.
    """
    Ga, Ga_mag, na_l2 = _grad_norms(grid, a)
    Gb, Gb_mag, nb_l2 = _grad_norms(grid, b)
    nb_weak = lorentz_norm(rearrange(grid, Gb_mag), 2.0, np.inf)
    del Ga_mag, Gb_mag  # held through the solve, they would raise the sample's peak memory
    u = dg.poisson_dirichlet(grid, -Ga[0] * Gb[1] + Ga[1] * Gb[0])
    Gu, _, nu_l2 = _grad_norms(grid, u)
    nu_l21 = sum(lorentz_norm(rearrange(grid, Gu[j]), 2.0, 1.0) for j in range(2))
    den2 = na_l2 * nb_weak
    den21 = na_l2 * nb_l2
    if den2 < 1e-14 or den21 < 1e-14:
        return WenteResult(u, 0.0, 0.0, True)
    return WenteResult(u, nu_l2 / den2, nu_l21 / den21, False)


def random_band_limited(grid: Grid, seed: int, kmax: int = 4) -> np.ndarray:
    """Seeded smooth random field: low trigonometric modes, decaying spectrum.

    Each mode amp cos(k w x1 + ph1) cos(l w x2 + ph2), w = pi / (2 s), is
    separable and built as an outer product of two cosine vectors on
    ``grid.axis()``.  ``np.outer(amp * c1, c2)`` rounds exactly like the
    meshgrid product ``amp * C1 * C2`` (``amp * np.outer(c1, c2)`` does not),
    and modes and draws keep their order, so a seed gives the same field
    bit for bit.
    """
    rng = np.random.default_rng(seed)
    x = grid.axis()
    omega = np.pi / (2.0 * grid.s)
    f = np.zeros((x.size, x.size))
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            amp = rng.normal() / (1.0 + k * k + l * l)
            ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            f += np.outer(amp * np.cos(k * omega * x + ph1), np.cos(l * omega * x + ph2))
    return f
