"""Complex-frame identities, the holomorphic quadratic differential, and
the conformal Willmore equation.

In the complex frame e_z = (e1 - i e2)/2, e_{z*} = (e1 + i e2)/2 the
derivative of any potential L solving the conservation system has the
structure

    dz L = A e_{z*} - 2 i pi_n(dz H),
    A    = -2 i e^lambda (H0* . H) + i e^{-lambda} f,

with f a holomorphic function of z = x1 + i x2.  Two extraction routes
are provided:

* ``extract_A_f(bundle, L)`` reads A off a supplied potential with the
  pairing A = 2 <dz L, e_z> (e_a . e_b = delta_{a b*} / 2).
* ``extract_A_f(bundle)`` determines f directly from the integrability
  requirement that dz L integrate to a real-valued map: the pointwise
  minimal-norm solution of Im(dz* dz L) = 0.  This is the route that
  applies off the conservation shell (e.g. the CMC cylinder, where the
  system potential is a constant while grad_perp L = Q has no solution).

The conformal Willmore residual evaluates

    Lap_perp H + sum h^a_ij h^b_ij H^b n_a - 2 |H|^2 H - e^{-2 lambda} Re(f H0),

with Lap_perp H = e^{-2 lambda} pi_n div(pi_n grad H); on a CMC cylinder
of radius rho it vanishes for the constant f = 1/(2 rho^2) while the
f = 0 residual converges to 1/(4 rho^3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diskgrid as dg
from . import multivec as mv
from .conservation import _H0cH, _grad_gauss, _pin_grad_H, assemble_Q, dz_L0_closed_form, surface_scale
from .immersion import GeometryBundle, complex_frame, norm_H2

__all__ = [
    "ConformalData",
    "frame_derivative_residuals",
    "codazzi_residual",
    "extract_A_f",
    "conformal_willmore_residual",
    "eq13_residual",
    "gauss_map_energy",
]


def frame_derivative_residuals(bundle: GeometryBundle) -> tuple[float, float]:
    """Residuals of the complex frame derivative identities.

    res_a4: dz* e_z = -(dz* lambda) e_z + (e^lambda/2) H  and
            dz* e_{z*} = (dz* lambda) e_{z*} + (e^lambda/2) H0
    res_a5: dz* n_a = -e^lambda (H0^a e_z + H^a e_{z*}) + pi_n(dz* n_a)

    Both are unconditional; returns normalized interior sup-norms.
    """
    grid = bundle.grid
    scale = bundle.derived(surface_scale)
    ez, ezstar = bundle.derived(complex_frame)
    dzsl = dg.dzstar(grid, bundle.lam)
    half_elam = 0.5 * bundle.elam[..., None]
    r_ez = dg.dzstar(grid, ez) - (-dzsl[..., None] * ez + half_elam * bundle.H)
    r_ezs = dg.dzstar(grid, ezstar) - (dzsl[..., None] * ezstar + half_elam * bundle.H0)
    res_a4 = max(dg.interior_sup(grid, r_ez), dg.interior_sup(grid, r_ezs)) / scale
    res_a5 = 0.0
    for a in range(bundle.m - 2):
        na = bundle.normal_frame[a]
        H0a = np.sum(bundle.H0 * na, axis=-1)
        Ha = dg.component_sum(bundle.H * na)
        dzs_na = dg.dzstar(grid, na)
        pred = -bundle.elam[..., None] * (H0a[..., None] * ez + Ha[..., None] * ezstar)
        pred = pred + bundle.project_normal(dzs_na)
        res_a5 = max(res_a5, dg.interior_sup(grid, dzs_na - pred))
    return res_a4, res_a5 / scale


def codazzi_residual(bundle: GeometryBundle) -> float:
    """Codazzi-Mainardi residual in the complex frame (frame covariant).

    e^{-2 lambda} dz*(e^{2 lambda} H0* . H) = H . dz H + H0* . dz* H,
    with complex-bilinear ambient dot products.  Normalized interior sup.
    """
    grid = bundle.grid
    e2lam = bundle.area_density
    H0cH = bundle.derived(_H0cH)
    lhs = dg.dzstar(grid, e2lam * H0cH) / e2lam
    rhs = np.sum(bundle.H * dg.dz(grid, bundle.H), axis=-1)
    rhs = rhs + np.sum(np.conj(bundle.H0) * dg.dzstar(grid, bundle.H), axis=-1)
    return dg.interior_sup(grid, lhs - rhs) / bundle.derived(surface_scale)


@dataclass(frozen=True)
class ConformalData:
    """Frame coefficient A, quadratic-differential coordinate f, and the
    potential realizing them (integrated when f was extracted)."""

    A: np.ndarray                 # complex (n, n)
    f: np.ndarray                 # complex (n, n)
    holomorphy_defect: float      # ||dz* f||_L2 / ||f||_L2 on the interior window
    L: np.ndarray | None          # potential used / integrated (real, (n, n, m))
    L_defect: float               # || grad L - candidate ||_L2 (integration defect)


def _holomorphy_defect(grid, f: np.ndarray) -> float:
    win = grid.interior()
    num = dg.l2norm(grid, dg.dzstar(grid, f)[win])
    den = dg.l2norm(grid, f[win])
    if den < 1e-12:
        return 0.0
    return float(num / den)


def extract_A_f(bundle: GeometryBundle, L: np.ndarray | None = None) -> ConformalData:
    """Extract the frame coefficient A and the holomorphic coordinate f.

    With a supplied potential L: A := 2 <dz L, e_z> and
    f := -i e^lambda (A + 2 i e^lambda H0* . H).  Without one, f is the
    pointwise minimal-norm solution of the reality (integrability)
    constraint Im[dz*(dz L candidate)] = 0 and the candidate derivative
    Z0 + i e^{-lambda} f e_{z*} is integrated to a real potential by a
    mean-zero Neumann solve, whose defect is reported.
    """
    grid = bundle.grid
    H0cH = bundle.derived(_H0cH)
    if L is not None:
        dzL = dg.dz(grid, L)
        A = 2.0 * np.sum(dzL * bundle.derived(complex_frame)[0], axis=-1)
        f = -1j * bundle.elam * (A + 2j * bundle.elam * H0cH)
        return ConformalData(A, f, _holomorphy_defect(grid, f), L, 0.0)

    Z0 = bundle.derived(dz_L0_closed_form)
    G = dg.dzstar(grid, Z0)
    # Im[G + i f H0 / 2] = 0: columns of the pointwise design matrix are
    # the real and (negated) imaginary parts of H0
    M = np.stack([bundle.H0.real, -bundle.H0.imag], axis=-1)
    rhs = -2.0 * G.imag
    MtM = np.einsum("...ka,...kb->...ab", M, M)
    Mtr = np.einsum("...ka,...k->...a", M, rhs)
    # minimal-norm pointwise least squares; the rcond floor suppresses
    # rank inflation by discretization noise near umbilic points, and the
    # absolute gate returns f = 0 wherever H0 carries no usable signal
    # (umbilic patches leave f undetermined; zero is the minimal choice)
    sol = np.einsum("...ab,...b->...a", np.linalg.pinv(MtM, rcond=1e-8, hermitian=True), Mtr)
    tr = MtM[..., 0, 0] + MtM[..., 1, 1]
    usable = tr > 1e-12 * max(float(np.max(tr)), 1.0)
    sol = np.where(usable[..., None], sol, 0.0)
    f = sol[..., 0] + 1j * sol[..., 1]
    candidate = Z0 + 1j * (f / bundle.elam)[..., None] * bundle.derived(complex_frame)[1]
    gradL = np.stack([2.0 * candidate.real, -2.0 * candidate.imag])
    res = dg.grad_potential(grid, gradL)
    A = -2j * bundle.elam * H0cH + 1j * f / bundle.elam
    return ConformalData(A, f, _holomorphy_defect(grid, f), res.u, res.defect)


def _cw_lhs(bundle: GeometryBundle) -> np.ndarray:
    """The f-independent part Lap_perp H + sum_ab h^a_ij h^b_ij H^b n_a - 2 |H|^2 H."""
    grid = bundle.grid
    lap_perp = bundle.project_normal(dg.div(grid, bundle.derived(_pin_grad_H))) / bundle.area_density[..., None]
    Hcoef = np.stack(
        [dg.component_sum(bundle.H * bundle.normal_frame[a]) for a in range(bundle.m - 2)], axis=-1
    )
    hh = np.einsum("...aij,...bij->...ab", bundle.h, bundle.h)
    Aterm = np.einsum("...a,a...k->...k", np.einsum("...ab,...b->...a", hh, Hcoef), bundle.normal_frame)
    return lap_perp + Aterm - 2.0 * bundle.derived(norm_H2)[..., None] * bundle.H


def conformal_willmore_residual(bundle: GeometryBundle, f: np.ndarray | float) -> np.ndarray:
    """Residual field of the conformal Willmore equation for a candidate f.

    Lap_perp H + sum_ab h^a_ij h^b_ij H^b n_a - 2 |H|^2 H
        - e^{-2 lambda} Re(f H0),
    with Lap_perp H = e^{-2 lambda} pi_n div(pi_n grad H).  The
    f-independent part is computed once per bundle.
    """
    f_arr = np.asarray(f, dtype=complex)
    rhs = np.real(f_arr[..., None] * bundle.H0) / bundle.area_density[..., None]
    return bundle.derived(_cw_lhs) - rhs


def eq13_residual(bundle: GeometryBundle, f: np.ndarray | float, L: np.ndarray) -> float:
    """Interior-L2 residual of Lap(L - L0) = 2 i H0 f, normalized.

    Lap L0 is evaluated through the complex transcription of the
    defining combination, 4 dz*( (Q_2 + i Q_1)/2 ) = curl Q + i div Q,
    which remains meaningful when div Q != 0 and no real L0 exists.
    """
    grid = bundle.grid
    win = grid.interior()
    Q = bundle.derived(assemble_Q)
    lapL = dg.laplace(grid, L)
    lapL0 = dg.curl(grid, Q) + 1j * dg.div(grid, Q)
    f_arr = np.asarray(f, dtype=complex)
    resid = lapL - lapL0 - 2j * f_arr[..., None] * bundle.H0
    return dg.l2norm(grid, resid[win]) / bundle.derived(surface_scale)


def gauss_map_energy(bundle: GeometryBundle) -> float:
    """Dirichlet energy integral |grad n|^2 of the Gauss map over the patch."""
    gn = bundle.derived(_grad_gauss)
    density = mv.blade_sum(gn._replace(rows=gn.rows[:, 0] ** 2 + gn.rows[:, 1] ** 2))
    return float(dg.integrate(bundle.grid, density))
