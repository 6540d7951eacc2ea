"""Divergence-form Willmore operator and its conservation identities.

The central object is the ambient-vector-valued field

    Q := grad H - 3 pi_n(grad H) + star(grad_perp n ^ H),

whose divergence vanishes exactly at Willmore immersions.  Numerically
validated facts wired into this module (each is also a test):

* div Q = -2 e^{2 lambda} (Lap_perp H + A~(H) - 2 |H|^2 H), so the
  Euler-Lagrange-normalized residual -(1/2) e^{-2 lambda} div Q equals
  the classical Willmore operator; on the unit cylinder its normal
  component is 1/(4 rho^3).
* grad Phi . Q = 0 and grad Phi ^ Q = -2 grad Phi ^ grad H pointwise,
  for every conformal immersion (tangency identities).
* (1/2)(Q_2 + i Q_1) = -2 i e^lambda (H0* . H) e_{z*} - 2 i pi_n(dz H),
  the closed complex form of the potential derivative (used by the
  conformal-Willmore extraction).
* With S, R built from grad S = grad Phi . L and
  grad R = grad Phi ^ L + 2 grad_perp Phi ^ H, the system

      Lap S = (grad star n) . grad_perp R
      Lap R = (-1)^m star(grad n . grad_perp R) - (grad star n) grad_perp S

  holds (the ambient-dimension reading of the exponent), and so does

      Lap Phi = 1/2 (grad R . grad_perp Phi - grad S grad_perp Phi),

  where . is the first-order contraction of multivec.bullet.

Potentials are fixed mean-zero; every off-shell input degrades to a
reported defect rather than an error.  Q, grad H, pi_n(grad H), grad n,
L, the surface scale and the closed form of dz L0 are computed once per
bundle and shared through ``GeometryBundle.derived``.  Multivector
fields (n, R and their derivatives and products) are
``multivec.BladeRows`` end to end, and residual norms sum over the blade
axis in numpy's order (``blade_sum``); wedges of vector fields start from
the component rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import diskgrid as dg
from . import multivec as mv
from .immersion import GeometryBundle, complex_frame, norm_B2, norm_H2

__all__ = [
    "surface_scale",
    "assemble_Q",
    "willmore_residual",
    "tangency_identities",
    "recover_L",
    "assemble_L0",
    "dz_L0_closed_form",
    "build_S_R",
    "sr_system_residual",
    "phi_identity_residual",
    "LRecovery",
    "SRData",
]


def surface_scale(bundle: GeometryBundle) -> float:
    """Normalization constant for residuals: sup e^{2 lambda}(1 + |H|^2 + |B|^2)."""
    win = bundle.grid.interior()
    normH2, normB2 = bundle.derived(norm_H2), bundle.derived(norm_B2)
    return float(max(1.0, np.max((bundle.area_density * (1.0 + normH2 + normB2))[win])))


def _grad_H(bundle: GeometryBundle) -> np.ndarray:
    return dg.grad(bundle.grid, bundle.H)


def _dz_H(bundle: GeometryBundle) -> tuple[np.ndarray, np.ndarray]:
    """(dz H, dz* H) from the memoized grad H, formed as ``dg.dz`` and ``dg.dzstar`` form them."""
    gradH = bundle.derived(_grad_H)
    return 0.5 * (gradH[0] - 1j * gradH[1]), 0.5 * (gradH[0] + 1j * gradH[1])


def _pin_grad_H(bundle: GeometryBundle) -> np.ndarray:
    """pi_n(grad H), shape (2, n, n, m)."""
    gradH = bundle.derived(_grad_H)
    return np.stack([bundle.project_normal(gradH[0]), bundle.project_normal(gradH[1])])


def _grad_gauss(bundle: GeometryBundle) -> mv.BladeRows:
    """grad n of the Gauss map, as rows over the field shape (2, n, n)."""
    return mv.field_slotwise(partial(dg.grad, bundle.grid), bundle.gauss)


def _H0cH(bundle: GeometryBundle) -> np.ndarray:
    return np.sum(np.conj(bundle.H0) * bundle.H, axis=-1)


def assemble_Q(bundle: GeometryBundle) -> np.ndarray:
    """Q = grad H - 3 pi_n(grad H) + star(grad_perp n ^ H), shape (2, n, n, m)."""
    tang = bundle.derived(_grad_H) - 3.0 * bundle.derived(_pin_grad_H)
    gn = bundle.derived(_grad_gauss)
    gpn = gn._replace(rows=np.stack([-gn.rows[:, 1], gn.rows[:, 0]], axis=1))
    star = mv.mv_field_vector_part(mv.field_hodge(mv.field_wedge(gpn, mv.vector_field_to_mv(bundle.H))))
    return tang + star


def _div_Q(bundle: GeometryBundle) -> np.ndarray:
    return dg.div(bundle.grid, bundle.derived(assemble_Q))


def willmore_residual(bundle: GeometryBundle) -> np.ndarray:
    """Euler-Lagrange density -(1/2) e^{-2 lambda} div Q of the Willmore
    energy, shape (n, n, m): the classical Willmore operator
    Lap_perp H + A~(H) - 2 |H|^2 H, which vanishes at O(h^2) exactly on
    Willmore patches.
    """
    return -0.5 * bundle.derived(_div_Q) / bundle.area_density[..., None]


def tangency_identities(bundle: GeometryBundle) -> tuple[float, float]:
    """Pointwise tangency identities of Q, as normalized interior sup-residuals.

    resid_dot  : grad Phi . Q = 0
    resid_wedge: grad Phi ^ Q + 2 grad Phi ^ grad H = 0
    Both hold on every conformal patch, Willmore or not.
    """
    grid = bundle.grid
    jet = bundle.jet
    Q = bundle.derived(assemble_Q)
    scale = bundle.derived(surface_scale)
    dot = dg.component_sum(jet.d1 * Q[0] + jet.d2 * Q[1])
    gradH = bundle.derived(_grad_H)
    blades = mv.grade_masks(bundle.m, 2)
    wedge = mv.BladeRows(bundle.m, blades, sum(
        mv.field_wedge_vectors(dphi, Qj + 2.0 * gHj).part(blades)
        for dphi, Qj, gHj in ((jet.d1, Q[0], gradH[0]), (jet.d2, Q[1], gradH[1]))
    ))
    norm = np.sqrt(mv.field_inner(wedge, wedge))
    return dg.interior_sup(grid, dot) / scale, dg.interior_sup(grid, norm) / scale


@dataclass(frozen=True)
class LRecovery:
    """Potential L with grad_perp L ~ Q, recovered componentwise."""

    L: np.ndarray
    defect: float          # || grad_perp L - Q ||_L2 / surface scale
    defect_abs: float
    compat_defect: float


def recover_L(bundle: GeometryBundle) -> LRecovery:
    """Recover L from grad_perp L = Q via componentwise curl potentials.

    Exact (to O(h^2)) precisely when div Q ~ 0, i.e. on Willmore patches;
    otherwise the defect stays bounded away from zero and is reported.
    L is normalized mean-zero per component.
    """
    res = dg.curl_potential(bundle.grid, bundle.derived(assemble_Q))
    return LRecovery(res.u, res.defect / bundle.derived(surface_scale), res.defect, res.compat_defect)


def dz_L0_closed_form(bundle: GeometryBundle) -> np.ndarray:
    """Closed complex form of dz L0: -2i e^lam (H0* . H) e_{z*} - 2i pi_n(dz H)."""
    ezstar = bundle.derived(complex_frame)[1]
    dzH = bundle.derived(_dz_H)[0]
    return -2j * (bundle.elam * bundle.derived(_H0cH))[..., None] * ezstar - 2j * bundle.project_normal(dzH)


def assemble_L0(bundle: GeometryBundle) -> float:
    """Assemble grad_perp L0 both ways; their normalized interior sup mismatch.

    The defining combination is Q itself written as a rotated gradient,
    whose dz-transcription is (1/2)(Q_2 + i Q_1); the closed form comes
    from the complex frame identities.
    """
    Q = bundle.derived(assemble_Q)
    W = 0.5 * (Q[1] + 1j * Q[0])
    Z0 = bundle.derived(dz_L0_closed_form)
    return dg.interior_sup(bundle.grid, W - Z0) / bundle.derived(surface_scale)


@dataclass(frozen=True)
class SRData:
    """Scalar potential S and 2-vector potential R with their defects."""

    S: np.ndarray              # (n, n)
    R: mv.BladeRows            # every grade-2 blade, rows over (n, n)
    S_defect: float            # || grad S - grad Phi . L ||_L2 / scale
    R_defect: float


def build_S_R(bundle: GeometryBundle, L: np.ndarray) -> SRData:
    """Integrate grad S := grad Phi . L, grad R := grad Phi ^ L + 2 grad_perp Phi ^ H.

    Both potentials are mean-zero Neumann integrations; the defects
    measure the curl-freeness of the targets, which the conservation
    system guarantees only when L actually solves it.
    """
    grid, m = bundle.grid, bundle.m
    jet = bundle.jet
    TS = np.stack([dg.component_sum(jet.d1 * L), dg.component_sum(jet.d2 * L)])
    resS = dg.grad_potential(grid, TS)
    blades = mv.grade_masks(m, 2)
    # blade axis outermost in memory: the solver's defect sums run in memory
    # order, so this layout fixes the bits of R_defect
    TR = np.empty((len(blades), 2) + L.shape[:-1])
    for j, (dphi, gp) in enumerate(((jet.d1, -jet.d2), (jet.d2, jet.d1))):
        TR[:, j] = (mv.field_wedge_vectors(dphi, L).part(blades)
                    + 2.0 * mv.field_wedge_vectors(gp, bundle.H).part(blades))
    resR = dg.grad_potential(grid, np.moveaxis(TR, 0, -1))
    R = mv.BladeRows(m, blades, np.moveaxis(resR.u, -1, 0))
    scale = bundle.derived(surface_scale)
    return SRData(resS.u, R, resS.defect / scale, resR.defect / scale)


def sr_system_residual(bundle: GeometryBundle, S: np.ndarray, R: mv.BladeRows) -> tuple[float, float]:
    """Normalized interior sup-residuals of the S/R elliptic system.

    The contraction term star(grad n . grad_perp R) carries the sign (-1)^m
    (the reading validated for m = 3, 4, 5).
    """
    grid, m = bundle.grid, bundle.m
    scale = bundle.derived(surface_scale)
    gstarn = mv.field_slotwise(partial(dg.grad, grid), mv.field_hodge(bundle.gauss))
    ggauss = bundle.derived(_grad_gauss)
    gperpR = mv.field_slotwise(partial(dg.grad_perp, grid), R)
    gperpS = dg.grad_perp(grid, S)
    res_S = dg.laplace(grid, S) - sum(mv.field_inner(gstarn, gperpR))
    bullet = mv.field_bullet(ggauss, gperpR)
    del gperpR  # bounds the peak memory of the R-side terms below
    contraction = bullet._replace(rows=sum(np.moveaxis(bullet.rows, 1, 0)))
    sign = (-1.0) ** m
    blades = mv.grade_masks(m, 2)  # every term of the R equation is a 2-vector
    gs = gstarn.part(blades)
    rhs_R = sign * mv.field_hodge(contraction).part(blades) - sum(gs[:, j] * gperpS[j] for j in range(2))
    res_R = mv.BladeRows(m, blades, mv.field_slotwise(partial(dg.laplace, grid), R).part(blades) - rhs_R)
    norm_R = np.sqrt(mv.field_inner(res_R, res_R))
    return dg.interior_sup(grid, res_S) / scale, dg.interior_sup(grid, norm_R) / scale


def phi_identity_residual(bundle: GeometryBundle, S: np.ndarray, R: mv.BladeRows) -> float:
    """Residual of Lap Phi = 1/2 (grad R . grad_perp Phi - grad S grad_perp Phi).

    The contraction is multivec.bullet; the identity holds whenever
    (S, R) come from a potential L solving the conservation system.
    Returns the normalized interior sup-norm.
    """
    grid = bundle.grid
    jet = bundle.jet
    gperp_phi = np.stack([-jet.d2, jet.d1])
    gR = mv.field_slotwise(partial(dg.grad, grid), R)
    gS = dg.grad(grid, S)
    contraction = sum(mv.mv_field_vector_part(mv.field_bullet(gR, mv.vector_field_to_mv(gperp_phi))))
    sterm = sum(gS[j][..., None] * gperp_phi[j] for j in range(2))
    resid = dg.laplace(grid, jet.phi) - 0.5 * (contraction - sterm)
    return dg.interior_sup(grid, resid) / bundle.derived(surface_scale)
