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

  where . is the first-order contraction of multivec.bullet.  The
  residuals read X = S, R through grad_perp X alone: Lap X as its curl,
  grad X . grad_perp Phi as grad_perp X . (-grad Phi).

Potentials are fixed mean-zero; every off-shell input degrades to a
reported defect rather than an error.  Residuals are raw: ``reports``
divides them by ``surface_scale``.  Q, grad H, pi_n(grad H), grad n,
L, the surface scale and the closed form of dz L0 are computed once per
bundle and shared through ``GeometryBundle.derived``, and so are, in a
report, f with the L integrated from it (``confwillmore.extract_A_f``)
and the S, R built from that L; grad star n is the star of the memoized
grad n.  Multivector fields (n, R and their derivatives and products)
are ``multivec.BladeRows`` end to end, and residual norms sum over the
blade axis in numpy's order (``blade_sum``); wedges of vector fields
start from the component rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import diskgrid as dg
from . import multivec as mv
from .immersion import GeometryBundle, complex_frame, gauss_map, norm_B2, norm_H2

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
    "SRData",
]


def surface_scale(bundle: GeometryBundle) -> float:
    """Divisor of the scaled report keys and of the f fit's gate: max(1, sup e^{2 lambda}(1 + |H|^2 + |B|^2))."""
    win = bundle.grid.interior()
    normH2, normB2 = bundle.derived(norm_H2), bundle.derived(norm_B2)
    return float(max(1.0, np.max((bundle.area_density * (1.0 + normH2 + normB2))[win])))


def _grad_H(bundle: GeometryBundle) -> np.ndarray:
    return dg.grad(bundle.grid, bundle.H)


def _pin_grad_H(bundle: GeometryBundle) -> np.ndarray:
    """pi_n(grad H), shape (2, n, n, m), both components projected at once."""
    return bundle.project_normal(bundle.derived(_grad_H))


def _grad_gauss(bundle: GeometryBundle) -> mv.BladeRows:
    """grad n of the Gauss map, as rows over the field shape (2, n, n); n is formed here and goes with the call."""
    return mv.field_slotwise(partial(dg.grad, bundle.grid), gauss_map(bundle))


def _H0cH(bundle: GeometryBundle) -> np.ndarray:
    return dg.component_sum(np.conj(bundle.H0) * bundle.H)


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
    """Pointwise tangency identities of Q, as raw interior sup-residuals.

    resid_dot  : grad Phi . Q = 0
    resid_wedge: grad Phi ^ Q + 2 grad Phi ^ grad H = 0
    Both hold on every conformal patch, Willmore or not.
    """
    grid = bundle.grid
    jet = bundle.jet
    Q = bundle.derived(assemble_Q)
    dot = dg.component_sum(jet.d1 * Q[0] + jet.d2 * Q[1])
    gradH = bundle.derived(_grad_H)
    blades = mv.grade_masks(bundle.m, 2)
    wedge = mv.BladeRows(bundle.m, blades, sum(
        mv.field_wedge_vectors(dphi, Qj + 2.0 * gHj).part(blades)
        for dphi, Qj, gHj in ((jet.d1, Q[0], gradH[0]), (jet.d2, Q[1], gradH[1]))
    ))
    norm = np.sqrt(mv.field_inner(wedge, wedge))
    return dg.interior_sup(grid, dot), dg.interior_sup(grid, norm)


def recover_L(bundle: GeometryBundle) -> dg.PotentialResult:
    """Recover L from grad_perp L = Q via componentwise curl potentials.

    Exact (to O(h^2)) precisely when div Q ~ 0, i.e. on Willmore patches;
    otherwise the raw defect ||grad_perp L - Q||_L2 stays bounded away from
    zero and is reported.  L (the result's u) is mean-zero per component.
    """
    return dg.curl_potential(bundle.grid, bundle.derived(assemble_Q))


def dz_L0_closed_form(bundle: GeometryBundle) -> np.ndarray:
    """Closed complex form of dz L0: -2i e^lam (H0* . H) e_{z*} - 2i pi_n(dz H)."""
    ezstar = bundle.derived(complex_frame)[1]
    gradH = bundle.derived(_grad_H)
    dzH = 0.5 * (gradH[0] - 1j * gradH[1])  # as dg.dz forms it, from the memoized grad H
    return -2j * (bundle.elam * bundle.derived(_H0cH))[..., None] * ezstar - 2j * bundle.project_normal(dzH)


def assemble_L0(bundle: GeometryBundle) -> float:
    """Assemble grad_perp L0 both ways; their raw interior sup mismatch.

    The defining combination is Q itself written as a rotated gradient,
    whose dz-transcription is (1/2)(Q_2 + i Q_1); the closed form comes
    from the complex frame identities.
    """
    Q = bundle.derived(assemble_Q)
    W = 0.5 * (Q[1] + 1j * Q[0])
    Z0 = bundle.derived(dz_L0_closed_form)
    return dg.interior_sup(bundle.grid, W - Z0)


@dataclass(frozen=True)
class SRData:
    """Scalar potential S and 2-vector potential R with their defects."""

    S: np.ndarray              # (n, n)
    R: mv.BladeRows            # every grade-2 blade, rows over (n, n)
    S_defect: float            # || grad S - grad Phi . L ||_L2
    R_defect: float            # || grad R - (grad Phi ^ L + 2 grad_perp Phi ^ H) ||_L2


def build_S_R(bundle: GeometryBundle, L: np.ndarray) -> SRData:
    """Integrate grad S := grad Phi . L, grad R := grad Phi ^ L + 2 grad_perp Phi ^ H.

    Both potentials are mean-zero Neumann integrations; the defects
    measure the curl-freeness of the targets, which the conservation
    system guarantees only when L actually solves it.
    """
    grid, m = bundle.grid, bundle.m
    jet = bundle.jet
    resS = dg.grad_potential(grid, np.stack([dg.component_sum(jet.d1 * L), dg.component_sum(jet.d2 * L)]))
    blades = mv.grade_masks(m, 2)
    # blade axis outermost in memory: the solver's defect sums run in memory
    # order, so this layout fixes the bits of R_defect
    TR = np.empty((len(blades), 2) + L.shape[:-1])
    for j, (dphi, gp) in enumerate(((jet.d1, -jet.d2), (jet.d2, jet.d1))):
        wH = mv.field_wedge_vectors(gp, bundle.H).part(blades)
        np.multiply(2.0, wH, out=wH)
        np.add(mv.field_wedge_vectors(dphi, L).part(blades), wH, out=TR[:, j])
        del wH
    resR = dg.grad_potential(grid, np.moveaxis(TR, 0, -1))
    R = mv.BladeRows(m, blades, np.moveaxis(resR.u, -1, 0))
    return SRData(resS.u, R, resS.defect, resR.defect)


def sr_system_residual(bundle: GeometryBundle, S: np.ndarray, R: mv.BladeRows) -> tuple[float, float, float]:
    """Raw interior sup-residuals of the S/R elliptic system and of the Phi identity.

    grad_perp S and grad_perp R are formed once; Lap S and Lap R are their curls, and the right-hand
    sides and ``phi_identity_residual`` read them.  The contraction term star(grad n . grad_perp R)
    carries the sign (-1)^m (the reading validated for m = 3, 4, 5).  Each field is dropped after
    its last use, each residual reduced as soon as formed."""
    grid, m = bundle.grid, bundle.m
    blades = mv.grade_masks(m, 2)  # every term of the R equation is a 2-vector
    gstarn = mv.field_hodge(bundle.derived(_grad_gauss))  # grad(star n), up to the sign of an exact zero
    gperpR = mv.field_slotwise(partial(dg.grad_perp, grid), R)
    gperpS = dg.grad_perp(grid, S)
    res = dg.curl(grid, gperpS)  # Lap S
    res -= sum(mv.field_inner(gstarn, gperpR))
    res_S = dg.interior_sup(grid, res)
    gs = gstarn.part(blades)
    sterm = gs[:, 0] * gperpS[0]
    sterm += gs[:, 1] * gperpS[1]
    del gstarn, gs
    phi = phi_identity_residual(bundle, gperpS, gperpR)
    del gperpS
    lapR = mv.field_slotwise(partial(dg.curl, grid), gperpR).part(blades)  # now, so grad_perp R goes after the bullet
    bullet = mv.field_bullet(bundle.derived(_grad_gauss), gperpR)
    del gperpR
    contraction = bullet._replace(rows=bullet.rows[:, 0] + bullet.rows[:, 1])
    del bullet
    rhs = mv.field_hodge(contraction).part(blades)
    del contraction
    np.multiply((-1.0) ** m, rhs, out=rhs)
    rhs -= sterm
    del sterm
    lapR -= rhs
    del rhs
    res = mv.BladeRows(m, blades, lapR)
    return res_S, dg.interior_sup(grid, np.sqrt(mv.field_inner(res, res))), phi


def phi_identity_residual(bundle: GeometryBundle, gperpS: np.ndarray, gperpR: mv.BladeRows) -> float:
    """Residual of Lap Phi = 1/2 (grad R . grad_perp Phi - grad S grad_perp Phi), from grad_perp S and grad_perp R.

    Each grad X . grad_perp Phi is read as grad_perp X . (-grad Phi): the slots trade places and each
    product moves a sign between its operands, so the sums keep their order and every bit.  The
    contraction is multivec.bullet; the identity holds whenever (S, R) come from a potential L solving
    the conservation system.  Returns the raw interior sup-norm.
    """
    grid = bundle.grid
    jet = bundle.jet
    mgrad_phi = np.stack([-jet.d1, -jet.d2])
    bullet = mv.field_bullet(gperpR, mv.vector_field_to_mv(mgrad_phi))
    vec = mv.mv_field_vector_part(bullet)
    del bullet
    contraction = vec[1] + vec[0]  # the d1 R term first
    del vec
    sterm = gperpS[1][..., None] * mgrad_phi[1]  # the d1 S term first
    sterm += gperpS[0][..., None] * mgrad_phi[0]
    contraction -= sterm  # the formed sum: subtracting its terms one by one rounds differently
    del mgrad_phi, sterm
    np.multiply(0.5, contraction, out=contraction)
    resid = dg.laplace(grid, jet.phi)
    resid -= contraction
    return dg.interior_sup(grid, resid)
