"""Complex-frame identities, the holomorphic quadratic differential, and
the conformal Willmore equation.

In the complex frame e_z = (e1 - i e2)/2, e_{z*} = (e1 + i e2)/2 the
derivative of any potential L solving the conservation system has the
structure

    dz L = A e_{z*} - 2 i pi_n(dz H),
    A    = -2 i e^lambda (H0* . H) + i e^{-lambda} f,

with f a holomorphic function of z = x1 + i x2.  ``extract_A_f(bundle)``
determines f from the integrability requirement that dz L integrate to a
real-valued map: the pointwise minimal-norm solution of Im(dz* dz L) = 0.
This applies off the conservation shell too (e.g. the CMC cylinder, where
the system potential is a constant while grad_perp L = Q has no
solution).  The candidate dz L is then integrated to the potential L.

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
from .conservation import _div_Q, _dz_H, _H0cH, _grad_gauss, _pin_grad_H, assemble_Q, dz_L0_closed_form, surface_scale
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
    dzsl = dg.dzstar(grid, bundle.lam)[..., None]
    half_elam = 0.5 * bundle.elam[..., None]
    # each derivative is taken before its prediction is built, predictions are summed in place
    # and each residual is reduced as soon as it is formed
    sups = []
    for e, coef, Hs in ((ez, -dzsl, bundle.H), (ezstar, dzsl, bundle.H0)):
        res = dg.dzstar(grid, e)
        pred = coef * e
        pred += half_elam * Hs
        res -= pred
        del pred
        sups.append(dg.interior_sup(grid, res))
        del res
    res_a4 = max(sups) / scale
    res_a5 = 0.0
    for a in range(bundle.m - 2):
        na = bundle.normal_frame[a]
        res = dg.dzstar(grid, na)
        pin = bundle.project_normal(res)
        pred = np.sum(bundle.H0 * na, axis=-1)[..., None] * ez
        pred += dg.component_sum(bundle.H * na)[..., None] * ezstar
        np.multiply(-bundle.elam[..., None], pred, out=pred)
        pred += pin
        del pin
        res -= pred
        del pred
        res_a5 = max(res_a5, dg.interior_sup(grid, res))
        del res
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
    dzH, dzstarH = bundle.derived(_dz_H)
    rhs = np.sum(bundle.H * dzH, axis=-1) + np.sum(np.conj(bundle.H0) * dzstarH, axis=-1)
    return dg.interior_sup(grid, lhs - rhs) / bundle.derived(surface_scale)


@dataclass(frozen=True)
class ConformalData:
    """Frame coefficient A, quadratic-differential coordinate f, and the
    potential integrated from them."""

    A: np.ndarray                 # complex (n, n)
    f: np.ndarray                 # complex (n, n)
    holomorphy_defect: float      # ||dz* f||_L2 / ||f||_L2 on the interior window
    L: np.ndarray                 # integrated potential (real, (n, n, m))
    L_defect: float               # || grad L - candidate ||_L2 (integration defect)


def _holomorphy_defect(grid, f: np.ndarray) -> float:
    win = grid.interior()
    num = dg.l2norm(grid, dg.dzstar(grid, f)[win])
    den = dg.l2norm(grid, f[win])
    if den < 1e-12:
        return 0.0
    return float(num / den)


# LAPACK's dlamch('E') and dlamch('S'), as dsteqr uses them
_EPS = 0.5 * np.finfo(float).eps
_SAFMIN = np.finfo(float).tiny
# dsyevd rescales a matrix whose largest entry lies outside about
# [1e-146, 1e146], and dsteqr an unsplit one whose largest entry is below
# about 1.2e-122; inside [2**-400, 2**480] neither does
_UNSCALED = (2.0**-400, 2.0**480)
# matrices per block: a block's temporaries (64 KiB each) are reused from the
# heap and stay in cache, where whole-stack ones are mapped afresh each step
_BLOCK = 8192


def _pinv_psd2(G: np.ndarray, rcond: float) -> np.ndarray:
    """``np.linalg.pinv(G, rcond, hermitian=True)`` for a stack of symmetric
    positive semidefinite 2x2 matrices, bit for bit, signed zeros included.

    The eigenpairs follow the path ``eigh`` takes on a 2x2 (LAPACK dsyevd,
    then dsteqr; see ``_pinv_operands``).  The rest are numpy's own steps,
    ending in one stacked ``np.matmul`` whose rounding (FMA or not) stays
    numpy's.  A matrix with a negative diagonal, a non-finite entry or an
    entry outside ``_UNSCALED`` (where LAPACK rescales) is handed to
    ``np.linalg.pinv`` itself, in one call.
    """
    abc = G.reshape(-1, 4)[:, [0, 2, 3]]  # a, the lower entry b, c
    vtT, su = np.empty((len(abc), 2, 2)), np.empty((len(abc), 2, 2))
    fast = np.empty(len(abc), dtype=bool)
    for start in range(0, len(abc), _BLOCK):
        block = slice(start, start + _BLOCK)
        fast[block] = _pinv_operands(*abc[block].T.copy(), rcond, vtT[block], su[block])
    res = np.matmul(vtT, np.swapaxes(su, -1, -2)).reshape(G.shape)
    if not fast.all():
        slow = ~fast.reshape(G.shape[:-2])
        res[slow] = np.linalg.pinv(G[slow], rcond=rcond, hermitian=True)
    return res


def _pinv_operands(a, b, c, rcond, vtT, su) -> np.ndarray:
    """Write numpy's pinv operands vt.T = u * sgn and (s * u.T).T for the
    matrices [[a, b], [b, c]] into vtT and su, and return the mask of the
    lanes where they are exact (elsewhere LAPACK would rescale first).

    eigh's eigenpairs come from dsteqr's two split tests on b, which keep the
    diagonal and the identity vectors, else from dlaev2's eigenvalues and
    rotation (applied to the identity as dlasr does), then dsteqr's ascending
    sort.  numpy's svd then sorts by |w| descending and moves the signs into
    vt, and pinv inverts the singular values above rcond times the largest.
    """
    lo, hi = np.minimum(a, c), np.maximum(a, c)
    inside = (hi >= _UNSCALED[0]) & (hi <= _UNSCALED[1]) & (np.abs(b) <= _UNSCALED[1])
    fast = (lo >= 0) & (inside | ((hi == 0) & (b == 0)))
    with np.errstate(all="ignore"):  # lanes that split or fall back may divide 0 by 0
        # dsteqr: the split test, then QL's (|c| >= |a|) or QR's small-element test
        split = np.abs(b) <= np.sqrt(a) * np.sqrt(c) * _EPS
        split |= b * b <= np.where(c < a, (_EPS * _EPS * c) * a, (_EPS * _EPS * a) * c) + _SAFMIN
        # dlaev2(a, b, c): rt1 >= 0 is the eigenvalue of larger modulus, and
        # (cs1, sn1) its unit eigenvector; a + c > 0 on every unsplit lane
        df, tb = a - c, b + b
        adf, atb = np.abs(df), np.abs(tb)
        big, small = np.maximum(adf, atb), np.minimum(adf, atb)
        rt = big * np.sqrt(1.0 + (small / big) ** 2)
        rt1 = 0.5 * ((a + c) + rt)
        rt2 = (hi / rt1) * lo - (b / rt1) * b
        cs = df + np.copysign(rt, df)
        first = np.abs(cs) > atb
        t = -np.where(first, tb, cs) / np.where(first, cs, tb)
        x = 1.0 / np.sqrt(1.0 + t * t)
        cs1, sn1 = np.where(first, t * x, x), np.where(first, x, t * x)
        swap = df >= 0
        cs1, sn1 = np.where(swap, -sn1, cs1), np.where(swap, cs1, sn1)
        # dlasr rotates the identity (cs1, sn1 are nonzero on an unsplit lane,
        # so its terms in 0.0 drop out); a split lane keeps the identity
        z = [[cs1, -sn1], [sn1, cs1]]
        z = [[np.where(split, float(i == k), z[i][k]) for k in range(2)] for i in range(2)]
        d0, d1 = np.where(split, a, rt1), np.where(split, c, rt2)
        # dsteqr sorts ascending, then numpy's stable argsort of |w|, reversed:
        # q says the second of (d0, d1) comes first
        q = np.where(d1 < d0, np.abs(d1) > np.abs(d0), np.abs(d0) <= np.abs(d1))
        w = (np.where(q, d1, d0), np.where(q, d0, d1))
        u = [[np.where(q, zi[1], zi[0]), np.where(q, zi[0], zi[1])] for zi in z]
        s = [np.abs(wk) for wk in w]
        sgn = [np.copysign(1.0, wk) for wk in w]
        inv = [np.where(sk > rcond * s[0], 1.0 / sk, 0.0) for sk in s]
    # numpy's pinv computes matmul(vt.T, s[..., None] * u.T): the caller's
    # matmul sees these values with those strides
    for i in range(2):
        for k in range(2):
            vtT[:, i, k] = u[i][k] * sgn[k]
            su[:, i, k] = u[i][k] * inv[k]
    return fast


def _gram(M: np.ndarray) -> np.ndarray:
    """The stacked 2x2 Gram matrices M^T M of M (..., k, 2), with the bits of
    ``np.einsum("...ka,...kb->...ab", M, M)``: each entry adds its k terms in
    index order (``component_sum``), at a fraction of einsum's time."""
    G = np.empty(M.shape[:-2] + (2, 2))
    for a, b in ((0, 0), (1, 0), (1, 1)):
        G[..., a, b] = dg.component_sum(M[..., a] * M[..., b])
    G[..., 0, 1] = G[..., 1, 0]
    return G


def extract_A_f(bundle: GeometryBundle) -> ConformalData:
    """Extract the frame coefficient A and the holomorphic coordinate f.

    f is the pointwise minimal-norm solution of the reality (integrability)
    constraint Im[dz*(dz L candidate)] = 0 and the candidate derivative
    Z0 + i e^{-lambda} f e_{z*} is integrated to a real potential by a
    mean-zero Neumann solve, whose defect is reported.  The pointwise
    Gram matrices and their pseudo-inverses (``_gram``, ``_pinv_psd2``) are
    bit-identical to numpy's einsum and hermitian ``np.linalg.pinv``; the
    pseudo-inverse because it takes LAPACK's own 2x2 path.
    """
    grid = bundle.grid
    Z0 = bundle.derived(dz_L0_closed_form)
    # Im[G + i f H0 / 2] = 0 with G = dz* Z0: columns of the pointwise design
    # matrix are the real and (negated) imaginary parts of H0
    rhs = -2.0 * dg.dzstar(grid, Z0).imag
    M = np.stack([bundle.H0.real, -bundle.H0.imag], axis=-1)
    MtM = _gram(M)
    Mtr = np.einsum("...ka,...k->...a", M, rhs)
    del M, rhs
    # minimal-norm pointwise least squares; the rcond floor suppresses
    # rank inflation by discretization noise near umbilic points, and the
    # absolute gate returns f = 0 wherever H0 carries no usable signal
    # (umbilic patches leave f undetermined; zero is the minimal choice)
    sol = np.einsum("...ab,...b->...a", _pinv_psd2(MtM, 1e-8), Mtr)
    tr = MtM[..., 0, 0] + MtM[..., 1, 1]
    usable = tr > 1e-12 * max(float(np.max(tr)), 1.0)
    sol = np.where(usable[..., None], sol, 0.0)
    f = sol[..., 0] + 1j * sol[..., 1]
    candidate = 1j * (f / bundle.elam)[..., None] * bundle.derived(complex_frame)[1]
    np.add(Z0, candidate, out=candidate)
    gradL = np.empty((2,) + candidate.shape)
    np.multiply(2.0, candidate.real, out=gradL[0])
    np.multiply(-2.0, candidate.imag, out=gradL[1])
    del candidate
    res = dg.grad_potential(grid, gradL)
    A = -2j * bundle.elam * bundle.derived(_H0cH) + 1j * f / bundle.elam
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
    resid = 1j * bundle.derived(_div_Q)
    np.add(dg.curl(grid, bundle.derived(assemble_Q)), resid, out=resid)  # Lap L0
    np.subtract(dg.laplace(grid, L), resid, out=resid)
    f_arr = np.asarray(f, dtype=complex)
    resid -= 2j * f_arr[..., None] * bundle.H0
    return dg.l2norm(grid, resid[win]) / bundle.derived(surface_scale)


def gauss_map_energy(bundle: GeometryBundle) -> float:
    """Dirichlet energy integral |grad n|^2 of the Gauss map over the patch."""
    gn = bundle.derived(_grad_gauss)
    density = mv.blade_sum(gn._replace(rows=gn.rows[:, 0] ** 2 + gn.rows[:, 1] ** 2))
    return float(dg.integrate(bundle.grid, density))
