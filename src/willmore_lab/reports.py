"""Residual reports with a stable key contract, per-surface expectations, and refinement-ratio tables.

Stage functions return raw magnitudes; one rule makes them keys.  A ``STAGES`` row marked ``scaled`` has its
values divided by the surface scale max(1, sup e^{2 lambda}(1+|H|^2+|B|^2)) (``conservation.surface_scale``); the
other rows (``fit_f``, ``divQ``, ``energies``) are absolute, so divQ_inf reads 1/(4 rho^3) on the cylinder.
Residuals are interior sup-norms, but the L, S and R defects and cwbis_resid are interior L2 norms.

    dot_identity, wedge_identity  tangency identities of Q
    divQ_inf                      Willmore residual sup (EL normalization)
    L_defect                      ||grad_perp L - Q||_L2
    S_defect, R_defect            potential integration defects
    srS_resid, srR_resid          S/R elliptic system residuals
    phi_identity                  Lap Phi reconstruction residual, from the S/R system's grad_perp S and R
    L0_consistency                closed dz-form vs Q-combination
    cwbis_resid                   Lap(L - L0) = 2 i H0 f closure
    a4_resid, a5_resid            complex frame derivative identities
    codazzi_resid                 Codazzi-Mainardi residual
    f_inf                         sup |f| of the extracted coordinate
    f_holo_defect                 relative L2 of dz* f
    cw_resid_f, cw_resid_zero     conformal Willmore residual with f / with 0

Keys without a ``DEFAULT_THRESHOLDS`` entry are informational: never thresholded and left out of
refinement tables.  Expected-nonzero keys are declared per surface by the ``exempt`` field of its
``immersion.CATALOG`` record, so that verification semantics stay data driven.
"""

from __future__ import annotations

import threading
from collections import Counter, namedtuple
from concurrent.futures import Executor

import numpy as np

from . import confwillmore as cwmod
from . import conservation as cons
from . import diskgrid as dg
from . import immersion as im
from .immersion import CATALOG, GeometryBundle, ImmersionPatch, make_bundle, willmore_energy

__all__ = [
    "DEFAULT_THRESHOLDS",
    "STAGES",
    "residual_report",
    "check_report",
    "refinement_ratios",
    "FLOOR",
]

#: the thresholded keys, in the row order of refinement tables
DEFAULT_THRESHOLDS: dict[str, float] = {
    "dot_identity": 1e-3,
    "wedge_identity": 1e-3,
    "divQ_inf": 1e-3,
    "L_defect": 1e-2,
    "S_defect": 1e-2,
    "R_defect": 1e-2,
    "srS_resid": 1e-2,
    "srR_resid": 1e-2,
    "phi_identity": 1e-3,
    "L0_consistency": 1e-3,
    "cwbis_resid": 1e-2,
    "a4_resid": 1e-3,
    "a5_resid": 1e-3,
    "codazzi_resid": 1e-3,
    "f_holo_defect": 1e-2,
    "cw_resid_f": 1e-3,
}


#: sentinel for refinement ratios of exactly-zero keys
FLOOR = "floor"


#: a row of STAGES: fn(bundle) returns the raw values of keys (a tuple if more than one) and may compute or read the
#: derived entries of the functions in entries: f and L (``extract_A_f``) and S and R (``_potentials``) pass from
#: stage to stage as such entries, like Q, and what one stage alone reads (L from Q) is its local.  The memo keys
#: on the unwrapped function, so a wrapper shares its entry.  A scaled row's values are divided by the surface
#: scale, an absolute row's are reported as returned
Stage = namedtuple("Stage", "name group fn entries keys scaled")
_Q = (cons.assemble_Q, cons._grad_H, cons._pin_grad_H, cons._grad_gauss)  # Q and what it reads
_Z0 = (cons.dz_L0_closed_form, im.complex_frame, cons._H0cH, im.tracefree_H0)  # dz L0, what it reads but grad H


def _cw(bundle: GeometryBundle) -> tuple:
    """The conformal Willmore equation's sups with f and with 0, and Lap(L - L0) = 2 i H0 f's L2 norm."""
    fit = bundle.derived(cwmod.extract_A_f)
    cw = (dg.interior_sup(bundle.grid, cwmod.conformal_willmore_residual(bundle, f)) for f in (fit.f, 0.0))
    return *cw, cwmod.eq13_residual(bundle, fit.f, fit.L)


def _potentials(bundle: GeometryBundle) -> cons.SRData:
    """S and R, integrated from the L of the f fit (``confwillmore.extract_A_f``)."""
    return cons.build_S_R(bundle, bundle.derived(cwmod.extract_A_f).L)


#: the stages in the order they run without a pool: the f fit, then the frame and Codazzi stages, so the complex
#: frame is gone before the conservation stages form Q, then the conformal Willmore stage, and S and R after all
#: of them, so the entries that only they read are gone before the S/R stages.  The L0 stage lists dz L0 but not
#: the complex frame, H0 and H0* . H it is formed from: the f fit lists those and forms dz L0 before it finishes
STAGES = (
    Stage("fit_f", "conformal", lambda b: (dg.interior_sup(b.grid, (fit := b.derived(cwmod.extract_A_f)).f),
                                          fit.holomorphy_defect),
          _Z0 + (cons._grad_H, cwmod.extract_A_f), ("f_inf", "f_holo_defect"), scaled=False),
    Stage("frame", "frame", lambda b: cwmod.frame_derivative_residuals(b), (im.complex_frame, im.tracefree_H0),
          ("a4_resid", "a5_resid"), scaled=True),
    Stage("codazzi", "frame", lambda b: cwmod.codazzi_residual(b), (cons._H0cH, cons._grad_H, im.tracefree_H0),
          ("codazzi_resid",), scaled=True),
    Stage("tangency", "conservation", lambda b: cons.tangency_identities(b), _Q,
          ("dot_identity", "wedge_identity"), scaled=True),
    Stage("divQ", "conservation", lambda b: dg.interior_sup(b.grid, cons.willmore_residual(b)), _Q + (cons._div_Q,),
          ("divQ_inf",), scaled=False),
    Stage("L", "conservation", lambda b: cons.recover_L(b).defect, _Q, ("L_defect",), scaled=True),
    Stage("L0", "conservation", lambda b: cons.assemble_L0(b), _Q + (cons.dz_L0_closed_form,), ("L0_consistency",),
          scaled=True),
    Stage("cw", "conformal", _cw, _Q + (cwmod._cw_lhs, cons._div_Q, im.tracefree_H0, cwmod.extract_A_f),
          ("cw_resid_f", "cw_resid_zero", "cwbis_resid"), scaled=True),
    Stage("energies", "frame",
          lambda b: (cwmod.gauss_map_energy(b), b.derived(im.conformal_defect), willmore_energy(b)),
          (cons._grad_gauss,), ("gradn_energy", "conformal_defect", "willmore_energy"), scaled=False),
    Stage("S_R", "conformal", lambda b: ((sr := b.derived(_potentials)).S_defect, sr.R_defect),
          (cwmod.extract_A_f, _potentials), ("S_defect", "R_defect"), scaled=True),
    Stage("sr", "conformal", lambda b: cons.sr_system_residual(b, (sr := b.derived(_potentials)).S, sr.R),
          (cons._grad_gauss, _potentials), ("srS_resid", "srR_resid", "phi_identity"), scaled=True),
)
GROUPS = ("conservation", "conformal", "frame")  # in report key order


def residual_report(patch: ImmersionPatch, pool: Executor | None = None) -> dict[str, float]:
    """Run the full conservation / conformal-Willmore residual suite on the bundle of patch, ``STAGES`` in order.

    With a pool, the conservation and frame groups go to it while the conformal group runs here; a
    group still queued then runs here too.  So this only waits on running groups, which submit nothing:
    a pool of any size, 1 included, cannot deadlock.  The bundle drops each derived entry once no stage
    that may read it is left; a patch no caller keeps goes with its jet once the bundle exists, which
    holds no second-order jet (``make_bundle``).  Keys and values do not depend on the pool.
    """
    bundle = make_bundle(patch)
    del patch
    readers = Counter(fn for stage in STAGES for fn in stage.entries)  # stages left that may read each entry
    lock, values = threading.Lock(), {}

    def run(groups) -> None:
        for stage in (stage for stage in STAGES if stage.group in groups):
            out = stage.fn(bundle)
            out = out if len(stage.keys) > 1 else (out,)
            if stage.scaled:  # cons.surface_scale looked up now: a wrapper bound in its place makes the call
                scale = bundle.derived(cons.surface_scale)
                out = [value / scale for value in out]
            values.update(zip(stage.keys, out))
            with lock:
                readers.subtract(stage.entries)
                for fn in [fn for fn in stage.entries if readers[fn] == 0]:
                    bundle.drop(fn)

    side = {group: pool.submit(run, (group,)) for group in ("conservation", "frame")} if pool is not None else {}
    try:
        run([group for group in GROUPS if group not in side])
        for fut in [fut for group, fut in side.items() if not fut.cancel() or run((group,))]:
            fut.result()  # a group still queued was cancelled and has run above (run returns None)
    finally:  # when a stage raised, no worker starts a group of this report any more
        for fut in side.values():
            fut.cancel()
    return {key: values[key] for group in GROUPS for stage in STAGES if stage.group == group for key in stage.keys}


def check_report(
    report: dict[str, float], kind: str, thresholds: dict[str, float] | None = None
) -> dict[str, tuple[float, float]]:
    """Threshold check honoring the exemptions of the catalog record of kind.

    Returns {key: (value, threshold)} for every violated key; empty
    means pass.  Names outside the catalog (perturbed_<name> included)
    are fully thresholded; a record with ``exempt=None`` (the
    graph_perturbation control) is not thresholded at all.
    """
    exempt = CATALOG[kind].exempt if kind in CATALOG else frozenset()
    thresholds = DEFAULT_THRESHOLDS if thresholds is None else thresholds
    return {key: (report[key], bound) for key, bound in thresholds.items()
            if exempt is not None and key in DEFAULT_THRESHOLDS and key not in exempt and key in report
            and (not np.isfinite(report[key]) or report[key] > bound)}


def refinement_ratios(reports: list[dict[str, float]]) -> list[dict[str, object]]:
    """Richardson ratios between consecutive grid reports.

    Exactly-zero keys (both values finite and below 1e-12) yield the FLOOR
    sentinel instead of a meaningless quotient; a NaN on either grid yields NaN.
    """
    out: list[dict[str, object]] = []
    for coarse, fine in zip(reports, reports[1:]):
        row: dict[str, object] = {}
        for key in DEFAULT_THRESHOLDS:
            if key not in coarse:
                continue
            a, b = coarse[key], fine[key]
            if np.isnan(a) or np.isnan(b):
                row[key] = np.nan
            elif max(abs(a), abs(b)) < 1e-12:
                row[key] = FLOOR
            elif abs(b) < 1e-300:
                row[key] = np.inf
            else:
                row[key] = a / b
        out.append(row)
    return out
