"""Residual reports with a stable key contract, per-surface expectations, and refinement-ratio tables.

Report keys (values are dimensionless; identity residuals are interior sup-norms divided by the
surface scale sup e^{2 lambda}(1+|H|^2+|B|^2), except divQ_inf which is the absolute interior sup
of the Euler-Lagrange-normalized Willmore residual so that catalog magnitudes like 1/(4 rho^3) on
the cylinder are read off directly):

    dot_identity, wedge_identity  tangency identities of Q
    divQ_inf                      Willmore residual sup (EL normalization)
    L_defect                      ||grad_perp L - Q||_L2 / scale
    S_defect, R_defect            potential integration defects / scale
    srS_resid, srR_resid          S/R elliptic system residuals
    phi_identity                  Lap Phi reconstruction residual
    L0_consistency                closed dz-form vs Q-combination
    cwbis_resid                   Lap(L - L0) = 2 i H0 f closure (interior L2)
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


#: a row of STAGES: fn(bundle, chain) returns the values of keys (a tuple if more than one) and may compute or read
#: the named derived entries (of conservation, confwillmore or immersion); chain carries L, then S and R, onward
Stage = namedtuple("Stage", "name group fn entries keys")
_Q = ("assemble_Q", "_grad_H", "_pin_grad_H", "_grad_gauss")  # Q and what it reads
_Z0 = ("dz_L0_closed_form", "complex_frame", "_H0cH", "tracefree_H0")  # dz L0's closed form, what it reads but grad H


def _fit(bundle: GeometryBundle, chain: dict) -> tuple:
    """The extracted f; chain["f"] is f and chain["L"] the potential integrated with it (A is not kept)."""
    cdata = cwmod.extract_A_f(bundle)
    chain["f"], chain["L"] = cdata.f, cdata.L
    return dg.interior_sup(bundle.grid, cdata.f), cdata.holomorphy_defect


def _cw(bundle: GeometryBundle, chain: dict) -> tuple:
    """The conformal Willmore equation with f and with 0, and Lap(L - L0) = 2 i H0 f."""
    grid, scale, f = bundle.grid, bundle.derived(cons.surface_scale), chain.pop("f")
    cw = (dg.interior_sup(grid, cwmod.conformal_willmore_residual(bundle, fv)) / scale for fv in (f, 0.0))
    return *cw, cwmod.eq13_residual(bundle, f, chain["L"])


def _potentials(bundle: GeometryBundle, chain: dict) -> tuple:
    sr = chain["sr"] = cons.build_S_R(bundle, chain.pop("L"))
    return sr.S_defect, sr.R_defect


#: the stages in the order they run without a pool: the f fit, then the frame and Codazzi stages, so the complex
#: frame is gone before the conservation stages form Q, then the conformal Willmore stage, and build_S_R after all
#: of them, so the entries that only they read are gone before the S/R stages.  The L0 stage lists dz L0 but not
#: the complex frame, H0 and H0* . H it is formed from: the f fit lists those and forms dz L0 before it finishes
STAGES = (
    Stage("fit_f", "conformal", _fit, _Z0 + ("_grad_H",), ("f_inf", "f_holo_defect")),
    Stage("frame", "frame", lambda b, c: cwmod.frame_derivative_residuals(b), ("complex_frame", "tracefree_H0"),
          ("a4_resid", "a5_resid")),
    Stage("codazzi", "frame", lambda b, c: cwmod.codazzi_residual(b), ("_H0cH", "_grad_H", "tracefree_H0"),
          ("codazzi_resid",)),
    Stage("tangency", "conservation", lambda b, c: cons.tangency_identities(b), _Q,
          ("dot_identity", "wedge_identity")),
    Stage("divQ", "conservation", lambda b, c: dg.interior_sup(b.grid, cons.willmore_residual(b)), _Q + ("_div_Q",),
          ("divQ_inf",)),
    Stage("L", "conservation", lambda b, c: b.derived(cons.recover_L).defect, _Q + ("recover_L",), ("L_defect",)),
    Stage("L0", "conservation", lambda b, c: cons.assemble_L0(b), _Q + ("dz_L0_closed_form",), ("L0_consistency",)),
    Stage("cw", "conformal", _cw, _Q + ("_cw_lhs", "_div_Q", "tracefree_H0"),
          ("cw_resid_f", "cw_resid_zero", "cwbis_resid")),
    Stage("energies", "frame", lambda b, c: (cwmod.gauss_map_energy(b), b.conformal_defect, willmore_energy(b)),
          ("_grad_gauss",), ("gradn_energy", "conformal_defect", "willmore_energy")),
    Stage("S_R", "conformal", _potentials, (), ("S_defect", "R_defect")),
    Stage("sr", "conformal", lambda b, c: cons.sr_system_residual(b, c["sr"].S, c["sr"].R), ("_grad_gauss",),
          ("srS_resid", "srR_resid")),
    Stage("phi", "conformal", lambda b, c: cons.phi_identity_residual(b, c["sr"].S, c["sr"].R), (), ("phi_identity",)),
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
    readers = Counter(name for stage in STAGES for name in stage.entries)  # stages left that may read each entry
    lock, chain, values = threading.Lock(), {}, {}

    def run(groups) -> None:
        for stage in (stage for stage in STAGES if stage.group in groups):
            out = stage.fn(bundle, chain)
            values.update(zip(stage.keys, out if len(stage.keys) > 1 else (out,)))
            with lock:
                readers.subtract(stage.entries)
                for name in [name for name in stage.entries if readers[name] == 0]:
                    # looked up now: a tracer or a test may have bound a wrapper in the function's place
                    bundle.drop(getattr(cons, name, None) or getattr(cwmod, name, None) or getattr(im, name))

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
