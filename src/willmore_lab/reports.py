"""Residual reports with a stable key contract, per-surface expectations,
and refinement-ratio tables.

Report keys (values are dimensionless; identity residuals are interior
sup-norms divided by the surface scale sup e^{2 lambda}(1+|H|^2+|B|^2),
except divQ_inf which is the absolute interior sup of the
Euler-Lagrange-normalized Willmore residual so that catalog magnitudes
like 1/(4 rho^3) on the cylinder are read off directly):

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

Keys without a ``DEFAULT_THRESHOLDS`` entry are informational: never
thresholded and left out of refinement tables.  Expected-nonzero keys
are declared per surface by the ``exempt`` field of its
``immersion.CATALOG`` record, so that verification semantics stay data
driven.
"""

from __future__ import annotations

from concurrent.futures import Executor

import numpy as np

from . import confwillmore as cwmod
from . import conservation as cons
from . import diskgrid as dg
from .immersion import CATALOG, GeometryBundle, ImmersionPatch, make_bundle, willmore_energy

__all__ = [
    "DEFAULT_THRESHOLDS",
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


def _conformal_chain(bundle: GeometryBundle) -> dict[str, float]:
    """The extracted f and its equations, then the S/R system built from its L."""
    grid = bundle.grid
    scale = bundle.derived(cons.surface_scale)
    report: dict[str, float] = {}
    cdata = cwmod.extract_A_f(bundle)
    report["f_inf"] = dg.interior_sup(grid, cdata.f)
    report["f_holo_defect"] = cdata.holomorphy_defect
    report["cw_resid_f"] = dg.interior_sup(grid, cwmod.conformal_willmore_residual(bundle, cdata.f)) / scale
    report["cw_resid_zero"] = dg.interior_sup(grid, cwmod.conformal_willmore_residual(bundle, 0.0)) / scale
    report["cwbis_resid"] = cwmod.eq13_residual(bundle, cdata.f, cdata.L)

    sr = cons.build_S_R(bundle, cdata.L)
    del cdata  # used up: the S/R stages below set the chain's peak memory
    report["S_defect"] = sr.S_defect
    report["R_defect"] = sr.R_defect
    srS, srR = cons.sr_system_residual(bundle, sr.S, sr.R)
    report["srS_resid"] = srS
    report["srR_resid"] = srR
    report["phi_identity"] = cons.phi_identity_residual(bundle, sr.S, sr.R)
    return report


def _conservation(bundle: GeometryBundle) -> dict[str, float]:
    """Tangency of Q, the Willmore residual and the recovery of L."""
    dot, wedge = cons.tangency_identities(bundle)
    return {
        "dot_identity": dot,
        "wedge_identity": wedge,
        "divQ_inf": dg.interior_sup(bundle.grid, cons.willmore_residual(bundle)),
        "L_defect": bundle.derived(cons.recover_L).defect,
        "L0_consistency": cons.assemble_L0(bundle),
    }


def _frame(bundle: GeometryBundle) -> dict[str, float]:
    """Frame derivative and Codazzi identities, and the informational energies."""
    a4, a5 = cwmod.frame_derivative_residuals(bundle)
    return {
        "a4_resid": a4,
        "a5_resid": a5,
        "codazzi_resid": cwmod.codazzi_residual(bundle),
        "gradn_energy": cwmod.gauss_map_energy(bundle),
        "conformal_defect": bundle.conformal_defect,
        "willmore_energy": willmore_energy(bundle),
    }


def residual_report(source: ImmersionPatch | GeometryBundle, pool: Executor | None = None) -> dict[str, float]:
    """Run the full conservation / conformal-Willmore residual suite.

    The three stage groups are independent.  With a pool, the conservation
    and frame groups go to it while the conformal chain, the longest, runs
    here; a group still queued after the chain runs here too.  So this only
    waits on running groups, which submit nothing: a pool of any size,
    1 included, cannot deadlock.  Keys and values do not depend on the pool.
    """
    bundle = source if isinstance(source, GeometryBundle) else make_bundle(source)
    side = (_conservation, _frame)
    futures = {group: pool.submit(group, bundle) for group in side} if pool is not None else {}
    try:
        conformal = _conformal_chain(bundle)
        inline = {group: group(bundle) for group in side if group not in futures or futures[group].cancel()}
        conservation, frame = (inline[g] if g in inline else futures[g].result() for g in side)
    finally:  # when a stage raised, no worker starts a group of this report any more
        for fut in futures.values():
            fut.cancel()
    return {**conservation, **conformal, **frame}


def check_report(
    report: dict[str, float],
    kind: str,
    thresholds: dict[str, float] | None = None,
) -> dict[str, tuple[float, float]]:
    """Threshold check honoring the exemptions of the catalog record of kind.

    Returns {key: (value, threshold)} for every violated key; empty
    means pass.  Names outside the catalog (perturbed_<name> included)
    are fully thresholded; a record with ``exempt=None`` (the
    graph_perturbation control) is not thresholded at all.
    """
    thresholds = dict(DEFAULT_THRESHOLDS if thresholds is None else thresholds)
    exempt = CATALOG[kind].exempt if kind in CATALOG else frozenset()
    if exempt is None:
        return {}
    failures: dict[str, tuple[float, float]] = {}
    for key, bound in thresholds.items():
        if key not in DEFAULT_THRESHOLDS or key in exempt or key not in report:
            continue
        if not np.isfinite(report[key]) or report[key] > bound:
            failures[key] = (report[key], bound)
    return failures


def refinement_ratios(reports: list[dict[str, float]]) -> list[dict[str, object]]:
    """Richardson ratios between consecutive grid reports.

    Exactly-zero keys (both values below 1e-12) yield the FLOOR sentinel
    instead of a meaningless quotient.
    """
    out: list[dict[str, object]] = []
    for coarse, fine in zip(reports, reports[1:]):
        row: dict[str, object] = {}
        for key in DEFAULT_THRESHOLDS:
            if key not in coarse:
                continue
            a, b = coarse[key], fine[key]
            if max(abs(a), abs(b)) < 1e-12:
                row[key] = FLOOR
            elif abs(b) < 1e-300:
                row[key] = np.inf
            else:
                row[key] = a / b
        out.append(row)
    return out
