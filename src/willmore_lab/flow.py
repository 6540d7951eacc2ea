"""Discrete Willmore-energy descent with fixed boundary.

The pointwise Willmore gradient density is the Euler-Lagrange-normalized
residual of the divergence-form equation, -(1/2) e^{-2 lambda} div Q; it
vanishes exactly at critical points.  Stepping against it raw is
stability-throttled at tau ~ h^4 (the operator is fourth order), which
freezes the smooth components the stationarity norm weighs most, so by
default the direction is preconditioned by the squared inverse
Dirichlet Laplacian (a Sobolev-gradient direction: symmetric positive
definite, hence still a descent direction with the same zero set).
``precondition="none"`` recovers the raw density.

Updates act on the interior only (a boundary ring of width 2 stays
frozen in place of compactly supported variations) and a backtracking
line search keeps the energy trace exactly non-increasing; conformality
is measured and recorded, never repaired.  A trial step costs one
geometry bundle and its energy, which alone decide acceptance; Q and
ps_norm are computed once, for accepted states only, and Q travels with
the bundle so the next step's direction reuses it.

The stationarity measure ps_norm is an H^{-1}-type proxy for the dual
norm in the Palais-Smale definition: solve Lap phi_k = (div Q)_k with
zero Dirichlet data per ambient component and sum ||grad phi_k||_L2.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import diskgrid as dg
from .conservation import assemble_Q
from .immersion import (
    DegenerateImmersionError,
    FrameError,
    GeometryBundle,
    ImmersionPatch,
    make_bundle,
    willmore_energy,
)

__all__ = ["FlowState", "FlowTrace", "ps_norm", "descent_velocity", "step", "run"]

_FROZEN_RING = 2
_MIN_STEP_FACTOR = 1e-12


def ps_norm(bundle: GeometryBundle, Q: np.ndarray | None = None) -> float:
    """H^{-1}-proxy stationarity norm of div Q (zero at critical points)."""
    if Q is None:
        Q = assemble_Q(bundle)
    grid = bundle.grid
    divQ = dg.div(grid, Q)
    total = 0.0
    for k in range(divQ.shape[-1]):
        phi = dg.poisson_dirichlet(grid, divQ[..., k])
        total += dg.l2norm(grid, dg.grad(grid, phi))
    return total


def descent_velocity(
    bundle: GeometryBundle, Q: np.ndarray | None = None, precondition: str = "bilaplacian"
) -> np.ndarray:
    """Descent direction with frozen boundary ring.

    "none": +(1/2) e^{-2 lambda} div Q, minus the raw Willmore gradient
    density.  "bilaplacian" (default): the same density pushed through
    the squared inverse Dirichlet Laplacian per ambient component, which
    keeps the zero set and the descent property while removing the
    fourth-order stiffness from the line search.
    """
    if Q is None:
        Q = assemble_Q(bundle)
    grid = bundle.grid
    density = -0.5 * dg.div(grid, Q) / bundle.area_density[..., None]  # Willmore gradient
    if precondition == "none":
        vel = -density
    elif precondition == "bilaplacian":
        vel = np.empty_like(density)
        for k in range(density.shape[-1]):
            once = dg.poisson_dirichlet(grid, density[..., k])
            vel[..., k] = -dg.poisson_dirichlet(grid, once)
    else:
        raise ValueError(f"unknown preconditioner {precondition!r}")
    vel[: _FROZEN_RING] = 0.0
    vel[-_FROZEN_RING:] = 0.0
    vel[:, : _FROZEN_RING] = 0.0
    vel[:, -_FROZEN_RING:] = 0.0
    return vel


@dataclass(frozen=True)
class FlowState:
    """Snapshot of one accepted flow iterate.

    Working states carry their geometry bundle and the Q assembled from
    it (ps is computed from that Q, and the next step's direction reuses
    it); states stored in a FlowTrace are stripped summaries (bundle and
    Q None) to keep long runs light.  ``step`` rebuilds what is missing.
    ``rejections`` names, in trial order, why each line-search trial of
    the step that produced this state was rejected: "energy" (no strict
    decrease) or the class name of the exception the trial raised.
    """

    patch: ImmersionPatch
    energy: float
    ps: float
    conformal_defect: float
    tau: float              # accepted step size (0.0 for the initial state)
    stalled: bool = False   # no energy-decreasing step was found
    degenerate: bool = False  # conformal factor collapsed; run aborted
    bundle: GeometryBundle | None = None
    Q: np.ndarray | None = None
    rejections: tuple[str, ...] = ()

    def summary(self) -> "FlowState":
        return replace(self, bundle=None, Q=None)


def _accept(patch: ImmersionPatch, bundle: GeometryBundle, energy: float, tau: float,
            rejections: tuple[str, ...] = ()) -> FlowState:
    Q = assemble_Q(bundle)
    return FlowState(
        patch=patch,
        energy=energy,
        ps=ps_norm(bundle, Q),
        conformal_defect=bundle.conformal_defect,
        tau=tau,
        bundle=bundle,
        Q=Q,
        rejections=rejections,
    )


def _state_from_patch(patch: ImmersionPatch, tau: float) -> FlowState:
    bundle = make_bundle(patch)
    return _accept(patch, bundle, willmore_energy(bundle), tau)


def step(state: FlowState, tau0: float, precondition: str = "bilaplacian") -> FlowState:
    """One backtracking descent step from an accepted state.

    Halves the trial step until the energy strictly decreases; returns
    the state flagged stalled when tau drops below 1e-12 * tau0.  A trial
    whose bundle, energy, Q or ps_norm raises is rejected like one whose
    energy does not decrease.
    """
    if tau0 <= 0.0:
        raise ValueError("trial step tau0 must be positive")
    bundle = state.bundle if state.bundle is not None else make_bundle(state.patch)
    vel = descent_velocity(bundle, Q=state.Q, precondition=precondition)
    rejections = []
    tau = tau0
    while tau > _MIN_STEP_FACTOR * tau0:
        candidate = state.patch.with_phi(state.patch.phi + tau * vel)
        try:
            trial = make_bundle(candidate)
            energy = willmore_energy(trial)
            if energy < state.energy:
                return _accept(candidate, trial, energy, tau, tuple(rejections))
        except (DegenerateImmersionError, FrameError, dg.SolverError, ValueError) as exc:
            rejections.append(type(exc).__name__)
        else:
            rejections.append("energy")
        tau *= 0.5
    return replace(state, tau=0.0, stalled=True, bundle=bundle, rejections=tuple(rejections))


@dataclass(frozen=True)
class FlowTrace:
    """Accepted states of one descent run, energies non-increasing.

    ``rejections`` counts the run's rejected line-search trials by reason
    (see FlowState.rejections); it is kept in memory only.
    """

    states: tuple[FlowState, ...]
    stopped_by: str   # "threshold" | "stalled" | "max_iters" | "degenerate"
    rejections: dict[str, int] = field(default_factory=dict)

    @property
    def initial(self) -> FlowState:
        return self.states[0]

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.states])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "energy", "ps_norm", "conformal_defect", "tau"])
            for i, s in enumerate(self.states):
                writer.writerow([i, f"{s.energy:.17g}", f"{s.ps:.17g}",
                                 f"{s.conformal_defect:.17g}", f"{s.tau:.17g}"])


def run(
    patch: ImmersionPatch,
    max_iters: int = 500,
    stop: float = 0.0,
    tau0: float = 1.0,
    precondition: str = "bilaplacian",
) -> FlowTrace:
    """Iterate descent steps until stop threshold, stall, or max_iters.

    ``stop`` is an absolute ps_norm threshold (0 disables it).  tau0
    seeds the first line search; afterwards the trial step is twice the
    last accepted one, so the search stays near its acceptance boundary.
    A collapsing conformal factor (e^lambda below 1e-8 of its initial
    maximum) aborts the run with the final state flagged degenerate.
    """
    state = _state_from_patch(patch, 0.0)
    elam_floor = 1e-8 * float(np.max(state.bundle.elam))
    states = [state.summary()]
    rejections = Counter()
    stopped = "max_iters"
    tau_try = tau0
    for _ in range(max_iters):
        if stop > 0.0 and state.ps <= stop:
            stopped = "threshold"
            break
        state = step(state, tau_try, precondition)
        rejections.update(state.rejections)
        if state.stalled:
            stopped = "stalled"
            states.append(state.summary())
            break
        if float(np.min(state.bundle.elam)) < elam_floor:
            states.append(replace(state, degenerate=True).summary())
            stopped = "degenerate"
            break
        states.append(state.summary())
        tau_try = 2.0 * state.tau
    else:
        if stop > 0.0 and state.ps <= stop:
            stopped = "threshold"
    energies = [s.energy for s in states]
    if any(b > a for a, b in zip(energies, energies[1:])):
        raise RuntimeError("energy trace must be non-increasing")
    return FlowTrace(tuple(states), stopped, dict(rejections))
