"""Discrete Willmore-energy descent with fixed boundary.

The pointwise Willmore gradient density is the Euler-Lagrange-normalized
residual of the divergence-form equation, -(1/2) e^{-2 lambda} div Q
(``conservation.willmore_residual``); it vanishes exactly at critical
points.  Stepping against it raw is stability-throttled at tau ~ h^4
(the operator is fourth order), which freezes the smooth components the
stationarity norm weighs most, so the direction is preconditioned by
the squared inverse Dirichlet Laplacian (a Sobolev-gradient direction:
symmetric positive definite, hence still a descent direction with the
same zero set).

Updates act on the interior only (a boundary ring of width 2 stays
frozen in place of compactly supported variations) and a backtracking
line search keeps the energy trace exactly non-increasing; conformality
is measured and recorded, never repaired.  A trial step costs one
geometry bundle and its energy, which alone decide acceptance; Q and
ps_norm are computed once, for accepted states only.  A run keeps the
running state and one trial at a time; its trace keeps per-state
scalars and the final patch only, so its memory does not grow with the
number of iterations (``step(state, vel, tau0)`` returns full states
beside their bundles, for a caller that wants the iterates).

The stationarity measure ps_norm is an H^{-1}-type proxy for the dual
norm in the Palais-Smale definition: solve Lap phi_k = (div Q)_k with
zero Dirichlet data per ambient component and sum ||grad phi_k||_L2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import diskgrid as dg
from .conservation import _div_Q, assemble_Q, willmore_residual  # noqa: F401 (a binding perfbench traces)
from .immersion import GeometryBundle, ImmersionPatch, conformal_defect, make_bundle, willmore_energy

__all__ = ["FlowState", "FlowTrace", "ps_norm", "descent_velocity", "step", "run"]

_FROZEN_RING = 2
_MIN_STEP_FACTOR = 1e-12


def ps_norm(bundle: GeometryBundle) -> float:
    """H^{-1}-proxy stationarity norm of div Q (zero at critical points)."""
    grid = bundle.grid
    G = dg.grad(grid, dg.poisson_dirichlet(grid, bundle.derived(_div_Q)))
    return sum(dg.l2norm(grid, G[..., k]) for k in range(G.shape[-1]))


def descent_velocity(bundle: GeometryBundle) -> np.ndarray:
    """Descent direction with frozen boundary ring: minus the Willmore
    gradient density pushed through the squared inverse Dirichlet
    Laplacian per ambient component, which keeps the zero set and the
    descent property while removing the fourth-order stiffness from the
    line search.
    """
    grid = bundle.grid
    vel = -dg.poisson_dirichlet(grid, dg.poisson_dirichlet(grid, willmore_residual(bundle)))
    vel[: _FROZEN_RING] = 0.0
    vel[-_FROZEN_RING:] = 0.0
    vel[:, : _FROZEN_RING] = 0.0
    vel[:, -_FROZEN_RING:] = 0.0
    return vel


@dataclass(frozen=True)
class FlowState:
    """Snapshot of one accepted flow iterate.

    The states stored in a FlowTrace, all but the final one, carry no
    patch (see FlowTrace).
    ``rejections`` names, in trial order, why each line-search trial of
    the step that produced this state was rejected: "energy" (no strict
    decrease) or the class name of the ValueError the trial raised.
    """

    patch: ImmersionPatch | None
    energy: float
    ps: float
    conformal_defect: float
    tau: float              # accepted step size (0.0 for the initial state)
    stalled: bool = False   # no energy-decreasing step was found
    rejections: tuple[str, ...] = ()


def _accept(patch: ImmersionPatch, bundle: GeometryBundle, energy: float, tau: float,
            rejections: tuple[str, ...] = ()) -> FlowState:
    return FlowState(
        patch=patch,
        energy=energy,
        ps=bundle.derived(ps_norm),
        conformal_defect=bundle.derived(conformal_defect),
        tau=tau,
        rejections=rejections,
    )


def _state_from_patch(patch: ImmersionPatch) -> tuple[FlowState, GeometryBundle]:
    bundle = make_bundle(patch)
    return _accept(patch, bundle, willmore_energy(bundle), 0.0), bundle


def step(state: FlowState, vel: np.ndarray, tau0: float) -> tuple[FlowState, GeometryBundle | None]:
    """One backtracking descent step from an accepted state along vel, the ``descent_velocity`` of its bundle.

    Halves the trial step from tau0 (positive and finite, else ValueError) until the energy strictly
    decreases and returns the accepted state and its trial's bundle; returns the state flagged stalled
    and None when tau drops below 1e-12 * tau0.
    A trial whose bundle (admitted by the metric rule of every patch), energy, Q or ps_norm raises a
    ValueError (geometry and solver failures are ValueErrors) is rejected like one whose energy does
    not decrease.
    """
    if not 0.0 < tau0 < np.inf:  # NaN and inf would stall without a trial
        raise ValueError(f"trial step tau0 must be positive and finite, got {tau0}")
    rejections = []
    tau = tau0
    while tau > _MIN_STEP_FACTOR * tau0:
        candidate = state.patch.with_phi(state.patch.phi + tau * vel)
        try:
            trial = make_bundle(candidate)
            energy = willmore_energy(trial)
            if energy < state.energy:
                return _accept(candidate, trial, energy, tau, tuple(rejections)), trial
            rejections.append("energy")
        except ValueError as exc:
            rejections.append(type(exc).__name__)
        trial = None  # a rejected trial's bundle goes before the next trial's is built
        tau *= 0.5
    return replace(state, tau=0.0, stalled=True, rejections=tuple(rejections)), None


@dataclass(frozen=True)
class FlowTrace:
    """Accepted states of one descent run, energies non-increasing.

    Every state keeps its scalars (energy, ps, conformal defect, tau,
    stalled, rejections); only the final state keeps its patch, so a
    trace holds one patch however long the run.  ``step`` returns the
    iterates themselves.  The states are the one record of rejected
    trials; ``rejections`` counts them.
    """

    states: tuple[FlowState, ...]
    stopped_by: str   # "threshold" | "stalled" | "max_iters" | "degenerate"

    @property
    def rejections(self) -> dict[str, int]:
        return dict(Counter(r for s in self.states for r in s.rejections))

    @property
    def initial(self) -> FlowState:
        return self.states[0]

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.states])


def run(patch: ImmersionPatch, max_iters: int = 500, stop_ratio: float = 0.0) -> FlowTrace:
    """Iterate descent steps from patch until the stop threshold, stall, or
    max_iters.

    The run stops by "threshold" once ps_norm is at most ``stop_ratio`` times
    the initial state's, also on the state that ends the max_iters budget; a
    threshold that is not positive (a ratio of 0, or an initial ps_norm of 0)
    disables it.  The first line search starts at
    tau = 1; afterwards the trial step is twice the last accepted one, so the
    search stays near its acceptance boundary.  A collapsing conformal factor
    (e^lambda below 1e-8 of its initial maximum) ends the run, stopped_by
    "degenerate", after that state.
    """
    state, bundle = _state_from_patch(patch)
    stop = stop_ratio * state.ps
    elam_floor = 1e-8 * float(np.max(bundle.elam))
    states, stopped, tau_try = [], None, 1.0
    while stopped is None:
        if stop > 0.0 and state.ps <= stop:
            stopped = "threshold"
        elif len(states) >= max_iters:
            stopped = "max_iters"
        else:
            states.append(replace(state, patch=None))
            # the direction comes from the accepted bundle's div Q; the bundle goes before the line search
            vel, bundle = descent_velocity(bundle), None
            state, bundle = step(state, vel, tau_try)
            if state.stalled:
                stopped = "stalled"
            elif float(np.min(bundle.elam)) < elam_floor:
                stopped = "degenerate"
            tau_try = 2.0 * state.tau
    states.append(state)
    energies = [s.energy for s in states]
    if any(b > a for a, b in zip(energies, energies[1:])):
        raise RuntimeError("energy trace must be non-increasing")
    return FlowTrace(tuple(states), stopped)
