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
ps_norm are computed once, for accepted states only.  A state is its
scalars.  A run keeps the running patch and one trial at a time; its
trace keeps per-state scalars and the final patch only, so its memory
does not grow with the number of iterations (``step`` returns each
iterate's patch and bundle beside its state, for a caller that wants them).

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
    """Scalars of one flow iterate; its patch travels beside it
    (``step`` takes and returns it, ``FlowTrace.patch`` is the final one).
    ``rejections`` names, in trial order, why each line-search trial of
    the step that produced this state was rejected: "energy" (no strict
    decrease) or the class name of the ValueError the trial raised.
    """

    energy: float
    ps: float
    conformal_defect: float
    tau: float              # accepted step size (0.0 for the initial state and a stalled step)
    rejections: tuple[str, ...] = ()


def _accept(bundle: GeometryBundle, energy: float, tau: float, rejections: tuple[str, ...] = ()) -> FlowState:
    return FlowState(
        energy=energy,
        ps=bundle.derived(ps_norm),
        conformal_defect=bundle.derived(conformal_defect),
        tau=tau,
        rejections=rejections,
    )


def _state_from_patch(patch: ImmersionPatch) -> tuple[FlowState, GeometryBundle]:
    bundle = make_bundle(patch)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as a ValueError
        state = _accept(bundle, willmore_energy(bundle), 0.0)
    if not (np.isfinite(state.energy) and np.isfinite(state.ps)):
        raise ValueError(f"flow cannot start on {patch.label}: its Willmore energy or ps norm is not finite")
    return state, bundle


def step(state: FlowState, patch: ImmersionPatch, vel: np.ndarray,
         tau0: float) -> tuple[FlowState, ImmersionPatch, GeometryBundle | None]:
    """One backtracking descent step from an accepted state and its patch along vel, its bundle's ``descent_velocity``.

    Halves the trial step from tau0 (positive and finite, else ValueError) until the energy strictly
    decreases and returns the accepted state, its trial's patch and that trial's bundle; once tau drops
    below 1e-12 * tau0 it stalls, returning the given state with tau 0.0 and its rejections, the given patch and None.
    A trial whose bundle (admitted by the metric rule of every patch), energy, Q or ps_norm raises a
    ValueError (geometry and solver failures are ValueErrors) is rejected like one whose energy does
    not decrease.
    """
    if not 0.0 < tau0 < np.inf:  # NaN and inf would stall without a trial
        raise ValueError(f"trial step tau0 must be positive and finite, got {tau0}")
    rejections = []
    tau = tau0
    while tau > _MIN_STEP_FACTOR * tau0:
        candidate = patch.with_phi(patch.phi + tau * vel)
        try:
            trial = make_bundle(candidate)
            energy = willmore_energy(trial)
            if energy < state.energy:
                return _accept(trial, energy, tau, tuple(rejections)), candidate, trial
            rejections.append("energy")
        except ValueError as exc:
            rejections.append(type(exc).__name__)
        trial = None  # a rejected trial's bundle goes before the next trial's is built
        tau *= 0.5
    return replace(state, tau=0.0, rejections=tuple(rejections)), patch, None


@dataclass(frozen=True)
class FlowTrace:
    """Accepted states of one descent run, energies non-increasing, and the
    final iterate's patch.  A state is its scalars, so a trace holds one
    patch however long the run; ``step`` returns the iterates themselves.
    The states are the one record of rejected trials; ``rejections`` counts
    them.
    """

    states: tuple[FlowState, ...]
    stopped_by: str   # "threshold" | "stalled" | "max_iters" | "degenerate"
    patch: ImmersionPatch

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
    disables it.  The first line search starts at tau = 1; afterwards the
    trial step is twice the last accepted one, so the search stays near its
    acceptance boundary.  A collapsing conformal factor (e^lambda below 1e-8
    of its initial maximum) ends the run, stopped_by "degenerate", after that
    state.  ValueError if the initial energy or ps_norm is not finite.
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
            states.append(state)
            # the direction comes from the accepted bundle's div Q; the bundle goes before the line search
            vel, bundle = descent_velocity(bundle), None
            state, patch, bundle = step(state, patch, vel, tau_try)
            if bundle is None:
                stopped = "stalled"
            elif float(np.min(bundle.elam)) < elam_floor:
                stopped = "degenerate"
            tau_try = 2.0 * state.tau
    states.append(state)
    energies = [s.energy for s in states]
    if any(b > a for a, b in zip(energies, energies[1:])):
        raise RuntimeError("energy trace must be non-increasing")
    return FlowTrace(tuple(states), stopped, patch)
