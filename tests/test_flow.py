"""Willmore descent flow: monotonicity, stationarity, and controls."""

from dataclasses import replace

import numpy as np
import pytest

from willmore_lab import flow as fl
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid

G65 = Grid(0.5, 65)


def make_state(kind, **params):
    patch = im.make_surface(kind, G65, **params)
    return patch, im.make_bundle(patch)


def perturbed_catenoid(seed=0):
    return im.perturb_normal(im.make_surface("catenoid", G65), seed=seed, amplitude=0.05)


def counting(monkeypatch, name):
    """Replace fl.<name> by a wrapper; returns the list its calls append to."""
    calls = []
    inner = getattr(fl, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(fl, name, wrapper)
    return calls


def eager_run(patch, max_iters, tau0=1.0):
    """Reference line search that builds bundle, energy and ps_norm for
    every trial and assembles Q afresh for every direction."""
    def full(p, tau):
        b = im.make_bundle(p)
        return {"patch": p, "energy": im.willmore_energy(b), "ps": fl.ps_norm(b), "tau": tau, "bundle": b}

    state = full(patch, 0.0)
    states = [state]
    tau_try = tau0
    for _ in range(max_iters):
        vel = fl.descent_velocity(state["bundle"])
        tau = tau_try
        while tau > fl._MIN_STEP_FACTOR * tau_try:
            candidate = state["patch"].with_phi(state["patch"].phi + tau * vel)
            try:
                new = full(candidate, tau)
            except (im.DegenerateImmersionError, im.FrameError, fl.dg.SolverError, ValueError):
                tau *= 0.5
                continue
            if new["energy"] < state["energy"]:
                break
            tau *= 0.5
        else:
            raise AssertionError("reference line search stalled")
        state = new
        states.append(state)
        tau_try = 2.0 * tau
    return states


class TestPsNorm:
    def test_plane_zero(self):
        _, b = make_state("plane")
        assert fl.ps_norm(b) < 1e-14

    def test_sphere_discretization_floor_converges(self):
        vals = []
        for n in (65, 129):
            g = Grid(0.5, n)
            b = im.make_bundle(im.make_surface("sphere", g, rho=1.0))
            vals.append(fl.ps_norm(b))
        assert vals[1] < vals[0]
        assert vals[1] < 1e-3

    def test_perturbation_exceeds_floor_tenfold(self):
        _, b_plane = make_state("graph_perturbation", seed=7, amplitude=0.05)
        _, b_sphere = make_state("sphere", rho=1.0)
        assert fl.ps_norm(b_plane) > 10.0 * fl.ps_norm(b_sphere)


class TestStep:
    def test_plane_is_stationary(self):
        patch, b = make_state("plane")
        vel = fl.descent_velocity(b)
        assert np.max(np.abs(vel)) < 1e-14
        state = fl._state_from_patch(patch, 0.0)
        new = fl.step(state, tau0=1.0)
        assert new.stalled
        assert new.energy == state.energy

    def test_zero_trial_step_rejected(self):
        patch, _ = make_state("plane")
        state = fl._state_from_patch(patch, 0.0)
        with pytest.raises(ValueError):
            fl.step(state, tau0=0.0)
        with pytest.raises(ValueError):
            fl.step(state, tau0=-1.0)

    def test_first_step_decreases_energy_on_perturbation(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        state = fl._state_from_patch(patch, 0.0)
        new = fl.step(state, tau0=1.0)
        assert not new.stalled
        assert new.energy < state.energy
        assert new.tau > 0.0

    def test_raw_direction_also_descends(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        state = fl._state_from_patch(patch, 0.0)
        new = fl.step(state, tau0=1e-4, precondition="none")
        assert not new.stalled
        assert new.energy < state.energy

    def test_frozen_boundary_ring(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=1, amplitude=0.05)
        state = fl._state_from_patch(patch, 0.0)
        new = fl.step(state, tau0=1.0)
        diff = np.abs(new.patch.phi - patch.phi)
        assert np.max(diff[:2]) == 0.0 and np.max(diff[-2:]) == 0.0
        assert np.max(diff[:, :2]) == 0.0 and np.max(diff[:, -2:]) == 0.0

    def test_step_from_summary_matches_full_state(self):
        state = fl._state_from_patch(perturbed_catenoid(), 0.0)
        full = fl.step(state, tau0=1.0)
        stripped = state.summary()
        assert stripped.bundle is None and stripped.Q is None
        light = fl.step(stripped, tau0=1.0)
        assert light.energy == full.energy and light.ps == full.ps and light.tau == full.tau
        assert light.rejections == full.rejections
        assert np.array_equal(light.patch.phi, full.patch.phi)
        assert np.array_equal(light.Q, full.Q)

    def test_trial_failing_after_energy_decrease_is_rejected(self, monkeypatch):
        state = fl._state_from_patch(perturbed_catenoid(), 0.0)
        ref = fl.step(state, tau0=1.0)
        ps_norm = fl.ps_norm
        raised = []

        def ps_norm_failing_once(bundle, Q=None):
            if not raised:
                raised.append(True)
                raise ValueError("injected")
            return ps_norm(bundle, Q)

        monkeypatch.setattr(fl, "ps_norm", ps_norm_failing_once)
        new = fl.step(state, tau0=1.0)
        assert raised
        assert new.tau == 0.5 * ref.tau
        assert new.rejections == ref.rejections + ("ValueError",)
        assert new.energy < state.energy

    def test_unknown_preconditioner(self):
        _, b = make_state("plane")
        with pytest.raises(ValueError):
            fl.descent_velocity(b, precondition="magic")


class TestRun:
    def test_sphere_stops_immediately_at_floor(self):
        patch, b = make_state("sphere", rho=1.0)
        floor = fl.ps_norm(b)
        trace = fl.run(patch, max_iters=50, stop=1.01 * floor)
        assert len(trace.states) == 1
        assert trace.stopped_by == "threshold"

    def test_energies_non_increasing(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        trace = fl.run(patch, max_iters=25)
        energies = trace.energies()
        assert np.all(np.diff(energies) <= 0.0)
        assert len(trace.states) == 26

    def test_descent_reduces_stationarity_norm(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        trace = fl.run(patch, max_iters=80)
        assert trace.final.ps < 0.5 * trace.initial.ps
        assert trace.final.energy < 0.2 * trace.initial.energy

    def test_threshold_stop(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        ps0 = fl.ps_norm(im.make_bundle(patch))
        trace = fl.run(patch, max_iters=500, stop=0.5 * ps0)
        assert trace.stopped_by == "threshold"
        assert trace.final.ps <= 0.5 * ps0
        assert len(trace.states) < 500

    def test_conformality_drift_recorded_not_repaired(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        trace = fl.run(patch, max_iters=20)
        defects = [s.conformal_defect for s in trace.states]
        assert all(d > 0.0 for d in defects)

    def test_Q_and_ps_once_per_accepted_state(self, monkeypatch):
        assemble_calls = counting(monkeypatch, "assemble_Q")
        ps_calls = counting(monkeypatch, "ps_norm")
        trace = fl.run(perturbed_catenoid(), max_iters=10)
        assert len(trace.states) == 11
        assert len(assemble_calls) == len(trace.states)
        assert len(ps_calls) == len(trace.states)

    def test_matches_eager_reference_line_search(self):
        patch = perturbed_catenoid()
        trace = fl.run(patch, max_iters=10)
        ref = eager_run(patch, max_iters=10)
        assert len(trace.states) == len(ref)
        for got, want in zip(trace.states, ref):
            assert got.energy == want["energy"]
            assert got.ps == want["ps"]
            assert got.tau == want["tau"]
            assert np.array_equal(got.patch.phi, want["patch"].phi)

    def test_rejections_account_for_every_trial(self, monkeypatch):
        in_step = []
        step_builds = []
        step, make_bundle = fl.step, fl.make_bundle

        def tracked_step(*args, **kwargs):
            in_step.append(True)
            try:
                return step(*args, **kwargs)
            finally:
                in_step.pop()

        def tracked_make_bundle(patch):
            if in_step:
                step_builds.append(patch)
            return make_bundle(patch)

        monkeypatch.setattr(fl, "step", tracked_step)
        monkeypatch.setattr(fl, "make_bundle", tracked_make_bundle)
        trace = fl.run(perturbed_catenoid(), max_iters=5)
        assert trace.stopped_by == "max_iters"
        accepted = len(trace.states) - 1
        assert accepted + sum(trace.rejections.values()) == len(step_builds)
        assert set(trace.rejections) <= {"energy", "DegenerateImmersionError", "FrameError",
                                         "SolverError", "ValueError"}
        assert sum(trace.rejections.values()) == sum(len(s.rejections) for s in trace.states)

    def test_energy_increase_raises(self, monkeypatch):
        def uphill(state, tau0, precondition="bilaplacian"):
            return replace(state, energy=state.energy + 1.0, tau=tau0)

        monkeypatch.setattr(fl, "step", uphill)
        with pytest.raises(RuntimeError, match="non-increasing"):
            fl.run(perturbed_catenoid(), max_iters=2)

    def test_trace_csv(self, tmp_path):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        trace = fl.run(patch, max_iters=5)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,energy,ps_norm,conformal_defect,tau"
        assert len(lines) == len(trace.states) + 1
