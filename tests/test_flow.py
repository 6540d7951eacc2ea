"""Willmore descent flow: monotonicity, stationarity, and controls."""

import gc
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from willmore_lab import cli
from willmore_lab import conservation as cons
from willmore_lab import flow as fl
from willmore_lab import immersion as im
from willmore_lab.diskgrid import Grid

G65 = Grid(0.5, 65)


def make_state(kind, **params):
    patch = im.make_surface(kind, G65, **params)
    return patch, im.make_bundle(patch)


def perturbed_catenoid(seed=0):
    return im.perturb_normal(im.make_surface("catenoid", G65), seed=seed, amplitude=0.05)


def counting(monkeypatch, name, module=fl):
    """Replace module.<name> by a wrapper; returns the list its calls append to."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
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
        assert stripped.bundle is None
        light = fl.step(stripped, tau0=1.0)
        assert light.energy == full.energy and light.ps == full.ps and light.tau == full.tau
        assert light.rejections == full.rejections
        assert np.array_equal(light.patch.phi, full.patch.phi)
        assert np.array_equal(light.bundle.derived(fl.assemble_Q), full.bundle.derived(fl.assemble_Q))

    def test_step_from_summary_keeps_the_analytic_jet(self):
        # a state made from a patch keeps that patch with its jets, so the step from its summary
        # rebuilds the bundle from the analytic jet, not from finite differences of phi
        patch = im.make_surface("graph_perturbation", Grid(0.5, 33))
        state = fl._state_from_patch(patch, 0.0)
        assert state.patch is patch
        full, light = fl.step(state, tau0=1.0), fl.step(state.summary(), tau0=1.0)
        for name in ("energy", "ps", "tau"):
            assert np.float64(getattr(light, name)).tobytes() == np.float64(getattr(full, name)).tobytes(), name
        assert light.patch.phi.tobytes() == full.patch.phi.tobytes() and light.rejections == full.rejections

    def test_accepted_state_holds_no_second_order_jet(self):
        state = fl.step(fl._state_from_patch(perturbed_catenoid(), 0.0), tau0=1.0)
        assert not state.stalled
        jet = state.bundle.jet
        assert (jet.d11, jet.d12, jet.d22) == (None, None, None)
        assert "patch" not in {f.name for f in fields(state.bundle)}

    def test_trial_failing_after_energy_decrease_is_rejected(self, monkeypatch):
        state = fl._state_from_patch(perturbed_catenoid(), 0.0)
        ref = fl.step(state, tau0=1.0)
        ps_norm = fl.ps_norm
        raised = []

        def ps_norm_failing_once(bundle):
            if not raised:
                raised.append(True)
                raise ValueError("injected")
            return ps_norm(bundle)

        monkeypatch.setattr(fl, "ps_norm", ps_norm_failing_once)
        new = fl.step(state, tau0=1.0)
        assert raised
        assert new.tau == 0.5 * ref.tau
        assert new.rejections == ref.rejections + ("ValueError",)
        assert new.energy < state.energy


class TestRun:
    def test_sphere_stops_immediately_at_floor(self):
        patch, b = make_state("sphere", rho=1.0)
        floor = fl.ps_norm(b)
        trace = fl.run(patch, max_iters=50, stop_ratio=1.01)
        assert trace.initial.ps == floor
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
        trace = fl.run(patch, max_iters=500, stop_ratio=0.5)
        assert trace.initial.ps == ps0
        assert trace.stopped_by == "threshold"
        assert trace.final.ps <= 0.5 * ps0
        assert len(trace.states) < 500

    def test_conformality_drift_recorded_not_repaired(self):
        patch = im.perturb_normal(im.make_surface("catenoid", G65), seed=0, amplitude=0.05)
        trace = fl.run(patch, max_iters=20)
        defects = [s.conformal_defect for s in trace.states]
        assert all(d > 0.0 for d in defects)

    def test_Q_and_ps_once_per_accepted_state(self, monkeypatch):
        # every Q the flow uses is conservation's derived entry (through div Q)
        assemble_calls = counting(monkeypatch, "assemble_Q", cons)
        ps_calls = counting(monkeypatch, "ps_norm")
        trace = fl.run(perturbed_catenoid(), max_iters=10)
        assert len(trace.states) == 11
        assert len(assemble_calls) == len(trace.states)
        assert len(ps_calls) == len(trace.states)

    def test_matches_eager_reference_line_search(self, monkeypatch):
        # the trace keeps scalars and the final patch; the iterates come from step
        iterates = []
        step = fl.step

        def recording_step(*args, **kwargs):
            iterates.append(step(*args, **kwargs))
            return iterates[-1]

        monkeypatch.setattr(fl, "step", recording_step)
        patch = perturbed_catenoid()
        trace = fl.run(patch, max_iters=10)
        ref = eager_run(patch, max_iters=10)
        assert len(trace.states) == len(ref) == len(iterates) + 1
        for got, want in zip(trace.states, ref):
            assert got.energy == want["energy"]
            assert got.ps == want["ps"]
            assert got.tau == want["tau"]
        for got, want in zip(iterates, ref[1:]):
            assert got.energy == want["energy"] and got.tau == want["tau"]
            assert np.array_equal(got.patch.phi, want["patch"].phi)
        assert np.array_equal(trace.final.patch.phi, ref[-1]["patch"].phi)

    def test_trace_memory_does_not_grow_with_length(self, monkeypatch):
        # a trace retains per-state scalars and one patch: 25 more iterations
        # must not retain even one more phi array
        last = []
        step = fl.step

        def recording_step(*args, **kwargs):
            last[:] = [step(*args, **kwargs)]
            return last[0]

        monkeypatch.setattr(fl, "step", recording_step)
        patch = perturbed_catenoid()
        fl.run(patch, max_iters=2)  # warm the caches
        retained = {}
        for iters in (5, 30):
            gc.collect()
            tracemalloc.start()
            try:
                trace = fl.run(patch, max_iters=iters)
                gc.collect()
                retained[iters] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(trace.states) == iters + 1
            assert trace.final.patch is last[0].patch
            assert all(s.patch is None and s.bundle is None for s in trace.states[:-1])
            del trace
        assert abs(retained[30] - retained[5]) < patch.phi.nbytes

    def test_run_peak_memory(self):
        # state and trial bundles keep no second-order jet: 10 iterations from the perturbed catenoid peak
        # at 46.6 fields (n, n, 3) above the patch (52.5 when each bundle kept its whole jet)
        patch = perturbed_catenoid(seed=1)
        fl.run(patch, max_iters=10)  # warm the solver caches
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fl.run(patch, max_iters=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (G65.n**2 * 3 * 8) < 49.5

    def test_rejections_account_for_every_trial(self, monkeypatch):
        # each accepted state names why each trial its step built a bundle for was rejected: all but the last
        in_step, builds, returned = [], [], []
        step, make_bundle = fl.step, fl.make_bundle

        def tracked_step(*args, **kwargs):
            in_step.append(True)
            builds.append(0)
            try:
                returned.append(step(*args, **kwargs))
                return returned[-1]
            finally:
                in_step.pop()

        def tracked_make_bundle(patch):
            if in_step:
                builds[-1] += 1
            return make_bundle(patch)

        monkeypatch.setattr(fl, "step", tracked_step)
        monkeypatch.setattr(fl, "make_bundle", tracked_make_bundle)
        trace = fl.run(perturbed_catenoid(), max_iters=5)
        assert trace.stopped_by == "max_iters"
        assert not any(s.stalled for s in returned)
        assert [s.rejections for s in trace.states[1:]] == [s.rejections for s in returned]
        assert [len(s.rejections) for s in returned] == [b - 1 for b in builds]
        assert any(s.rejections for s in returned)  # the line search did reject trials
        assert set(trace.rejections) <= {"energy", "DegenerateImmersionError", "FrameError",
                                         "SolverError", "ValueError"}

    def test_initial_bundle_goes_after_the_first_step(self, monkeypatch, tmp_path):
        # the flow command builds no bundle of its own, and the run drops the initial one once a step has
        # replaced its state, so a trial holds two bundles (state and trial), not three
        refs, alive, in_step = [], [], []
        make_bundle, step = fl.make_bundle, fl.step

        def recording_make_bundle(patch):
            bundle = make_bundle(patch)
            if not in_step:
                refs.append(weakref.ref(bundle))
            return bundle

        def checking_step(*args, **kwargs):
            alive.append(refs[0]() is not None)
            in_step.append(True)
            try:
                return step(*args, **kwargs)
            finally:
                in_step.pop()

        def unused(*args):
            raise AssertionError("the flow command builds no bundle and solves for no ps_norm of its own")

        monkeypatch.setattr(fl, "make_bundle", recording_make_bundle)
        monkeypatch.setattr(fl, "step", checking_step)
        monkeypatch.setattr(cli, "make_bundle", unused)
        monkeypatch.setattr(cli, "ps_norm", unused)
        assert cli.main(["flow", "--surface", "perturbed-catenoid:seed=0,amplitude=0.05", "--n", "65",
                         "--stop-ratio", "0.2", "--max-iters", "3", "--out", str(tmp_path / "flow.csv")]) == 0
        assert len(refs) == 1 and alive == [True, False, False]

    def test_energy_increase_raises(self, monkeypatch):
        def uphill(state, tau0):
            return replace(state, energy=state.energy + 1.0, tau=tau0)

        monkeypatch.setattr(fl, "step", uphill)
        with pytest.raises(RuntimeError, match="non-increasing"):
            fl.run(perturbed_catenoid(), max_iters=2)

    def test_trace_csv(self, tmp_path):
        # the flow command writes the trace table: one row per accepted state, in full precision
        trace = fl.run(perturbed_catenoid(), max_iters=5)
        path = tmp_path / "trace.csv"
        assert cli.main(["flow", "--surface", "perturbed-catenoid:seed=0,amplitude=0.05",
                         "--n", "65", "--max-iters", "5", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,energy,ps_norm,conformal_defect,tau"
        assert len(lines) == len(trace.states) + 1
        for i, (line, s) in enumerate(zip(lines[1:], trace.states)):
            assert line.split(",") == [str(i), f"{s.energy:.17g}", f"{s.ps:.17g}",
                                       f"{s.conformal_defect:.17g}", f"{s.tau:.17g}"]


def test_flow_computes_no_report_only_entry(monkeypatch):
    # the flow reads H, |H|^2 and Q; H0, the complex frame, K, |B|^2 and the
    # surface scale serve reports only and stay uncomputed on every flow bundle
    computed = []
    derived = im.GeometryBundle.derived

    def recording(self, fn):
        if fn not in self._memo:
            computed.append(fn)
        return derived(self, fn)

    monkeypatch.setattr(im.GeometryBundle, "derived", recording)
    patch = im.perturb_normal(im.make_surface("catenoid", Grid(0.5, 33)), seed=0, amplitude=0.05)
    fl.run(patch, max_iters=2)
    assert cons.assemble_Q in computed and im.norm_H2 in computed
    report_only = {im.tracefree_H0, im.complex_frame, im.gaussian_curvature, im.norm_B2, cons.surface_scale}
    assert report_only.isdisjoint(computed)
