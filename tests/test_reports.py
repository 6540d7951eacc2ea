"""Report contract: stable keys, exemption semantics, ratio sentinels."""

import contextlib
import functools
import gc
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from willmore_lab import cli
from willmore_lab import confwillmore as cw
from willmore_lab import conservation as cons
from willmore_lab import immersion as im
from willmore_lab import reports as rp
from willmore_lab.diskgrid import Grid, SolverError, interior_sup

G33 = Grid(0.5, 33)
G65 = Grid(0.5, 65)


@contextlib.contextmanager
def pool_of(workers):
    """A pool of ``workers`` threads (None: no pool).  Closing it cancels queued
    tasks, so a report stuck waiting on one fails its timeout and the test
    run goes on."""
    if not workers:
        yield None
        return
    pool = ThreadPoolExecutor(workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="module")
def sphere_report():
    return rp.residual_report(im.make_surface("sphere", G65, rho=1.0))


def test_all_contract_keys_present(sphere_report):
    assert set(rp.DEFAULT_THRESHOLDS) <= set(sphere_report)
    # the insertion order is part of the contract: tools/output_hashes.py hashes .values()
    assert list(sphere_report) == [
        "dot_identity", "wedge_identity", "divQ_inf", "L_defect", "L0_consistency", "f_inf", "f_holo_defect",
        "cw_resid_f", "cw_resid_zero", "cwbis_resid", "S_defect", "R_defect", "srS_resid", "srR_resid",
        "phi_identity", "a4_resid", "a5_resid", "codazzi_resid", "gradn_energy", "conformal_defect",
        "willmore_energy"]


def counting(monkeypatch, fn):
    """Wrap every binding of the derived-entry function fn in the conservation, confwillmore,
    immersion and reports modules (the wrapper shares fn's entry); returns the list its calls append to."""
    calls = []

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for module in (cons, cw, im, rp):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)
    return calls


#: the derived entries a report-built bundle drops once no stage left may read them
DROPPED = (im.tracefree_H0, im.complex_frame, cons._H0cH, cons.dz_L0_closed_form, cons._grad_H, cons._pin_grad_H,
           cons.assemble_Q, cons._div_Q, cw._cw_lhs, cons._grad_gauss, cw.extract_A_f, rp._potentials)


@pytest.mark.parametrize("workers", [None, 1, 2], ids=["no-pool", "pool-1", "pool-2"])
def test_report_computes_shared_quantities_once(monkeypatch, workers):
    # an entry dropped while a stage may still read it would be computed a second time; L, which the L
    # stage alone reads, is no entry and is recovered once too
    fns = DROPPED + (cons.recover_L, cons.surface_scale)
    calls = {fn.__name__: counting(monkeypatch, fn) for fn in fns}
    with pool_of(workers) as pool:
        rp.residual_report(im.make_surface("sphere", G65, rho=1.0), pool)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)


@pytest.mark.parametrize("workers", [None, 1, 2, 4], ids=["no-pool", "pool-1", "pool-2", "pool-4"])
def test_report_drops_entries_of_the_bundle_it_builds_only(monkeypatch, workers):
    # reader counts are shared by the pool's workers: with more workers than cores and a short
    # switch interval, a lost update would leave an entry held or drop it while a stage still reads it
    built, make_bundle = [], rp.make_bundle

    def recording_make_bundle(patch):
        built.append(make_bundle(patch))
        return built[-1]

    monkeypatch.setattr(rp, "make_bundle", recording_make_bundle)
    patch = im.make_surface("graph_perturbation", G33, m=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pool_of(workers) as pool:
            if pool:
                pool.submit(rp.residual_report, patch, pool).result(timeout=120)
            else:
                rp.residual_report(patch)
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 1
    assert [fn.__name__ for fn in DROPPED if fn in built[0]._memo] == []


def test_stage_table_writes_every_key_once(sphere_report):
    keys = [key for stage in rp.STAGES for key in stage.keys]
    assert sorted(keys) == sorted(sphere_report)
    assert {key: keys.count(key) for key in rp.DEFAULT_THRESHOLDS} == dict.fromkeys(rp.DEFAULT_THRESHOLDS, 1)
    assert {stage.group for stage in rp.STAGES} == set(rp.GROUPS)
    # every entry a stage lists is a derived entry the report can drop
    assert {fn for stage in rp.STAGES for fn in stage.entries} == set(DROPPED)


def raw_values(patch):
    """Every report key's raw value, from the public stage functions on a bundle of its own, and its scale."""
    b = im.make_bundle(patch)
    cdata = cw.extract_A_f(b)
    sr = cons.build_S_R(b, cdata.L)
    rows = {
        ("dot_identity", "wedge_identity"): cons.tangency_identities(b),
        ("divQ_inf",): (interior_sup(b.grid, cons.willmore_residual(b)),),
        ("L_defect",): (cons.recover_L(b).defect,),
        ("L0_consistency",): (cons.assemble_L0(b),),
        ("f_inf", "f_holo_defect"): (interior_sup(b.grid, cdata.f), cdata.holomorphy_defect),
        ("cw_resid_f", "cw_resid_zero"): [interior_sup(b.grid, cw.conformal_willmore_residual(b, f))
                                          for f in (cdata.f, 0.0)],
        ("cwbis_resid",): (cw.eq13_residual(b, cdata.f, cdata.L),),
        ("S_defect", "R_defect"): (sr.S_defect, sr.R_defect),
        ("srS_resid", "srR_resid", "phi_identity"): cons.sr_system_residual(b, sr.S, sr.R),
        ("a4_resid", "a5_resid"): cw.frame_derivative_residuals(b),
        ("codazzi_resid",): (cw.codazzi_residual(b),),
        ("gradn_energy", "conformal_defect", "willmore_energy"):
            (cw.gauss_map_energy(b), im.conformal_defect(b), im.willmore_energy(b)),
    }
    values = {key: value for keys, row in rows.items() for key, value in zip(keys, row, strict=True)}
    return values, cons.surface_scale(b)


@pytest.mark.parametrize("kind,m", [("sphere", 3), ("graph_perturbation", 6)])
def test_scaled_rows_divide_raw_values_by_the_surface_scale(kind, m):
    # the one normalization rule: a scaled row's keys are its raw values over the surface scale, an
    # absolute row's keys are its raw values, and the two kinds of row partition the report's keys
    patch = im.make_surface(kind, G33, m=m)
    report = rp.residual_report(patch)
    raw, scale = raw_values(patch)
    assert scale != 1.0
    scaled = [key for stage in rp.STAGES if stage.scaled for key in stage.keys]
    absolute = [key for stage in rp.STAGES if not stage.scaled for key in stage.keys]
    assert sorted(scaled + absolute) == sorted(report)
    assert {stage.name for stage in rp.STAGES if not stage.scaled} == {"fit_f", "divQ", "energies"}
    assert {key: report[key] for key in scaled} == {key: raw[key] / scale for key in scaled}
    assert {key: report[key] for key in absolute} == {key: raw[key] for key in absolute}


@pytest.mark.parametrize("grid", [G33, G65], ids=["n33", "n65"])
@pytest.mark.parametrize("kind, m", [("sphere", 3), ("catenoid", 3), ("enneper", 3), ("clifford_torus_patch", 4),
                                     ("graph_perturbation", 3), ("graph_perturbation", 6)])
def test_report_is_invariant_under_the_grids_reflections(kind, m, grid):
    # the FD stencils commute with reversing either grid axis: on the catalog patches every key keeps its
    # bits, and graph_perturbation moves by at most 1.0e-11 (srS_resid, m = 6, n = 65), inside the rigid-motion
    # bound 10 eps h^-4 of rounding through a fourth-order operator.  The axis swap is no such map yet
    patch = im.make_surface(kind, grid, m=m)
    report = rp.residual_report(patch.with_phi(patch.phi + 0.0))
    for reflect in (np.s_[::-1], np.s_[:, ::-1], np.s_[::-1, ::-1]):
        reflected = rp.residual_report(patch.with_phi(patch.phi[reflect] + 0.0))
        if kind == "graph_perturbation":
            bound = 10 * np.finfo(float).eps * grid.h**-4
            assert {key: reflected[key] - value for key, value in report.items()
                    if not abs(reflected[key] - value) <= bound} == {}
        else:
            assert reflected == report


def test_derived_entry_computed_once_across_threads():
    bundle = im.make_bundle(im.make_surface("sphere", G33))
    start = threading.Barrier(2)
    calls, results = [], []

    def slow(b):
        calls.append(b)
        time.sleep(0.05)  # the other thread asks while this one computes
        return object()

    def ask():
        start.wait(timeout=10)
        results.append(bundle.derived(slow))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(results) == 2 and results[0] is results[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, m", [("sphere", 3), ("graph_perturbation", 6)])
def test_pooled_report_equals_inline(kind, m, workers):
    patch = im.make_surface(kind, G33, m=m)
    inline = rp.residual_report(patch)
    with pool_of(workers) as pool:
        # like the CLI, the report runs on a worker of the pool it hands its stages to
        pooled = pool.submit(rp.residual_report, patch, pool).result(timeout=120)
    assert list(pooled) == list(inline)
    assert [np.float64(v).tobytes() for v in pooled.values()] == [np.float64(v).tobytes() for v in inline.values()]


@pytest.mark.parametrize("workers", [1, 2])
def test_pooled_report_propagates_stage_error(monkeypatch, workers):
    def failing(bundle):
        raise SolverError("codazzi stage failed", 1.0)

    monkeypatch.setattr(cw, "codazzi_residual", failing)
    patch = im.make_surface("sphere", G33)
    with pytest.raises(SolverError, match="codazzi stage failed"):
        rp.residual_report(patch)
    with pool_of(workers) as pool:
        with pytest.raises(SolverError, match="codazzi stage failed"):
            pool.submit(rp.residual_report, patch, pool).result(timeout=120)
        assert pool.submit(len, "ok").result(timeout=10) == 2


def test_report_peak_memory():
    # stages drop their temporaries after last use, so the memo plus one stage sets the peak: an m = 6,
    # n = 65 graph report on a patch the caller keeps peaks at 40.8 fields (n, n, m) above that patch
    # (46.6 from a bundle built beforehand with its whole jet, 61.7 when the stages held theirs to the end)
    patch = im.make_surface("graph_perturbation", G65, m=6)
    rp.residual_report(patch)  # warm the table and solver caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rp.residual_report(patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (G65.n**2 * 6 * 8) < 52.0


def test_report_built_from_patch_peak_memory():
    # a bundle the report builds drops each derived entry once no stage left reads it, and the
    # conservation and frame stages run before build_S_R: an m = 6, n = 129 graph report built from
    # its patch peaks at 39.5 fields (n, n, m) (57.7 when the memo was held to the end)
    grid = Grid(0.5, 129)
    patch = im.make_surface("graph_perturbation", grid, m=6)
    rp.residual_report(patch)  # warm the table and solver caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rp.residual_report(patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (grid.n**2 * 6 * 8) < 53.0


def test_report_built_from_patch_peak_memory_m3():
    # a report builds its bundle from a patch no caller keeps: the bundle holds no second-order jet and the
    # patch goes with its jet, the frame stages run before Q is formed, and the f fit forms its moments one
    # power row at a time.  An m = 3, n = 129 report peaks at 32.0 fields (n, n, 3) above the state before
    # the patch is made (41.1 with the jet held to the end and the f fit and its equations in one stage)
    grid = Grid(0.5, 129)
    rp.residual_report(im.make_surface("sphere", grid))  # warm the table and solver caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rp.residual_report(im.make_surface("sphere", grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (grid.n**2 * 3 * 8) < 37.0


def spy_first_stage(monkeypatch, check):
    """Call check(bundle) before the first stage of each report runs."""
    first = rp.STAGES[0]

    def fn(bundle):
        check(bundle)
        return first.fn(bundle)

    monkeypatch.setattr(rp, "STAGES", (first._replace(fn=fn),) + rp.STAGES[1:])


@pytest.mark.parametrize("perturbed", [False, True], ids=["analytic-jet", "fd-jet"])
def test_second_order_jet_goes_before_the_stages(monkeypatch, perturbed):
    # handed the one reference to its patch, a report frees the patch's jet (or the finite-difference
    # jet make_bundle computes) before its first stage runs
    refs, alive = [], []
    fd_jet = im.fd_jet

    def recording_fd_jet(grid, phi):
        jet = fd_jet(grid, phi)
        refs.append(weakref.ref(jet.d11))
        return jet

    monkeypatch.setattr(im, "fd_jet", recording_fd_jet)
    spy_first_stage(monkeypatch, lambda bundle: alive.append(refs[-1]() is not None))
    patches = [im.make_surface("sphere", G33)]
    if perturbed:
        patches.append(im.perturb_normal(patches.pop(), seed=1))
    else:
        refs.append(weakref.ref(patches[0].jets.d11))
    rp.residual_report(patches.pop())
    assert alive == [False]


def test_cli_hands_each_patch_to_its_report(monkeypatch, tmp_path):
    # verify makes every patch before any report starts, and holds none of them while the reports run
    refs, alive = {}, []
    patched = cli._patched

    def recording_patched(*args):
        patch = patched(*args)
        refs[patch.grid.n] = weakref.ref(patch.jets.d11)
        return patch

    monkeypatch.setattr(cli, "_patched", recording_patched)
    spy_first_stage(monkeypatch, lambda bundle: alive.append(refs[bundle.grid.n]() is not None))
    assert cli.main(["verify", "--surface", "sphere", "--n", "65", "--n", "97", "--out", str(tmp_path / "v.json")]) == 0
    assert sorted(refs) == [65, 97] and alive == [False, False]


def test_sphere_passes_default_thresholds(sphere_report):
    assert rp.check_report(sphere_report, "sphere") == {}


def test_cylinder_exemptions():
    report = rp.residual_report(im.make_surface("cylinder", G65, rho=1.0))
    assert report["divQ_inf"] == pytest.approx(0.25, rel=1e-2)
    assert rp.check_report(report, "cylinder") == {}
    # without the exemption the same report fails on the expected-nonzero keys
    failures = rp.check_report(report, "unknown-surface")
    assert "divQ_inf" in failures and "L_defect" in failures


def test_exemptions_per_surface():
    # every thresholded key fails unless the surface's record exempts it
    report = {key: 2.0 * bound for key, bound in rp.DEFAULT_THRESHOLDS.items()}
    every = set(rp.DEFAULT_THRESHOLDS)
    fully_checked = ("plane", "sphere", "catenoid", "enneper", "clifford_torus_patch", "perturbed_sphere",
                     "unknown-surface")
    expected = dict.fromkeys(fully_checked, every)
    expected.update(cylinder=every - {"divQ_inf", "L_defect"}, graph_perturbation=set())
    for kind, keys in expected.items():
        assert set(rp.check_report(report, kind)) == keys, kind


def test_informational_keys_never_fail(sphere_report):
    informational = set(sphere_report) - set(rp.DEFAULT_THRESHOLDS)
    assert informational == {"f_inf", "cw_resid_zero", "gradn_energy", "conformal_defect", "willmore_energy"}
    tight = {k: 1e-300 for k in informational}
    assert rp.check_report(sphere_report, "sphere", thresholds=tight) == {}


def test_nonfinite_value_fails():
    report = {"a4_resid": float("nan")}
    failures = rp.check_report(report, "sphere", thresholds={"a4_resid": 1.0})
    assert "a4_resid" in failures


def test_refinement_ratios_with_floor_sentinel():
    coarse = dict.fromkeys(["f_inf", *reversed(rp.DEFAULT_THRESHOLDS), "willmore_energy"], 0.0)
    fine = dict(coarse)
    coarse["a4_resid"], fine["a4_resid"] = 4e-4, 1e-4
    # a NaN on either grid reads NaN, never FLOOR or inf; an infinite value is no floor
    pairs = {"a5_resid": (0.0, np.nan), "L_defect": (np.nan, 0.0), "S_defect": (1e-13, np.inf),
             "R_defect": (np.inf, 1e-13)}
    for key, (a, b) in pairs.items():
        coarse[key], fine[key] = a, b
    rows = rp.refinement_ratios([coarse, fine])
    assert list(rows[0]) == list(rp.DEFAULT_THRESHOLDS)
    assert rows[0]["a4_resid"] == pytest.approx(4.0)
    assert rows[0]["codazzi_resid"] == rp.FLOOR
    assert np.isnan(rows[0]["a5_resid"]) and np.isnan(rows[0]["L_defect"])
    assert rows[0]["S_defect"] == 0.0 and rows[0]["R_defect"] == np.inf


def test_willmore_flags():
    # Willmore surfaces have their Willmore residual divQ_inf thresholded
    assert "divQ_inf" not in im.CATALOG["clifford_torus_patch"].exempt
    assert "divQ_inf" in im.CATALOG["cylinder"].exempt
