"""CLI orchestration: exit codes, report schema, determinism, file formats."""

import contextlib
import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from willmore_lab import cli
from willmore_lab import diskgrid as dg
from willmore_lab import flow as fl
from willmore_lab import reports as rp
from willmore_lab.diskgrid import Grid


def run_cli(args):
    return cli.main(args)


class TestVerify:
    def test_plane_passes_with_tiny_residuals(self, tmp_path):
        out = tmp_path / "plane.json"
        rc = run_cli(["verify", "--surface", "plane", "--n", "65", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["pass"] is True
        keys = payload["items"][0]["keys"]
        checked = [k for k in keys if k in rp.DEFAULT_THRESHOLDS]
        assert all(keys[k] <= 1e-10 for k in checked)

    def test_cylinder_expected_nonzero_keys_exempted(self, tmp_path):
        out = tmp_path / "cyl.json"
        rc = run_cli(["verify", "--surface", "cylinder:rho=1.0", "--n", "65", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        keys = payload["items"][0]["keys"]
        assert keys["divQ_inf"] == pytest.approx(0.25, rel=1e-2)
        assert keys["f_inf"] == pytest.approx(0.5, rel=1e-2)

    def test_threshold_violation_nonzero_exit(self, tmp_path):
        tf = tmp_path / "strict.json"
        tf.write_text(json.dumps({"a4_resid": 1e-30}))
        rc = run_cli([
            "verify", "--surface", "sphere:rho=1.0", "--n", "65",
            "--out", str(tmp_path / "r.json"), "--threshold-file", str(tf),
        ])
        assert rc == 1
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["pass"] is False
        assert "a4_resid" in payload["items"][0]["failures"]

    def test_csv_rows_contract(self, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "rows.csv"
        run_cli(["verify", "--surface", "plane", "--n", "65",
                 "--out", str(out), "--csv", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "surface,m,n,key,value"
        assert any(",dot_identity," in line for line in lines)

    def test_determinism_modulo_timestamp(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            run_cli(["verify", "--surface", "sphere:rho=1.0", "--n", "33", "--out", str(out)])
            payload = json.loads(out.read_text())
            payload.pop("timestamp")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_output_independent_of_thread_count(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WILLMORE_LAB_THREADS", threads)
            out, rows = tmp_path / f"{threads}.json", tmp_path / f"{threads}.csv"
            run_cli(["verify", "--surface", "graph_perturbation", "--m", "6", "--n", "33", "--n", "65",
                     "--out", str(out), "--csv", str(rows)])
            text = re.sub(r'\n *"timestamp": "[^"]*",?', "", out.read_text())
            outs.append((text, rows.read_bytes()))
        assert outs[0] == outs[1]

    def test_even_n_rejected(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        rc = run_cli(["verify", "--surface", "plane", "--n", "64", "--out", str(out)])
        assert rc == 2
        assert "n=64" in capsys.readouterr().err
        assert not out.exists()


class TestRefine:
    def test_sphere_ratio_table(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = run_cli(["refine", "--surface", "sphere:rho=1.0", "--n", "65", "--n", "129",
                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "surface,m,n_coarse,n_fine,key,ratio"
        a4 = [ln for ln in lines if ",a4_resid," in ln]
        assert len(a4) == 1
        ratio = float(a4[0].split(",")[-1])
        assert 3.0 <= ratio <= 5.2

    def test_exact_zero_keys_report_floor(self, tmp_path):
        out = tmp_path / "plane.csv"
        run_cli(["refine", "--surface", "plane", "--n", "65", "--n", "129", "--out", str(out)])
        rows = [ln for ln in out.read_text().splitlines()[1:] if ln]
        floors = [ln for ln in rows if ln.endswith(rp.FLOOR)]
        assert floors  # every identically-zero key reports the sentinel

    def test_needs_two_grids(self, capsys, tmp_path):
        rc = run_cli(["refine", "--surface", "plane", "--n", "65", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("willmore-lab: error: refine needs at least two --n") and len(err.splitlines()) == 1


class TestInputBoundary:
    """Bad input ends in one stderr line and exit code 2, not a traceback."""

    def check_rejected(self, capsys, tmp_path, surface="plane", argv=None):
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(argv or ["verify", "--surface", surface, "--n", "33", "--out", str(out)])
        assert not caught
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("willmore-lab: error: ") and len(err.splitlines()) == 1
        assert not out.exists()
        return err

    def test_surface_value_not_json(self, capsys, tmp_path):
        assert "rho=abc" in self.check_rejected(capsys, tmp_path, "sphere:rho=abc")

    def test_surface_parameter_repeated(self, capsys, tmp_path):
        for surface in ("sphere:rho=1,rho=2", "perturbed-catenoid:seed=1,seed=2"):
            assert "given twice" in self.check_rejected(capsys, tmp_path, surface)

    def test_surface_parameter_unknown(self, capsys, tmp_path):
        # the name and the parameter values are checked against the catalog too,
        # the perturbation's bump parameters by the same rule, and the jets on the grid
        for surface, word in (("sphere:radius=2", "radius"), ("torus", "torus"),
                              ("sphere:rho=-1", "rho"), ("perturbed-torus", "torus"),
                              ("graph_perturbation:seed=1.5", "seed"), ("sphere:rho=1e400", "rho"),
                              ('perturbed-catenoid:amplitude="x"', "amplitude"),
                              ("perturbed-sphere:amplitude=1e400", "amplitude"),
                              ("perturbed-catenoid:seed=1.5", "seed"), ("sphere:rho=1e308", "not finite"),
                              ("sphere:rho=true", "rho"), ("graph_perturbation:seed=true", "seed"),
                              ("perturbed-catenoid:amplitude=false", "amplitude")):
            assert word in self.check_rejected(capsys, tmp_path, surface)

    def test_metric_overflow_rejected(self, capsys, tmp_path):
        # the sphere's |d_i Phi|^2 is about (2 rho)^2: finite samples, but the metric overflows from rho = 1e154 on
        for rho in ("1e154", "1e200", "1e300", "8e307"):
            assert "metric" in self.check_rejected(capsys, tmp_path, f"sphere:rho={rho}")

    def test_metric_underflow_rejected(self, capsys, tmp_path):
        # the sphere's |d_i Phi|^2 is about (2 rho)^2: it underflows to zero at rho = 1e-200
        assert "zero or subnormal" in self.check_rejected(capsys, tmp_path, "sphere:rho=1e-200")

    def test_small_sphere_reports(self, capsys, tmp_path):
        # a valid immersion however small, or a grid so fine that h^2 underflows: it gets a
        # report whose keys FAIL (they are not scale covariant, as README says), not a traceback;
        # its JSON is strict, a non-finite key reading "inf" or "nan"
        def strict(token):
            raise ValueError(f"{token} is no JSON value")

        out = tmp_path / "r.json"
        texts = set()
        for args, label, warns in ((["--surface", "sphere:rho=1e-13"], "sphere(rho=1e-13)", False),
                                   (["--surface", "sphere:rho=1e-100"], "sphere(rho=1e-100)", True),
                                   (["--surface", "sphere", "--s", "1e-300"], "sphere", True),
                                   (["--surface", "enneper", "--s", "1e-320"], "enneper", True),
                                   (["--surface", "cylinder:rho=1e-200"], "cylinder(rho=1e-200)", True)):
            with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
                rc = run_cli(["verify", *args, "--n", "33", "--out", str(out)])
            lines = capsys.readouterr().err.splitlines()
            assert rc == 1 and lines and all(line.startswith(f"FAIL {label} n=33: ") for line in lines)
            payload = json.loads(out.read_text(), parse_constant=strict)
            assert not payload["pass"]
            keys = payload["items"][0]["keys"].values()
            assert all(isinstance(v, float) or v in ("inf", "nan") for v in keys), label
            texts.update(v for v in keys if isinstance(v, str))
        assert texts == {"inf", "nan"}
        with pytest.warns(RuntimeWarning):
            assert run_cli(["refine", "--surface", "sphere:rho=1e-100", "--n", "33", "--n", "65"]) == 0
        ratios = json.loads(capsys.readouterr().out, parse_constant=strict)["ratios"][0]
        assert ratios["divQ_inf"] == "nan"

    def test_wente_grid_too_fine_rejected(self, capsys, tmp_path):
        # at n = 33, h^2 is subnormal for s = 1e-154 and 8/h^2 overflows for s = 3.3e-153; for
        # s = 3.4e-153 it does not, and the ratios, which do not depend on s, are those of s = 0.5
        for s in ("1e-154", "3.3e-153"):
            argv = ["wente", "--s", s, "--n", "33", "--samples", "2", "--out", str(tmp_path / "r.json")]
            assert "h^2" in self.check_rejected(capsys, tmp_path, argv=argv)
            assert not (tmp_path / "r.json.json").exists()
        rows = []
        for s in ("3.4e-153", "0.5"):
            assert run_cli(["wente", "--s", s, "--n", "33", "--samples", "2", "--out", str(tmp_path / "w.csv")]) == 0
            rows.append(np.loadtxt(tmp_path / "w.csv", delimiter=",", skiprows=1))
        np.testing.assert_allclose(rows[0], rows[1], rtol=1e-12)

    def test_huge_perturbation_rejected(self, capsys, tmp_path):
        # the bumped patch's finite-difference metric overflows: rejected before the flow starts
        argv = ["flow", "--surface", "perturbed-catenoid:amplitude=1e300", "--n", "33", "--max-iters", "3",
                "--out", str(tmp_path / "r.json")]
        assert "not finite" in self.check_rejected(capsys, tmp_path, argv=argv)

    def test_largest_finite_metric_gives_finite_keys(self, tmp_path):
        # no numpy warning either: a NaN made inside the report and dropped would raise here
        out = tmp_path / "r.json"
        for surface in ("sphere:rho=1e153", "cylinder:rho=1e154"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run_cli(["verify", "--surface", surface, "--n", "33", "--out", str(out)])
            keys = json.loads(out.read_text())["items"][0]["keys"]
            assert keys and all(np.isfinite(v) for v in keys.values())

    def test_grid_and_dimension(self, capsys, tmp_path):
        # checked in main, not in a worker thread
        for grid_args, word in ((["--n", "33", "--m", "7"], "m=7"), (["--n", "3"], "n=3"),
                                (["--n", "33", "--s", "0.9"], "s=0.9"), (["--n", "64"], "n=64"),
                                (["--n", "65", "--n", "33"], "increasing")):
            argv = ["verify", "--surface", "plane", *grid_args, "--out", str(tmp_path / "r.json")]
            assert word in self.check_rejected(capsys, tmp_path, argv=argv)

    def test_one_grid_and_samples_for_flow_and_wente(self, capsys, tmp_path):
        out = str(tmp_path / "r.csv")
        for argv, word in ((["flow", "--surface", "perturbed-catenoid", "--n", "33", "--n", "65"], "one --n"),
                           (["wente", "--n", "33", "--n", "65"], "one --n"),
                           (["wente", "--n", "33", "--samples", "0"], "samples"),
                           (["wente", "--n", "33", "--samples", "-1"], "samples"),
                           (["wente", "--n", "33", "--samples", "2", "--seed", "-5"], "--seed"),
                           (["flow", "--surface", "catenoid", "--n", "33", "--seed", "-1"], "--seed"),
                           (["flow", "--surface", "catenoid", "--n", "33", "--max-iters", "-1"], "--max-iters"),
                           (["flow", "--surface", "catenoid", "--n", "33", "--stop-ratio", "-1"], "--stop-ratio"),
                           (["flow", "--surface", "catenoid", "--n", "33", "--stop-ratio", "nan"], "--stop-ratio"),
                           (["flow", "--surface", "catenoid", "--n", "33", "--stop-ratio", "inf"], "--stop-ratio")):
            assert word in self.check_rejected(capsys, tmp_path, argv=[*argv, "--out", out])
            assert not (tmp_path / "r.csv").exists()

    def test_threshold_file(self, capsys, tmp_path):
        # read in main: a JSON object of finite, non-boolean numbers for thresholded keys, or nothing
        for name, text in (("missing.json", None), ("text.json", '{"dot_identity": "x"}'), ("list.json", "[1]"),
                           ("bool.json", '{"dot_identity": true}'), ("nan.json", '{"dot_identity": NaN}'),
                           ("broken.json", '{"dot_identity": '), ("typo.json", '{"a4_resd": 1e-30}'),
                           ("informational.json", '{"f_inf": 1.0}')):
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            argv = ["verify", "--surface", "plane", "--n", "33", "--threshold-file", str(path),
                    "--out", str(tmp_path / "r.json")]
            err = self.check_rejected(capsys, tmp_path, argv=argv)
            assert name in err
            if name in ("typo.json", "informational.json"):
                assert repr(json.loads(text).popitem()[0]) in err

    def test_field_file_and_exponent(self, capsys, tmp_path):
        good, short, stub = tmp_path / "f.bin", tmp_path / "short.bin", tmp_path / "stub.bin"
        dg.write_field(good, Grid(0.5, 33), np.ones((33, 33)))
        short.write_bytes(good.read_bytes()[:-8])
        stub.write_bytes(good.read_bytes()[:5])
        vector = tmp_path / "vector.bin"  # three values per node, as a flow checkpoint holds
        dg.write_field(vector, Grid(0.5, 33), np.ones((33, 33, 3)))
        # headers (n, s, arity) that are no valid grid, with payloads of the size they announce
        even, wide = tmp_path / "even.bin", tmp_path / "wide.bin"
        even.write_bytes(struct.pack("<qdq", 4, 0.5, 1) + np.ones(16).tobytes())
        wide.write_bytes(struct.pack("<qdq", 33, 2.0, 1) + good.read_bytes()[24:])
        for field, p, word in ((tmp_path / "missing.bin", "2", "missing.bin"), (short, "2", "short.bin"),
                               (stub, "2", "stub.bin"), (good, "1", "p=1"), (vector, "2", "vector.bin"),
                               (even, "2", "even.bin: points per side n=4"),
                               (wide, "2", "wide.bin: half-width s=2.0")):
            argv = ["lorentz", "--field", str(field), "--p", p, "--q", "inf"]
            assert word in self.check_rejected(capsys, tmp_path, argv=argv)

    def test_field_file_not_finite(self, capsys, tmp_path):
        path = tmp_path / "bad.bin"
        for sample in (np.nan, np.inf, -np.inf):
            values = np.ones((33, 33))
            values[3, 4] = sample
            dg.write_field(path, Grid(0.5, 33), values)
            argv = ["lorentz", "--field", str(path), "--p", "2", "--q", "1"]
            assert "bad.bin" in self.check_rejected(capsys, tmp_path, argv=argv)

    @pytest.mark.parametrize("argv, word", [
        (["verify", "--surface", "plane", "--n", "abc"], "--n"),
        (["verify", "--n", "33"], "--surface"),
        (["bogus", "--n", "33"], "bogus"),
        (["verify", "--surface", "plane", "--n", "33", "--bogus"], "--bogus"),
        (["verify", "--surface", "plane", "--n", "33", "--m", "x"], "--m"),
    ], ids=["n-not-int", "surface-missing", "unknown-command", "unknown-option", "m-not-int"])
    def test_argparse_errors(self, capsys, tmp_path, argv, word):
        # usage errors take the same one-line path as every other bad input
        assert word in self.check_rejected(capsys, tmp_path, argv=[*argv, "--out", str(tmp_path / "r.json")])
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["verify", "--help"])
        assert exit_info.value.code == 0 and "--surface" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify", "--surface", "plane", "--n", "33", "--out", "{gone}/x.json"],
        ["verify", "--surface", "plane", "--n", "33", "--out", "-", "--csv", "{gone}/x.csv"],
        ["wente", "--n", "33", "--samples", "1", "--out", "{gone}/w.csv"],
        ["flow", "--surface", "perturbed-catenoid", "--n", "33", "--max-iters", "1", "--checkpoint", "{gone}/c.bin"],
        ["verify", "--surface", "plane", "--n", "33", "--out", "{tmp}/part.json", "--csv", "{gone}/x.csv"],
        ["flow", "--surface", "perturbed-catenoid", "--n", "33", "--max-iters", "1", "--out", "{tmp}/t.csv",
         "--checkpoint", "{gone}/c.bin"],
    ], ids=["verify-out", "verify-csv", "wente-out", "flow-checkpoint", "verify-out-then-csv",
            "flow-out-then-checkpoint"])
    def test_output_path_not_writable(self, capsys, tmp_path, argv):
        # an output file in a missing directory is rejected before the command
        # runs, and no other output of the run is left behind
        gone = tmp_path / "missing"
        err = self.check_rejected(capsys, tmp_path, argv=[a.format(gone=gone, tmp=tmp_path) for a in argv])
        assert str(gone) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, stdout", [
        (["verify", "--surface", "plane", "--n", "33", "--out", "r.json", "--csv", "-"], "surface,m,n,key,value"),
        (["verify", "--surface", "plane", "--n", "33", "--out", "-"], "json"),
        (["refine", "--surface", "plane", "--n", "33", "--n", "65", "--out", "-"],
         "surface,m,n_coarse,n_fine,key,ratio"),
        (["verify", "--surface", "plane", "--n", "33", "--csv", "-"], None),
        (["verify", "--surface", "plane", "--n", "33", "--out", "-", "--csv", "-"], None),
        (["wente", "--n", "33", "--samples", "1", "--out", "-"], None),
        (["flow", "--surface", "perturbed-catenoid", "--n", "33", "--max-iters", "1", "--out", "-"], None),
        (["flow", "--surface", "perturbed-catenoid", "--n", "33", "--max-iters", "1", "--checkpoint", "-"], None),
    ], ids=["verify-csv", "verify-out", "refine-out", "verify-csv-no-out", "verify-out-and-csv", "wente-out",
            "flow-out", "flow-checkpoint"])
    def test_dash_is_standard_output(self, capsys, tmp_path, monkeypatch, argv, stdout):
        # "-" is standard output for every path; a run that would send two outputs there,
        # or the binary checkpoint, is rejected (stdout None) before the command runs
        monkeypatch.chdir(tmp_path)
        if stdout is None:
            monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: pytest.fail("the command ran"))
            assert "standard output (-)" in self.check_rejected(capsys, tmp_path, argv=argv)
        else:
            assert run_cli(argv) == 0
            out = capsys.readouterr().out
            if stdout == "json":
                assert json.loads(out)["command"] == argv[0]
            else:
                rows = list(csv.reader(io.StringIO(out)))
                assert ",".join(rows[0]) == stdout
                assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
        assert not (tmp_path / "-").exists() and not (tmp_path / "-.json").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--surface", "plane", "--n", "33", "--out", "r.txt", "--csv", "r.txt"],
        ["verify", "--surface", "plane", "--n", "33", "--out", "r.txt", "--csv", "./r.txt"],
        ["flow", "--surface", "perturbed-catenoid", "--n", "33", "--max-iters", "1", "--out", "t",
         "--checkpoint", "t.json"],
    ], ids=["verify-out-is-csv", "verify-out-is-dot-csv", "flow-json-is-checkpoint"])
    def test_two_outputs_one_file(self, capsys, tmp_path, monkeypatch, argv):
        # outputs whose paths resolve to one file are rejected before the command runs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: pytest.fail("the command ran"))
        assert "to the same file" in self.check_rejected(capsys, tmp_path, argv=argv)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["abc", "0", "-3"])
    def test_thread_count_not_integer(self, capsys, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("WILLMORE_LAB_THREADS", threads)
        assert f"WILLMORE_LAB_THREADS must be a positive integer, got {threads!r}" in self.check_rejected(
            capsys, tmp_path)


class TestWenteCommand:
    def test_batch_csv_and_summary(self, tmp_path):
        out = tmp_path / "wente.csv"
        rc = run_cli(["wente", "--samples", "5", "--n", "65", "--seed", "0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,ratio_L2,ratio_L21,n"
        assert len(lines) == 6
        summary = json.loads((tmp_path / "wente.csv.json").read_text())
        assert summary["samples"] == 5
        assert summary["max_ratio_L2"] > 0.0

    def test_deterministic_given_seed(self, tmp_path):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"w{tag}.csv"
            run_cli(["wente", "--samples", "3", "--n", "65", "--seed", "7", "--out", str(out)])
            texts.append(out.read_text())
        assert texts[0] == texts[1]


class TestLorentzCommand:
    def test_norm_from_field_file(self, tmp_path, capsys):
        g = Grid(0.5, 65)
        dg.write_field(tmp_path / "f.bin", g, np.ones((65, 65)))
        rc = run_cli(["lorentz", "--field", str(tmp_path / "f.bin"), "--p", "2", "--q", "inf"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(np.sqrt(65 * 65 * g.h**2), rel=1e-10)


class TestFlowCommand:
    def test_perturbed_catenoid_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = run_cli([
            "flow", "--surface", "perturbed-catenoid:seed=0,amplitude=0.05",
            "--n", "65", "--max-iters", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,energy,ps_norm,conformal_defect,tau"
        energies = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        summary = json.loads((tmp_path / "trace.csv.json").read_text())
        assert summary["final_energy"] <= summary["initial_energy"]
        assert len(energies) == summary["iterations"] + 1  # one row per accepted state

    def test_initial_geometry_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in (("make_bundle", counting(cli.make_bundle)), ("ps_norm", counting(cli.ps_norm))):
            monkeypatch.setattr(cli, name, fn)
            monkeypatch.setattr(fl, name, fn)
        rc = run_cli([
            "flow", "--surface", "perturbed-catenoid:seed=0,amplitude=0.05", "--n", "33",
            "--max-iters", "0", "--stop-ratio", "0.2", "--out", str(tmp_path / "trace.csv"),
        ])
        assert rc == 0
        assert sorted(calls) == ["make_bundle", "ps_norm"]

    def test_checkpoint_binary_field(self, tmp_path):
        out = tmp_path / "trace.csv"
        ckpt = tmp_path / "final.bin"
        run_cli([
            "flow", "--surface", "perturbed-catenoid:seed=0,amplitude=0.05",
            "--n", "65", "--max-iters", "2", "--out", str(out), "--checkpoint", str(ckpt),
        ])
        grid, values = dg.read_field(ckpt)
        assert grid.n == 65
        assert values.shape == (65, 65, 3)

    def test_checkpoint_without_out(self, tmp_path, capsys):
        ckpt = tmp_path / "ck.bin"
        rc = run_cli(["flow", "--surface", "perturbed-catenoid", "--n", "33", "--max-iters", "2",
                      "--checkpoint", str(ckpt)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["command"] == "flow"  # the summary goes to stdout
        grid, values = dg.read_field(ckpt)
        assert grid.n == 33 and values.shape == (33, 33, 3)


def test_console_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, WILLMORE_LAB_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(surface):
        return subprocess.run(
            [sys.executable, "-m", "willmore_lab.cli", "verify", "--surface", surface,
             "--n", "33", "--out", str(tmp_path / "p.json")],
            capture_output=True, text=True, env=env,
        )

    proc = run("plane")
    assert proc.returncode == 0, proc.stderr
    # an overflowing surface fails in one line: no numpy warnings reach stderr
    proc = run("sphere:rho=1e308")
    assert proc.returncode == 2 and proc.stderr.startswith("willmore-lab: error: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_output_independent_of_blas_threads(tmp_path):
    # OpenBLAS splits long products over its threads, which changes their
    # rounding; no report, flow or Wente value may depend on how many threads it
    # runs, and no Wente value on the number of workers either
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = (["verify", "--surface", "catenoid", "--m", "3", "--n", "129", "--out", "v.json", "--csv", "v.csv"],
            ["flow", "--surface", "perturbed-catenoid:seed=0,amplitude=0.05", "--n", "129",
             "--max-iters", "2", "--out", "f.csv"],
            ["wente", "--n", "129", "--samples", "3", "--out", "w.csv"])

    def outputs(blas, workers, argvs):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, WILLMORE_LAB_THREADS=workers,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cwd = tmp_path / f"{blas}-{workers}"
        cwd.mkdir()
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "willmore_lab.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=cwd)
            assert proc.returncode == 0, proc.stderr
        return {path.name: re.sub(r'\n *"timestamp": "[^"]*",?', "", path.read_text()) for path in cwd.iterdir()}

    outs = [outputs(blas, "2", runs) for blas in ("1", "2")]
    assert len(outs[0]) == 6 and outs[0] == outs[1]
    assert outputs("1", "1", runs[2:]) == {name: outs[0][name] for name in ("w.csv", "w.csv.json")}
