import ctypes
import functools
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdtest
from hdtest import simulation
from hdtest.cli import main
from hdtest.shrinkage import shrink_eigenvalues
from hdtest.simulation import SimulationConfig, blas_threads, run_trials, write_scores_csv
from hdtest.spectral import read_matrix_csv, spectral_decompose, write_matrix_csv

from test_shrinkage import FIX_A_DHAT
from test_simulation import blas_at_two  # noqa: F401 (a fixture)

SIM_ARGS = [
    "simulate",
    "--p", "8", "--n1", "10", "--n2", "10",
    "--trials", "2",
    "--seed", "5",
    "--detectors", "lw,cq10",
]


def run_simulate(out_dir, extra=()):
    return main(SIM_ARGS + list(extra) + ["--out-dir", str(out_dir)])


def check_environment(manifest, workers):
    env = manifest["environment"]
    assert env["platform"] == platform.platform()
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert "scipy" not in env  # scipy is not part of the runtime
    assert env["workers"] == workers
    restored = blas_threads()
    assert [b["library"] for b in env["blas"]] == list(restored)
    for b in env["blas"]:
        assert b["threads_during_run"] == 1
        assert b["threads_restored"] == restored[b["library"]]


class TestSimulateCommand:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_simulate(out) == 0
        for name in ("scores.csv", "roc_lw.csv", "roc_cq10.csv", "summary.json", "manifest.json"):
            assert (out / name).exists(), name
        assert not list(out.glob("*.tmp"))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "simulate"
        assert summary["config"]["p"] == 8
        assert set(summary["detectors"]) == {"lw", "cq10"}
        for block in summary["detectors"].values():
            assert 0.0 <= block["auc"] <= 1.0
            assert block["trials"] == 2
            assert block["seed"] == 5
        assert summary["absent"] == {}
        assert len(summary["covariance"]["diag"]) == 8
        assert summary["covariance"]["seed"] == [5, 1]
        captured = capsys.readouterr()
        assert "lw: auc=" in captured.out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert str(out / "scores.csv") in manifest["outputs"]

    def test_gaussian_base_is_run_and_recorded(self, tmp_path):
        uniform, gaussian = tmp_path / "uniform", tmp_path / "gaussian"
        assert run_simulate(uniform) == 0
        assert run_simulate(gaussian, ["--base-dist", "gaussian"]) == 0
        manifest = json.loads((gaussian / "manifest.json").read_text())
        assert manifest["config"]["base_dist"] == "gaussian"
        summary = json.loads((gaussian / "summary.json").read_text())
        assert summary["config"]["base_dist"] == "gaussian"
        # the same streams drawn through another base give other scores
        assert (gaussian / "scores.csv").read_bytes() != (uniform / "scores.csv").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_simulate(out1) == 0
        assert run_simulate(out2) == 0
        for name in ("scores.csv", "roc_lw.csv", "roc_cq10.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_records_numeric_environment(self, tmp_path, monkeypatch):
        # two trials are four (trial, hypothesis) pairs, so all three threads work
        monkeypatch.setenv("HDTEST_THREADS", "3")
        out = tmp_path / "run"
        assert run_simulate(out) == 0
        check_environment(json.loads((out / "manifest.json").read_text()), workers=3)

    def test_one_trial_runs_on_two_workers_with_the_same_bytes(self, tmp_path, monkeypatch):
        """One trial is two pairs: under HDTEST_THREADS=2 both workers run one,
        and scores.csv has the bytes of a one-worker run."""
        scores = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HDTEST_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            assert run_simulate(out, ["--trials", "1"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["environment"]["workers"] == int(threads)
            scores.append((out / "scores.csv").read_bytes())
        assert scores[0] == scores[1]

    def test_environment_stays_out_of_scores(self, tmp_path, monkeypatch):
        """scores.csv has the same bytes whether or not the manifest lists BLAS
        libraries, and the same bytes as the engine's table written directly."""
        assert run_simulate(tmp_path / "with") == 0
        config = SimulationConfig(p=8, n1=10, n2=10, trials=2, seed=5, detectors=("lw", "cq10"))
        write_scores_csv(run_trials(config), tmp_path / "direct.csv")
        monkeypatch.setattr(simulation, "_find_openblas", lambda: ())
        assert run_simulate(tmp_path / "without") == 0
        manifest = json.loads((tmp_path / "without" / "manifest.json").read_text())
        assert manifest["environment"]["blas"] == []
        scores = (tmp_path / "with" / "scores.csv").read_bytes()
        assert scores == (tmp_path / "without" / "scores.csv").read_bytes()
        assert scores == (tmp_path / "direct.csv").read_bytes()

    def test_absent_detector_is_reported_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--p", "24", "--n1", "6", "--n2", "6",
                "--trials", "2", "--seed", "1",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "hotelling" in summary["absent"]
        assert "singular" in summary["absent"]["hotelling"]
        assert "hotelling" not in summary["detectors"]
        assert not (out / "roc_hotelling.csv").exists()
        assert (out / "roc_lw.csv").exists()
        assert "hotelling: absent" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p,detector", [(50, "lw"), (30, "bs96")])  # Gram side, p x p
    def test_overflowing_covariance_is_an_absent_detector(
        self, tmp_path, monkeypatch, capsys, p, detector
    ):
        monkeypatch.setenv("HDTEST_THREADS", "1")
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--p", str(p), "--n1", "20", "--n2", "20", "--cov-order", "308",
                "--trials", "3", "--detectors", f"{detector},cq10",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["absent"][detector] == "pooled sample covariance overflows"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "p,order,detectors",
        [(30, 160, "bs96,cq10,oracle"), (50, 305, "lw,bs96,cq10,oracle")],
        ids=["p<=N", "gram-side"],
    )
    def test_bs96_trace_overflow_is_an_absent_detector(self, tmp_path, p, order, detectors):
        """tr(S^2) past the float range is a reported precondition failure of
        bs96, with no numpy warning on stderr."""
        package_root = Path(hdtest.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root), HDTEST_THREADS="1")
        out = tmp_path / "run"
        args = [
            "simulate", "--p", str(p), "--n1", "20", "--n2", "20", "--cov-order", str(order),
            "--trials", "3", "--detectors", detectors, "--out-dir", str(out),
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "hdtest.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        reason = json.loads((out / "summary.json").read_text())["absent"]["bs96"]
        assert reason.startswith("bs96 variance estimate overflows")
        assert "bs96: absent (bs96 variance estimate overflows" in proc.stdout

    @pytest.mark.parametrize(
        "p,order,code",
        [(30, 308, 0), (50, 308, 0), (30, 400, 3)],
        ids=["p<=N", "gram-side", "order-past-float-range"],
    )
    def test_overflow_is_typed_and_unwarned(self, tmp_path, p, order, code):
        """Data or a spike past the float range gives typed reasons, exit
        codes 0/0/3, and no numpy warning on stderr."""
        package_root = Path(hdtest.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root), HDTEST_THREADS="1")
        out = tmp_path / "run"
        args = [
            "simulate", "--p", str(p), "--n1", "20", "--n2", "20", "--cov-order", str(order),
            "--trials", "2", "--out-dir", str(out),
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "hdtest.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        if code == 3:
            assert f"covariance order {order} overflows" in proc.stderr
            assert not out.exists()  # a run that fails makes no out-dir
            return
        absent = json.loads((out / "summary.json").read_text())["absent"]
        assert absent["cq10"].startswith("cq10 statistic overflows")
        assert absent["lw"] == "pooled sample covariance overflows"

    def test_loading_search_out_of_float_range_is_an_absent_detector(
        self, tmp_path, monkeypatch, capsys
    ):
        # diag up to 1e305: the loading scan's top end, 1e6 times the mean
        # eigenvalue, leaves the float range
        monkeypatch.setenv("HDTEST_THREADS", "1")
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--p", "50", "--n1", "20", "--n2", "20", "--cov-order", "305",
                "--trials", "3", "--detectors", "lappw",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["detectors"] == {}
        assert "loading scan range overflows" in summary["absent"]["lappw"]
        assert (out / "scores.csv").read_text() == "trial,hypothesis,detector,score\n"
        assert "lappw: absent" in capsys.readouterr().out

    def test_unknown_detector_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--detectors", "lw,bogus", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_repeated_detector_exits_2(self, tmp_path, capsys):
        code = run_simulate(tmp_path / "x", extra=["--detectors", "lw,lw,cq10"])
        assert code == 2
        assert "repeated detector" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_cov_order_exits_2(self, tmp_path, capsys):
        code = run_simulate(tmp_path / "x", extra=["--cov-order", "-1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_non_finite_radius_exits_2(self, tmp_path, capsys, radius):
        code = run_simulate(tmp_path / "x", extra=["--radius", radius])
        assert code == 2
        assert "radius must be finite" in capsys.readouterr().err

    def test_missing_out_dir_flag_exits_2(self, capsys):
        assert main(["simulate"]) == 2
        capsys.readouterr()

    def test_unwritable_scores_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "scores.csv").mkdir(parents=True)
        assert run_simulate(out) == 2
        err = capsys.readouterr().err
        assert err.startswith("hdtest: error:")
        assert "scores.csv" in err


class TestNullCheckCommand:
    def test_small_run_outputs(self, tmp_path, capsys):
        out = tmp_path / "null"
        code = main(
            [
                "null-check",
                "--p", "6", "--n1", "8", "--n2", "8",
                "--cov-order", "0",
                "--trials", "40", "--seed", "2",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "z_samples.csv").read_text().splitlines()
        assert lines[0] == "z"
        assert len(lines) == 41
        z = np.array([float(v) for v in lines[1:]])
        assert np.all(np.isfinite(z))

        hist = (out / "z_hist.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count,density,normal_density"
        assert len(hist) == 51
        counts = [int(row.split(",")[2]) for row in hist[1:]]
        assert sum(counts) <= 40
        los = [float(row.split(",")[0]) for row in hist[1:]]
        assert los[0] == -5.0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "null-check"
        for key in ("mean", "variance", "ks_statistic"):
            assert isinstance(summary[key], float)
        assert summary["config"]["detectors"] == ["lw"]
        assert (out / "manifest.json").exists()
        assert "null z: mean=" in capsys.readouterr().out

    def test_manifest_records_numeric_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDTEST_THREADS", "1")
        out = tmp_path / "null"
        args = ["null-check", "--p", "10", "--n1", "12", "--n2", "12", "--trials", "3"]
        assert main(args + ["--out-dir", str(out)]) == 0
        check_environment(json.loads((out / "manifest.json").read_text()), workers=1)
        capsys.readouterr()

    def test_two_trials_boundary(self, tmp_path, capsys):
        out = tmp_path / "null2"
        code = main(
            [
                "null-check",
                "--p", "4", "--n1", "6", "--n2", "6",
                "--trials", "2", "--out-dir", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_single_trial_exits_2(self, tmp_path, capsys):
        # rejected before any trial runs or the out-dir is made
        code = main(
            [
                "null-check",
                "--p", "4", "--n1", "6", "--n2", "6",
                "--trials", "1", "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_covariance_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDTEST_THREADS", "1")
        code = main(
            [
                "null-check",
                "--p", "50", "--n1", "20", "--n2", "20", "--cov-order", "308",
                "--trials", "3", "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 3
        assert "pooled sample covariance overflows" in capsys.readouterr().err

    def test_equal_aspect_ratio_exits_3(self, tmp_path, capsys):
        # p = n1 + n2 - 2 = 10: every trial's shrinkage is undefined
        with pytest.warns(UserWarning, match="truncated"):
            code = main(
                [
                    "null-check",
                    "--p", "10", "--n1", "6", "--n2", "6",
                    "--trials", "5", "--out-dir", str(tmp_path / "x"),
                ]
            )
        assert code == 3
        assert "aspect ratio" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # a run that fails makes no out-dir

    def test_unwritable_samples_exits_2(self, tmp_path, capsys):
        out = tmp_path / "null"
        (out / "z_samples.csv").mkdir(parents=True)
        code = main(
            [
                "null-check",
                "--p", "4", "--n1", "6", "--n2", "6",
                "--trials", "2", "--out-dir", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hdtest: error:")
        assert "z_samples.csv" in err

    def test_radius_is_not_a_null_check_flag(self, tmp_path, capsys):
        """The null streams have mean zero, so a radius would change nothing."""
        code = main(["null-check", "--radius", "2", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        assert "--radius" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestShrinkCommand:
    def write_matrix(self, tmp_path, m, name="m.csv"):
        path = tmp_path / name
        write_matrix_csv(path, np.asarray(m, dtype=float))
        return path

    def test_diagonal_fixture_matches_frozen_values(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.diag([2.0, 1.0]))
        prefix = str(tmp_path / "out_")
        code = main(["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", prefix])
        assert code == 0
        dhat = read_matrix_csv(f"{prefix}dhat.csv")
        assert dhat.shape == (2, 1)
        np.testing.assert_allclose(dhat[:, 0], FIX_A_DHAT, rtol=1e-10)
        rlw = read_matrix_csv(f"{prefix}rlw.csv")
        np.testing.assert_allclose(rlw, np.diag(dhat[:, 0]), atol=1e-12)
        manifest = json.loads(open(f"{prefix}manifest.json").read())
        assert manifest["command"] == "shrink"
        assert manifest["config"]["n"] == 8
        out = capsys.readouterr().out
        assert "input condition number: 2" in out
        assert "output condition number:" in out

    def test_identity_input_shrinks_to_equal_values(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.eye(2))
        prefix = str(tmp_path / "id_")
        assert main(["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", prefix]) == 0
        dhat = read_matrix_csv(f"{prefix}dhat.csv")[:, 0]
        assert dhat[0] == dhat[1] > 0.0
        capsys.readouterr()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.diag([2.0, 1.0]))
        p1, p2 = str(tmp_path / "a_"), str(tmp_path / "b_")
        assert main(["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", p1]) == 0
        assert main(["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", p2]) == 0
        assert open(f"{p1}dhat.csv", "rb").read() == open(f"{p2}dhat.csv", "rb").read()
        assert open(f"{p1}rlw.csv", "rb").read() == open(f"{p2}rlw.csv", "rb").read()
        capsys.readouterr()

    def test_outputs_match_the_library_estimate(self, tmp_path, capsys):
        """dhat.csv holds shrink_eigenvalues and rlw.csv U diag(dhat) U', byte
        for byte, at p < n and at p > n, where the p - n zero eigenvalues take
        the common target; rlw's own eigenvalues are dhat."""
        for p, n in ((5, 30), (12, 8)):
            x = np.random.default_rng(4).standard_normal((p, n))
            path = self.write_matrix(tmp_path, x @ x.T / n, name=f"m{p}.csv")
            prefix = str(tmp_path / f"out{p}_")
            assert main(["shrink", "--matrix", str(path), "--n", str(n), "--out-prefix", prefix]) == 0
            decomp = spectral_decompose(read_matrix_csv(path))
            assert np.count_nonzero(decomp.eigenvalues == 0.0) == max(p - n, 0)
            dhat = shrink_eigenvalues(decomp, n, p)
            u = decomp.eigenvectors
            write_matrix_csv(tmp_path / "dhat_ref.csv", dhat.reshape(-1, 1))
            write_matrix_csv(tmp_path / "rlw_ref.csv", (u * dhat) @ u.T)
            for name in ("dhat", "rlw"):
                got = Path(f"{prefix}{name}.csv").read_bytes()
                assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), (p, name)
            rlw_evals = np.linalg.eigvalsh(read_matrix_csv(f"{prefix}rlw.csv"))
            np.testing.assert_allclose(rlw_evals, np.sort(dhat), rtol=1e-10)
        capsys.readouterr()

    def test_manifest_records_numeric_environment(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.diag([2.0, 1.0]))
        prefix = str(tmp_path / "env_")
        assert main(["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", prefix]) == 0
        check_environment(json.loads(Path(f"{prefix}manifest.json").read_text()), workers=1)
        capsys.readouterr()

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        """A 400 x 400 SCM with n = 250: the eigh and the assembled estimate
        move with the OpenBLAS thread count unless shrink holds it at one, so
        two fresh interpreters with different OPENBLAS_NUM_THREADS must write
        the same bytes."""
        x = np.random.default_rng(11).standard_normal((400, 250))
        path = self.write_matrix(tmp_path, x @ x.T / 250)
        package_root = str(Path(hdtest.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            prefix = str(tmp_path / f"blas{threads}_")
            env = dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "hdtest.cli", "shrink", "--matrix", str(path),
                 "--n", "250", "--out-prefix", prefix],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([Path(f"{prefix}{name}.csv").read_bytes() for name in ("dhat", "rlw")])
        assert outputs[0][0] == outputs[1][0], "dhat.csv"
        assert outputs[0][1] == outputs[1][1], "rlw.csv"

    def test_equal_aspect_ratio_exits_3(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.diag([2.0, 1.0]))
        code = main(
            ["shrink", "--matrix", str(path), "--n", "2", "--out-prefix", str(tmp_path / "x_")]
        )
        assert code == 3
        assert "aspect ratio" in capsys.readouterr().err

    def test_asymmetric_matrix_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.5\n0.0,1.0\n")
        code = main(
            ["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", str(tmp_path / "x_")]
        )
        assert code == 2
        assert "symmetric" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "shrink",
                "--matrix", str(tmp_path / "nope.csv"),
                "--n", "8",
                "--out-prefix", str(tmp_path / "x_"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_unwritable_out_prefix_exits_2(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.diag([2.0, 1.0]))
        prefix = str(tmp_path / "missing" / "x_")
        code = main(["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", prefix])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hdtest: error:")
        assert "dhat.csv" in err

    def test_spectrum_past_the_float_range_exits_3(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.full((2, 2), 1e308))
        code = main(
            ["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", str(tmp_path / "x_")]
        )
        assert code == 3
        assert "eigenvalues overflow" in capsys.readouterr().err

    def test_indefinite_matrix_exits_3(self, tmp_path, capsys):
        path = self.write_matrix(tmp_path, np.diag([1.0, -1.0]))
        code = main(
            ["shrink", "--matrix", str(path), "--n", "8", "--out-prefix", str(tmp_path / "x_")]
        )
        assert code == 3
        capsys.readouterr()


class TestLifecycle:
    """`main` owns each command's clock, BLAS hold and manifest."""

    @pytest.mark.parametrize("argv, code", [
        # the first trial's pooled covariance overflows: raised inside the engine
        (["null-check", "--p", "50", "--n1", "20", "--n2", "20", "--cov-order", "308",
          "--trials", "3"], 3),
        # rejected before any trial runs
        (["null-check", "--p", "4", "--n1", "6", "--n2", "6", "--trials", "1"], 2),
    ])
    def test_blas_count_is_restored_after_a_failed_command(
        self, argv, code, blas_at_two, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("HDTEST_THREADS", "1")
        assert main(argv + ["--out-dir", str(tmp_path / "x")]) == code
        assert blas_threads() == blas_at_two
        assert capsys.readouterr().err.startswith("hdtest: error:")

    def test_scipy_openblas_keeps_its_count_through_a_run(self, tmp_path, monkeypatch):
        """hdtest calls numpy's OpenBLAS only, so a copy that scipy.linalg
        loaded is neither held nor listed in the manifest."""
        pytest.importorskip("scipy.linalg")
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
        libs = [lib for lib in libs if hasattr(lib, "scipy_openblas_get_num_threads")]
        if not libs:
            pytest.skip("scipy's OpenBLAS thread-count symbols are not found")
        get, set_ = libs[0].scipy_openblas_get_num_threads, libs[0].scipy_openblas_set_num_threads
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        previous = get()
        set_(2)
        seen = []

        def recording(config):
            seen.append(get())
            return run_trials(config)

        monkeypatch.setattr(hdtest.cli, "run_trials", recording)
        # the search is cached per process: search afresh, with scipy loaded
        fresh = functools.cache(simulation._find_openblas.__wrapped__)
        monkeypatch.setattr(simulation, "_find_openblas", fresh)
        try:
            at_two = get()
            assert run_simulate(tmp_path / "run") == 0
            assert seen == [at_two]
            assert get() == at_two
        finally:
            set_(previous)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert [b["library"] for b in manifest["environment"]["blas"]] == list(blas_threads())

    def test_commands_share_one_manifest_key_set(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        write_matrix_csv(matrix, np.diag([2.0, 1.0]))
        assert run_simulate(tmp_path / "sim") == 0
        assert main(["null-check", "--p", "4", "--n1", "6", "--n2", "6", "--trials", "2",
                     "--out-dir", str(tmp_path / "null")]) == 0
        assert main(["shrink", "--matrix", str(matrix), "--n", "8",
                     "--out-prefix", str(tmp_path / "shrink_")]) == 0
        manifests = [
            json.loads(path.read_text())
            for path in (tmp_path / "sim" / "manifest.json", tmp_path / "null" / "manifest.json",
                         tmp_path / "shrink_manifest.json")
        ]
        assert [m["command"] for m in manifests] == ["simulate", "null-check", "shrink"]
        assert len({tuple(sorted(m)) for m in manifests}) == 1
        assert len({tuple(sorted(m["environment"])) for m in manifests}) == 1
        for m in manifests:
            assert all(os.path.isfile(path) for path in m["outputs"])
        capsys.readouterr()

    def test_json_outputs_take_the_mode_of_the_csvs(self, tmp_path, capsys):
        """Under umask 022 every output is rw-r--r--: the JSON files are not
        left at a temporary file's 0600."""
        matrix = tmp_path / "m.csv"
        write_matrix_csv(matrix, np.diag([2.0, 1.0]))
        previous = os.umask(0o022)
        try:
            assert run_simulate(tmp_path / "sim") == 0
            assert main(["shrink", "--matrix", str(matrix), "--n", "8",
                         "--out-prefix", str(tmp_path / "shrink_")]) == 0
        finally:
            os.umask(previous)
        runs = [
            (tmp_path / "sim" / "scores.csv",
             [tmp_path / "sim" / "summary.json", tmp_path / "sim" / "manifest.json"]),
            (tmp_path / "shrink_dhat.csv", [tmp_path / "shrink_manifest.json"]),
        ]
        for csv, jsons in runs:
            assert csv.stat().st_mode & 0o777 == 0o644
            for path in jsons:
                assert path.stat().st_mode & 0o777 == 0o644, path.name
        capsys.readouterr()


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestEntryPoint:
    def test_version_flag_in_process(self, capsys):
        assert main(["--version"]) == 0
        assert "hdtest" in capsys.readouterr().out

    @pytest.mark.skipif(
        not _distribution_installed("hdtest"),
        reason="the hdtest distribution is not installed (importlib.metadata "
        "finds no metadata for it), so no console script was generated",
    )
    def test_console_script_is_installed(self):
        exe = shutil.which("hdtest")
        assert exe is not None, "console script 'hdtest' not on PATH"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("hdtest")

    def test_console_script_entry_point_runs(self):
        """The [project.scripts] entry names hdtest.cli:main, and the wrapper a
        console script runs exits 0 with the version, without an install."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["hdtest"] == "hdtest.cli:main"
        module, func = scripts["hdtest"].split(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        package_root = Path(hdtest.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root))
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("hdtest")


class TestRuntimeDependencies:
    def test_import_loads_no_scipy(self):
        """Importing the library and its CLI in a fresh interpreter leaves no
        scipy module behind: numpy is the only numeric runtime."""
        package_root = Path(hdtest.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root))
        probe = (
            "import sys, hdtest, hdtest.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_simulate_loads_no_numpy_ma(self, tmp_path):
        """A whole simulate run in a fresh interpreter, ROC curves included,
        never imports numpy.ma."""
        package_root = Path(hdtest.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root))
        probe = (
            "import sys; from hdtest.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *SIM_ARGS, "--out-dir", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "roc_lw.csv").exists()
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_environment_block_starts_no_subprocess(self):
        """The manifest's environment block, read in a fresh interpreter
        (no platform cache), starts no process: platform.platform() would
        run `uname -p`."""
        package_root = Path(hdtest.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(package_root))
        probe = (
            "import sys; from hdtest import cli; started = []; "
            "sys.addaudithook(lambda event, args: started.append(event) "
            "if event in ('subprocess.Popen', 'os.posix_spawn', 'os.fork', 'os.exec', 'os.system') "
            "else None); "
            "env = cli._run_environment({}, 1); print(started); print(env['platform'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        started, name = proc.stdout.strip().splitlines()
        assert started == "[]"
        assert name == platform.platform()

    def test_pyproject_keeps_scipy_out_of_the_runtime(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert not [d for d in project["dependencies"] if d.startswith("scipy")]
        assert [d for d in project["optional-dependencies"]["test"] if d.startswith("scipy")]
