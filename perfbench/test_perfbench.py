"""Tests of the benchmark itself: span tracer, output checker, smoke runs.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class Boom(Exception):
    pass


def ticking_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# --- span tracer -------------------------------------------------------------


def test_nested_spans_parent_and_self_time():
    tracer = spans.Tracer(clock=ticking_clock(0.0, 1.0, 3.0, 6.0))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    selfs = spans.self_times(tracer.spans)
    assert selfs[by_name["outer"].id] == pytest.approx(4.0)  # 6 - (3 - 1)
    assert selfs[by_name["inner"].id] == pytest.approx(2.0)


def test_self_time_subtracts_union_of_overlapping_children():
    rows = [
        spans.Span(1, "simulation.run_trials", 0, None, 0.0, 10.0),
        spans.Span(2, "spectral.pooled_scm", 1, 1, 1.0, 5.0),
        spans.Span(3, "spectral.pooled_scm", 2, 1, 3.0, 7.0),
        spans.Span(4, "spectral.pooled_scm", 2, 1, 8.0, 12.0),  # runs past the parent
    ]
    selfs = spans.self_times(rows)
    assert selfs[1] == pytest.approx(10.0 - 6.0 - 2.0)
    assert selfs[2] == pytest.approx(4.0)


def test_pool_thread_spans_hang_under_engine():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: threading.get_ident())

    def engine_body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(8)))

    engine = tracer.wrap("simulation.run_trials", engine_body, engine=True)
    threads = engine()
    root = spans.engine_span(tracer.spans)
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert root is not None and root.parent is None
    assert len(leaves) == 8
    assert all(s.parent == root.id for s in leaves)
    assert all(s.thread != root.thread for s in leaves)
    assert {s.thread for s in leaves} == set(threads)
    assert spans.engine_descendants(tracer.spans, root) == leaves
    # Outside the engine, a span on a fresh thread has no parent.
    leaf(0)
    assert tracer.spans[-1].parent is None


def test_unused_boundary_reports_zero_calls():
    out = spans.summarise([])
    for name in spans.NAMES:
        assert out[f"{name}.calls"] == 0
        assert out[f"{name}.self_s"] == 0
        assert out[f"{name}.self_ms_p99"] == 0.0
    assert set(out) == set(run.per_layer_units()) - set(run.DERIVED)


def test_domain_errors_are_counted_and_reraised():
    tracer = spans.Tracer(errors=(Boom,))

    def fails():
        raise Boom("precondition")

    wrapped = tracer.wrap("detectors.hotelling_score", fails)
    with pytest.raises(Boom):
        wrapped()
    out = spans.summarise(tracer.spans)
    assert out["detectors.hotelling_score.calls"] == 1
    assert out["detectors.hotelling_score.errors"] == 1


def test_install_wraps_every_namespace(monkeypatch):
    import hdtest
    import hdtest.cli

    modules = [m for n, m in sys.modules.items() if n == "hdtest" or n.startswith("hdtest.")]
    for m in modules:
        for _, fn in spans.BOUNDARIES:
            if hasattr(m, fn):
                monkeypatch.setattr(m, fn, getattr(m, fn))
    tracer = spans.Tracer()
    assert spans.install(tracer) == []
    assert hdtest.simulation.pooled_scm is hdtest.detectors.pooled_scm
    assert hdtest.spectral.pooled_scm is hdtest.simulation.pooled_scm
    assert hdtest.cli.run_trials is hdtest.simulation.run_trials
    pair = hdtest.SamplePair(np.eye(5, 4) + 1.0, np.ones((5, 4)) * 2.0 + np.eye(5, 4))
    hdtest.detectors.bs96_score(pair)
    out = spans.summarise(tracer.spans)
    assert out["detectors.bs96_score.calls"] == 1
    assert out["spectral.pooled_scm.calls"] == 1
    assert out["spectral.pooled_scm.gflop"] == pytest.approx(2 * 25 * 8 / 1e9)


# --- output checker ----------------------------------------------------------


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    from hdtest.cli import main

    out = tmp_path_factory.mktemp("sim")
    argv = ["simulate", "--p", "30", "--n1", "20", "--n2", "20", "--trials", "10",
            "--detectors", "lw,cq10", "--seed", "3", "--out-dir", str(out)]
    assert main(argv) == 0
    return out


SIM_SPEC = {"command": "simulate", "detectors": ["lw", "cq10"],
            "auc_bands": {"lw": [0.0, 1.0], "cq10": [0.0, 1.0]}}


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_checker_accepts_a_good_run(sim_dir):
    res = check.check_run(sim_dir, SIM_SPEC, 10)
    assert res.ok, res.reasons
    assert res.scores == 40
    assert len(res.sha256) == 64
    summary = json.loads((sim_dir / "summary.json").read_text())["detectors"]
    assert res.stats["auc.lw"] == pytest.approx(summary["lw"]["auc"], abs=1e-12)


def test_checker_rejects_truncated_scores(sim_dir, tmp_path):
    for cut in (0.5, 0.999):
        d = _copy(sim_dir, tmp_path / f"cut{cut}")
        data = (d / "scores.csv").read_bytes()
        (d / "scores.csv").write_bytes(data[: int(len(data) * cut)])
        assert not check.check_run(d, SIM_SPEC, 10).ok


def test_checker_rejects_non_finite_score(sim_dir, tmp_path):
    for bad in ("nan", "inf"):
        d = _copy(sim_dir, tmp_path / bad)
        lines = (d / "scores.csv").read_text().splitlines()
        cells = lines[5].split(",")
        lines[5] = ",".join([*cells[:3], bad])
        (d / "scores.csv").write_text("\n".join(lines) + "\n")
        res = check.check_run(d, SIM_SPEC, 10)
        assert any("non-finite" in r for r in res.reasons), res.reasons


def test_checker_rejects_missing_detector_and_band(sim_dir):
    spec = dict(SIM_SPEC, detectors=["lw", "cq10", "oracle"])
    assert not check.check_run(sim_dir, spec, 10).ok
    spec = dict(SIM_SPEC, auc_bands={"lw": [0.0, 1e-9]})
    assert not check.check_run(sim_dir, spec, 10).ok
    assert check.check_run(sim_dir, spec, 10, bands=False).ok


def test_checker_null_check(tmp_path):
    spec = {"command": "null-check", "z_bands": {"mean": [-1.0, 1.0], "variance": [0.0, 9.0]}}
    for name in ("z_hist.csv", "summary.json", "manifest.json"):
        (tmp_path / name).write_text("x\n")
    (tmp_path / "z_samples.csv").write_text("z\n0.5\n-0.5\n")
    assert check.check_run(tmp_path, spec, 2).ok
    (tmp_path / "z_samples.csv").write_text("z\n0.5\nnan\n")
    assert not check.check_run(tmp_path, spec, 2).ok
    (tmp_path / "z_samples.csv").write_text("z\n0.5\n")
    assert not check.check_run(tmp_path, spec, 2).ok


def test_mann_whitney_auc_counts_ties_half():
    assert check.mann_whitney_auc(np.array([0.0, 1.0]), np.array([1.0, 2.0])) == 0.875
    assert math.isclose(check.mann_whitney_auc(np.zeros(3), np.zeros(4)), 0.5)


# --- smoke runs --------------------------------------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    return last


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", ["simulate_p200", "nullcheck_p200", "simulate_p800"])
def test_smoke_traced(workload):
    last = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                          "--trace", "1", "--trials", "4"))
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    engine = "simulation.null_z_samples" if workload == "nullcheck_p200" else "simulation.run_trials"
    assert metrics[f"{engine}.calls"] == 1
    assert metrics["spectral.spectral_decompose.calls"] > 0
    assert metrics["detectors.useful_ratio"] == 1.0


def test_smoke_untraced():
    last = _result(_bench("--workload", "nullcheck_p200", "--seed", "3", "--seconds", "0",
                          "--trace", "0", "--trials", "4"))
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "simulate_p200", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
