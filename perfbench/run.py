"""hdtest benchmark: seeded Monte Carlo throughput, with an optional traced run.

    python3 perfbench/run.py --workload simulate_p200 --seed 1 --seconds 20 --trace 0

Load is a closed loop: one `hdtest.cli.main([...])` process at a time, each a
fresh interpreter started by child.py, until `--seconds` have passed.  Every
process runs with HDTEST_THREADS = nproc and the library-default BLAS
threading (OPENBLAS/OMP/MKL_NUM_THREADS are removed from its environment).
Every run's outputs go through check.py, and the score file's sha256 must be
the same for all runs of one invocation.

--trace 0 reports the end-to-end metrics (medians over the runs).  --trace 1
spends half of `--seconds` on untraced runs, then makes one run with
HDTEST_THREADS=1 and one traced run, and reports the per-layer metrics.  A
record with the environment block and every run goes to perfbench/out/.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must finish within 180 s; children still running after this are killed.
BUDGET_S = 170.0

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
_STAT_UNITS = {"calls": "count", "self_s": "s", "self_ms_p50": "ms", "self_ms_p99": "ms", "errors": "count"}
_COUNTER_UNITS = {"gflop": "GFLOP", "kernel_evals": "count", "evaluations": "count"}
DERIVED = {
    "cli.outputs_s": "s",
    "simulation.pool.utilisation": "ratio",
    "simulation.pool.speedup": "ratio",
    "detectors.useful_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in spans.NAMES:
        for stat, unit in _STAT_UNITS.items():
            units[f"{name}.{stat}"] = unit
        if name in spans.COUNTERS:
            key = spans.COUNTERS[name][0]
            units[f"{name}.{key}"] = _COUNTER_UNITS[key]
    units.update(DERIVED)
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap `proc` with its resource usage; kill it at `deadline`."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Bench:
    def __init__(self, name: str, spec: dict, seed: int, trials: int, deadline: float):
        self.spec = spec
        self.trials = trials
        self.deadline = deadline
        self.work = OUT / name
        self.cli_args = [
            spec["command"],
            *spec["args"],
            *(["--detectors", ",".join(spec["detectors"])] if spec["command"] == "simulate" else []),
            "--trials", str(trials),
            "--seed", str(seed),
            "--out-dir", str(self.work / "run"),
        ]

    def run(self, workers: int, traced: bool = False) -> dict:
        """Start one child, wait for it, and check its outputs."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        result, spans_path = self.work / "child.json", self.work / "spans.json"
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), HDTEST_THREADS=str(workers))
        argv = [sys.executable, str(HERE / "child.py"), str(result),
                str(spans_path) if traced else "-", "--", *self.cli_args]
        with open(self.work / "child.stderr", "w", encoding="utf-8") as err:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            usage = _wait(proc, self.deadline)
        rec = {"workers": workers, "traced": traced, "rc": proc.returncode,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if proc.returncode != 0 or not result.is_file():
            tail = (self.work / "child.stderr").read_text(errors="replace").strip().splitlines()[-3:]
            rec.update(ok=False, reasons=[f"exit code {proc.returncode}", *tail])
            return rec
        rec.update(json.loads(result.read_text()))
        rec["trials_per_s"] = self.trials / rec["main_s"]
        res = check.check_run(self.work / "run", self.spec, self.trials,
                              bands=self.trials == self.spec["trials"])
        rec.update(ok=res.ok, reasons=res.reasons, sha256=res.sha256, scores=res.scores, stats=res.stats)
        if traced:
            rec["spans"] = json.loads(spans_path.read_text())
        return rec

    def loop(self, workers: int, seconds: float) -> list:
        """Closed loop: one run after another until `seconds` have passed (at least one)."""
        start = time.monotonic()
        runs = [self.run(workers)]
        while time.monotonic() - start < seconds and time.monotonic() < self.deadline - 10.0:
            runs.append(self.run(workers))
        return runs


def _median(runs: list, key: str) -> float:
    values = [r[key] for r in runs if r["ok"]]
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list) -> dict:
    return {name: _median(runs, name) for name in END_TO_END}


def layer_metrics(traced: dict, untraced_main_s: float, single_main_s: float, workers: int) -> tuple:
    """Per-layer metrics from the traced run, plus a list of warnings."""
    rows = spans.from_rows(traced["spans"]["spans"])
    out = spans.summarise(rows)
    warnings = [f"boundary {n} not found" for n in traced["spans"]["missing"]]
    engine = spans.engine_span(rows)
    if engine is None:
        warnings.append("no single engine span: derived pool metrics are 0")
        engine_s, inside, busy = 0.0, [], 0.0
    else:
        engine_s = engine.end - engine.start
        inside = spans.engine_descendants(rows, engine)
        busy = sum(s.end - s.start for s in inside if s.parent == engine.id)
    selfs = spans.self_times(rows)
    outputs_s = traced["main_s"] - engine_s
    capacity = engine_s * workers
    computed = sum(out[f"{d}.calls"] - out[f"{d}.errors"] for d in spans.DETECTORS)
    out.update({
        "cli.outputs_s": outputs_s,
        "simulation.pool.utilisation": busy / capacity if capacity else 0.0,
        "simulation.pool.speedup": single_main_s / untraced_main_s if untraced_main_s else 0.0,
        "detectors.useful_ratio": traced["scores"] / computed if computed else 0.0,
        "trace.overhead_s": traced["main_s"] - untraced_main_s,
        "trace.coverage": (sum(selfs[s.id] for s in inside) + outputs_s) / (capacity + outputs_s),
    })
    if out["trace.coverage"] < 0.9:
        warnings.append(f"trace.coverage {out['trace.coverage']:.3f} < 0.9: "
                        "named boundaries miss over 10% of the engine's thread time")
    return out, warnings


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trials", type=int, default=None,
                        help="override the workload's trial count (smoke tests; "
                             "turns the calibrated AUC / Z bands off)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "hdtest" / "cli.py").is_file():
        print(f"perfbench: no hdtest sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text())
    spec = config["workloads"].get(args.workload)
    if spec is None or args.seed < 0:
        print(f"perfbench: unknown workload {args.workload!r} or negative seed", file=sys.stderr)
        return 2
    trials = args.trials or spec["trials"]
    cores = nproc()
    bench = Bench(args.workload, spec, args.seed, trials, start + BUDGET_S)

    warnings = []
    if args.trace:
        untraced = bench.loop(cores, args.seconds / 2)
        single = bench.run(1)
        traced = bench.run(cores, traced=True)
        runs = [*untraced, single, traced]
    else:
        runs = bench.loop(cores, args.seconds)

    hashes = {r.get("sha256") for r in runs}
    failed = sum(not r["ok"] for r in runs)
    correct = failed == 0 and len(hashes) == 1
    if failed == 0 and not correct:
        warnings.append(f"score files differ between runs: {sorted(map(str, hashes))}")
    units = per_layer_units() if args.trace else END_TO_END
    if not args.trace:
        metrics = end_to_end(runs)
    elif correct:
        metrics, more = layer_metrics(traced, _median(untraced, "main_s"), single["main_s"],
                                      min(cores, trials))
        warnings += more
    else:
        metrics = dict.fromkeys(units, 0.0)

    first = next((r for r in runs if "env" in r), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cli_args": bench.cli_args,
        "env": {"cpu_model": cpu_model(), "nproc": cores, "seed": args.seed,
                "blas_env_cleared": list(BLAS_VARS), **first.get("env", {})},
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "sha256": sorted(map(str, hashes)),
        "warnings": warnings,
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k not in ("spans", "env")} for r in runs],
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for r in runs:
        if not r["ok"]:
            print(f"run failed ({r['workers']} workers): {'; '.join(r['reasons'])}")
    for w in warnings:
        print(f"warning: {w}")
    print(f"{args.workload} seed={args.seed}: {len(runs)} runs, {failed} failed, "
          f"error_rate={record['error_rate']}, blas_threads={record['env'].get('blas_threads')}")
    if not args.trace:
        for name, unit in units.items():
            print(f"{name} = {metrics[name]:.6g} {unit} (median of {len(runs) - failed} runs)")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
