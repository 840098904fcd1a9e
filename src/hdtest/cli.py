"""Command-line front end: simulate, null-check, and shrink subcommands.

Exit codes: 0 success, 2 usage/validation failures or an unusable file path, 3
mathematical precondition failures; the commands raise and `main` alone maps
an error to its code.  `main` also times each command, holds BLAS around it,
and writes the manifest that lets the run be replayed bit-for-bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .detectors import DetectorKind
from .errors import DomainError, StructuralError
from .shrinkage import shrink_eigenvalues
from .simulation import (
    _BASE_DISTS,
    NULL_HYPOTHESES,
    SIMULATE_HYPOTHESES,
    SimulationConfig,
    blas_pinned,
    blas_threads,
    model_seed,
    normality_check,
    null_z_samples,
    roc_curve,
    run_trials,
    worker_count,
    write_roc_csv,
    write_scores_csv,
)
from .spectral import (
    _write_csv,
    read_matrix_csv,
    spectral_decompose,
    write_matrix_csv,
)

_HIST_BINS = 50
_HIST_RANGE = (-5.0, 5.0)


def _write_json_atomic(path, payload: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdtest",
        description="High-dimensional two-sample mean tests and their Monte Carlo harness.",
    )
    parser.add_argument("--version", action="version", version=f"hdtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="two-hypothesis Monte Carlo with ROC output")
    sim.set_defaults(run=cmd_simulate)
    _add_common(sim)
    sim.add_argument(
        "--detectors",
        default=",".join(k.value for k in DetectorKind),
        help="comma-separated detector names",
    )
    sim.add_argument("--trials", type=int, default=2000, help="trials per hypothesis")
    sim.add_argument("--radius", type=float, default=1.0, help="mean-shift sphere radius")

    null = sub.add_parser("null-check", help="null distribution of the shrinkage Z score")
    null.set_defaults(run=cmd_null_check)
    _add_common(null, p=200, n1=200, n2=200, cov_order=4)
    null.add_argument("--trials", type=int, default=1000, help="number of null trials")

    shrink = sub.add_parser("shrink", help="shrink a sample covariance matrix from CSV")
    shrink.set_defaults(run=cmd_shrink)
    shrink.add_argument("--matrix", required=True, help="CSV file, one row per line, no header")
    shrink.add_argument("--n", type=int, required=True, help="effective sample size")
    shrink.add_argument("--out-prefix", required=True, help="prefix for output files")
    return parser


def _add_common(sub, p=200, n1=150, n2=150, cov_order=0):
    sub.add_argument("--p", type=int, default=p, help="dimension")
    sub.add_argument("--n1", type=int, default=n1, help="group 1 size")
    sub.add_argument("--n2", type=int, default=n2, help="group 2 size")
    sub.add_argument("--cov-order", type=int, default=cov_order, help="spike order P >= 0")
    sub.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sub.add_argument(
        "--base-dist",
        choices=_BASE_DISTS,
        default="uniform",
        help="base noise distribution",
    )
    sub.add_argument("--out-dir", required=True, help="output directory")


def _build_config(args, **fields) -> SimulationConfig:
    return SimulationConfig(
        p=args.p,
        n1=args.n1,
        n2=args.n2,
        cov_order=args.cov_order,
        trials=args.trials,
        seed=args.seed,
        base_dist=args.base_dist,
        **fields,
    )


def cmd_simulate(args) -> tuple:
    names = tuple(d.strip() for d in args.detectors.split(",") if d.strip())
    config = _build_config(args, detectors=names, radius=args.radius)
    table = run_trials(config)
    os.makedirs(args.out_dir, exist_ok=True)

    scores_path = os.path.join(args.out_dir, "scores.csv")
    write_scores_csv(table, scores_path)
    outputs = [scores_path]
    curves = {}
    for kind in table.present():
        curves[kind] = roc_curve(table.h0[kind], table.h1[kind])
        roc_path = os.path.join(args.out_dir, f"roc_{kind.value}.csv")
        write_roc_csv(curves[kind], roc_path)
        outputs.append(roc_path)

    summary_path = os.path.join(args.out_dir, "summary.json")
    _write_json_atomic(summary_path, {
        "command": args.command,
        "config": config.as_dict(),
        "covariance": {
            "order": config.cov_order,
            "seed": model_seed(config.seed),
            "diag": [float(x) for x in table.diag],
        },
        "detectors": {
            kind.value: {
                "detector": kind.value,
                "auc": curves[kind].auc,
                "trials": config.trials,
                "seed": config.seed,
            }
            for kind in curves
        },
        "absent": {k.value: v for k, v in table.absent.items()},
    })
    for kind in curves:
        print(f"{kind.value}: auc={curves[kind].auc:.4f}")
    for kind, reason in table.absent.items():
        print(f"{kind.value}: absent ({reason})")
    return (os.path.join(args.out_dir, "manifest.json"), config.as_dict(), config.seed,
            outputs + [summary_path], worker_count(config.trials, SIMULATE_HYPOTHESES))


def cmd_null_check(args) -> tuple:
    config = _build_config(args, detectors=(DetectorKind.PROPOSED_LW,))
    if config.trials < 2:  # the normality summary needs two Z values
        raise StructuralError(f"--trials must be >= 2 for a null check, got {config.trials}")
    z = null_z_samples(config)
    stats = normality_check(z)
    os.makedirs(args.out_dir, exist_ok=True)

    samples_path = os.path.join(args.out_dir, "z_samples.csv")
    _write_csv(samples_path, "z", z[:, None])

    counts, edges = np.histogram(z, bins=_HIST_BINS, range=_HIST_RANGE)
    scale = z.size * (edges[1] - edges[0])
    centres = 0.5 * (edges[:-1] + edges[1:])
    rows = (
        (lo, hi, str(k), k / scale, math.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi))
        for lo, hi, k, c in zip(edges[:-1], edges[1:], counts, centres)
    )
    hist_path = os.path.join(args.out_dir, "z_hist.csv")
    _write_csv(hist_path, "bin_lo,bin_hi,count,density,normal_density", rows)

    summary_path = os.path.join(args.out_dir, "summary.json")
    _write_json_atomic(
        summary_path, {"command": args.command, "config": config.as_dict(), **stats._asdict()}
    )
    print(
        f"null z: mean={stats.mean:.4f} variance={stats.variance:.4f} "
        f"ks={stats.ks_statistic:.4f}"
    )
    return (os.path.join(args.out_dir, "manifest.json"), config.as_dict(), config.seed,
            [samples_path, hist_path, summary_path], worker_count(config.trials, NULL_HYPOTHESES))


def cmd_shrink(args) -> tuple:
    if args.n < 1:
        raise StructuralError(f"--n must be >= 1, got {args.n}")
    decomp = spectral_decompose(read_matrix_csv(args.matrix))
    dhat = shrink_eigenvalues(decomp, args.n, decomp.p)
    u = decomp.eigenvectors
    rlw = (u * dhat) @ u.T

    prefix = args.out_prefix
    dhat_path = f"{prefix}dhat.csv"
    write_matrix_csv(dhat_path, dhat.reshape(-1, 1))
    rlw_path = f"{prefix}rlw.csv"
    write_matrix_csv(rlw_path, rlw)

    lam = decomp.eigenvalues
    cond_in = float("inf") if lam[-1] <= 0.0 else float(lam[0] / lam[-1])
    cond_out = float(np.max(dhat) / np.min(dhat))
    print(f"input condition number: {cond_in:.6g}")
    print(f"output condition number: {cond_out:.6g}")

    config = {"matrix": args.matrix, "n": args.n, "out_prefix": prefix}
    return f"{prefix}manifest.json", config, 0, [dhat_path, rlw_path], 1


def _platform_name() -> str:
    """platform.platform(), without its `uname -p` subprocess on Linux.

    There platform.platform() is system-release-machine-processor-with-libc,
    and the processor part is blank wherever `uname -p` prints `unknown` or
    the machine name; this builds that string from os.uname and the libc
    version alone.
    """
    u = platform.uname()  # the processor field is resolved only when read
    if u.system != "Linux":
        return platform.platform()
    lib, version = platform.libc_ver()
    return "-".join(filter(None, (u.system, u.release, u.machine, "with", lib + version)))


def _run_environment(held: dict, workers: int) -> dict:
    """What produced a run's numbers: platform, versions, workers, BLAS threads.

    `held` is what blas_pinned() yielded around the computation; the restored
    counts are read now, after the hold was released.
    """
    restored = blas_threads()
    return {
        "platform": _platform_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": workers,
        "blas": [
            {"library": name, "threads_during_run": n, "threads_restored": restored.get(name)}
            for name, n in held.items()
        ],
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    t0 = time.perf_counter()
    try:
        # a command writes its data files and returns what the manifest records
        with blas_pinned() as held:
            path, config, seed, outputs, workers = args.run(args)
        _write_json_atomic(path, {
            "command": args.command,
            "config": config,
            "seed": seed,
            "tool_version": __version__,
            "outputs": outputs,
            "duration_seconds": time.perf_counter() - t0,
            "environment": _run_environment(held, workers),
        })
        return 0
    except (StructuralError, OSError) as exc:
        code, error = 2, exc
    except DomainError as exc:
        code, error = 3, exc
    print(f"hdtest: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
