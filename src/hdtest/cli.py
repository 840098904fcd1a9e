"""Command-line front end: simulate, null-check, and shrink subcommands.

Exit codes: 0 success, 2 usage/validation failures or an unusable file path, 3
mathematical precondition failures; the commands raise and `main` alone maps
an error to its code.  Every successful command writes a manifest capturing
the exact configuration, so a run can be replayed bit-for-bit.
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
    NULL_HYPOTHESES,
    SIMULATE_HYPOTHESES,
    SimulationConfig,
    blas_pinned,
    blas_threads,
    normality_check,
    null_z_samples,
    roc_curve,
    run_trials,
    worker_count,
    write_roc_csv,
    write_scores_csv,
)
from .spectral import (
    SymMatrix,
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
    _add_common(sim)
    sim.add_argument(
        "--detectors",
        default=",".join(k.value for k in DetectorKind),
        help="comma-separated detector names",
    )
    sim.add_argument("--trials", type=int, default=2000, help="trials per hypothesis")
    sim.add_argument("--radius", type=float, default=1.0, help="mean-shift sphere radius")

    null = sub.add_parser("null-check", help="null distribution of the shrinkage Z score")
    _add_common(null, p=200, n1=200, n2=200, cov_order=4)
    null.add_argument("--trials", type=int, default=1000, help="number of null trials")

    shrink = sub.add_parser("shrink", help="shrink a sample covariance matrix from CSV")
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
        choices=("uniform", "gaussian"),
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


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    names = tuple(d.strip() for d in args.detectors.split(",") if d.strip())
    config = _build_config(args, detectors=names, radius=args.radius)
    os.makedirs(args.out_dir, exist_ok=True)
    with blas_pinned() as held:
        table = run_trials(config)

    scores_path = os.path.join(args.out_dir, "scores.csv")
    write_scores_csv(table, scores_path)
    outputs = [scores_path]
    curves = {}
    for kind in table.present():
        curves[kind] = roc_curve(table.h0[kind], table.h1[kind])
        roc_path = os.path.join(args.out_dir, f"roc_{kind.value}.csv")
        write_roc_csv(curves[kind], roc_path)
        outputs.append(roc_path)

    summary = {
        "covariance": {
            "order": table.model.order,
            "seed": list(table.model.seed) if table.model.seed else None,
            "diag": [float(x) for x in table.model.diag],
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
    }
    workers = worker_count(config.trials, SIMULATE_HYPOTHESES)
    _write_summary_and_manifest(args, config, summary, outputs, t0, held, workers)
    for kind in curves:
        print(f"{kind.value}: auc={curves[kind].auc:.4f}")
    for kind, reason in table.absent.items():
        print(f"{kind.value}: absent ({reason})")
    return 0


def cmd_null_check(args) -> int:
    t0 = time.perf_counter()
    config = _build_config(args, detectors=(DetectorKind.PROPOSED_LW,))
    if config.trials < 2:  # the normality summary needs two Z values
        raise StructuralError(f"--trials must be >= 2 for a null check, got {config.trials}")
    os.makedirs(args.out_dir, exist_ok=True)
    with blas_pinned() as held:
        z = null_z_samples(config)
    stats = normality_check(z)

    samples_path = os.path.join(args.out_dir, "z_samples.csv")
    with open(samples_path, "w", encoding="utf-8") as fh:
        fh.write("z\n")
        for v in z:
            fh.write(repr(float(v)) + "\n")

    counts, edges = np.histogram(z, bins=_HIST_BINS, range=_HIST_RANGE)
    width = edges[1] - edges[0]
    hist_path = os.path.join(args.out_dir, "z_hist.csv")
    with open(hist_path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count,density,normal_density\n")
        for i in range(_HIST_BINS):
            center = 0.5 * (edges[i] + edges[i + 1])
            density = counts[i] / (z.size * width)
            normal = math.exp(-0.5 * center * center) / math.sqrt(2.0 * math.pi)
            fh.write(
                f"{repr(float(edges[i]))},{repr(float(edges[i + 1]))},"
                f"{counts[i]},{repr(float(density))},{repr(float(normal))}\n"
            )

    workers = worker_count(config.trials, NULL_HYPOTHESES)
    outputs = [samples_path, hist_path]
    _write_summary_and_manifest(args, config, stats._asdict(), outputs, t0, held, workers)
    print(
        f"null z: mean={stats.mean:.4f} variance={stats.variance:.4f} "
        f"ks={stats.ks_statistic:.4f}"
    )
    return 0


def cmd_shrink(args) -> int:
    t0 = time.perf_counter()
    if args.n < 1:
        raise StructuralError(f"--n must be >= 1, got {args.n}")
    sym = SymMatrix(read_matrix_csv(args.matrix))
    with blas_pinned() as held:
        decomp = spectral_decompose(sym)
        dhat = shrink_eigenvalues(decomp, args.n, sym.p)
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
    outputs = [dhat_path, rlw_path]
    _write_manifest(f"{prefix}manifest.json", args.command, config, 0, outputs, t0, held, 1)
    return 0


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


def _write_summary_and_manifest(args, config, summary, outputs, t0, held, workers):
    """Write summary.json, then manifest.json listing every output, into --out-dir."""
    path = os.path.join(args.out_dir, "summary.json")
    _write_json_atomic(path, {"command": args.command, "config": config.as_dict(), **summary})
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"), args.command, config.as_dict(), config.seed,
        outputs + [path], t0, held, workers,
    )


def _write_manifest(path, command, config, seed, outputs, t0, held, workers) -> None:
    _write_json_atomic(path, {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "outputs": outputs,
        "duration_seconds": time.perf_counter() - t0,
        "environment": _run_environment(held, workers),
    })


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "null-check":
            return cmd_null_check(args)
        return cmd_shrink(args)
    except (StructuralError, OSError) as exc:
        code, error = 2, exc
    except DomainError as exc:
        code, error = 3, exc
    print(f"hdtest: error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
