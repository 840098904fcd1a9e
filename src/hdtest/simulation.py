"""Seeded Monte Carlo harness: covariance family, data generation, ROC curves.

A run is a pure function of its configuration.  Per-trial randomness comes
from seed streams derived as SeedSequence([seed, stream, trial, hypothesis]),
so results are bit-identical at any worker count: each worker loops, taking
(trial, hypothesis) pairs in order under the run's one lock, and each pair
writes its own preallocated slot.  numpy's OpenBLAS is held at one thread
while the engine runs.  A detector that fails its precondition is not
scored on later trials, and its first failure in trial order is the one
reported; a pair that no detector still needs is skipped, never drawn.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .detectors import _DETECTORS, DetectorKind
from .errors import DomainError, StructuralError
from .spectral import (
    _finite_array, _instance, _integer, _pop_diag, _readonly, _real, _take, _workspace_pair,
    _write_csv,
)
# Pairs form their own SCM; pooled_scm stays importable here because
# perfbench/test_perfbench.py checks that its tracer rewraps it here.
from .spectral import pooled_scm  # noqa: F401

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SPIKE_BLOCK = 40

# Stream tags for SeedSequence derivation; fixed forever for reproducibility.
_MODEL_STREAM = 1
_TRIAL_STREAM = 2

_BASE_DISTS = ("uniform", "gaussian")


def make_covariance(order: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """The order-P diagonal population covariance, as its read-only diagonal.

    diag_j = 10**((41-j)*P/40) + eps_j for j = 1..40 with eps_j iid U[0,1],
    and exactly 1.0 beyond the block.  For p < 40 the spike block is
    truncated to p (with a warning); the eps draw is sized to the truncated
    block.  order and p are integers (else StructuralError).  An order whose
    spike leaves the float range raises DomainError.
    """
    order, p = _integer("order", order), _integer("p", p)
    _instance("rng", rng, np.random.Generator)
    if p < 1:
        raise StructuralError(f"dimension must be >= 1, got {p}")
    if order < 0:
        raise DomainError(f"covariance order must be >= 0, got {order}")
    k = min(p, SPIKE_BLOCK)
    if p < SPIKE_BLOCK:
        warnings.warn(
            f"spike block truncated from {SPIKE_BLOCK} to p={p}", stacklevel=2
        )
    eps = rng.uniform(0.0, 1.0, size=k)
    j = np.arange(1, k + 1)
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        head = 10.0 ** ((SPIKE_BLOCK + 1 - j) * order / SPIKE_BLOCK) + eps
    if not np.all(np.isfinite(head)):
        raise DomainError(
            f"covariance order {order} overflows: the spike 10**{order} leaves the float range"
        )
    return _readonly(np.concatenate([head, np.ones(p - k)]))


def sample_sphere(p: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the sphere of the given radius (normalized Gaussian)."""
    p, radius = _integer("p", p), _real("radius", radius)
    _instance("rng", rng, np.random.Generator)
    if p < 1:
        raise StructuralError(f"dimension must be >= 1, got {p}")
    if not (math.isfinite(radius) and radius >= 0.0):
        raise DomainError(f"radius must be finite and >= 0, got {radius}")
    if radius == 0.0:
        return np.zeros(p)
    while True:
        v = rng.standard_normal(p)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            return (radius / norm) * v


def generate_sample(
    diag: np.ndarray,
    mean: np.ndarray,
    n: int,
    rng: np.random.Generator,
    base_dist: str = "uniform",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Color iid mean-0 variance-1 noise by sqrt(diag) and shift by the mean.

    `diag` is the population covariance's diagonal, checked by _pop_diag.
    The default base distribution is uniform on [-sqrt(3), sqrt(3)]; the
    gaussian variant draws standard normals instead.  n is an integer >= 1.
    The p x n draw is made in `out` (a writable, contiguous float64 array of
    that shape) if given, and returned read-only, frozen in place.
    """
    diag = _pop_diag(diag)
    p, n = diag.size, _integer("n", n)
    _instance("rng", rng, np.random.Generator)
    if n < 1:
        raise StructuralError(f"n must be >= 1, got {n}")
    mean = _finite_array(mean, "mean")
    if mean.shape != (p,):
        raise StructuralError(f"mean must have shape ({p},), got {mean.shape}")
    if base_dist not in _BASE_DISTS:
        raise StructuralError(f"unknown base distribution {base_dist!r}")
    u = np.empty((p, n)) if out is None else out
    if not (isinstance(u, np.ndarray) and (u.shape, u.dtype) == ((p, n), np.float64)):
        got = f"{u.shape} {u.dtype}" if isinstance(u, np.ndarray) else type(u).__name__
        raise StructuralError(f"out must have shape {(p, n)} and dtype float64, got {got}")
    if not (u.flags.behaved and (u.flags.c_contiguous or u.flags.f_contiguous)):
        raise StructuralError("out must be writable, aligned and contiguous")
    if base_dist == "uniform":
        # the bits of rng.uniform(-SQRT3, SQRT3): -SQRT3 + (2 * SQRT3) * random()
        rng.random(out=u)
        u *= 2.0 * SQRT3
        u -= SQRT3
    else:
        rng.standard_normal(out=u)
    u *= np.sqrt(diag)[:, None]
    if mean.any():  # adding an all-zero mean changes no entry
        u += mean[:, None]
    return _readonly(u)


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of a Monte Carlo run; the seed makes it reproducible."""

    p: int = 200
    n1: int = 150
    n2: int = 150
    cov_order: int = 0
    trials: int = 2000
    seed: int = 0
    radius: float = 1.0
    detectors: tuple = tuple(DetectorKind)
    base_dist: str = "uniform"

    def __post_init__(self):
        for name in ("p", "n1", "n2", "cov_order", "trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "radius", _real("radius", self.radius))
        if self.p < 1:
            raise StructuralError(f"p must be >= 1, got {self.p}")
        if self.n1 < 2 or self.n2 < 2:
            raise StructuralError("n1 and n2 must both be >= 2")
        if self.trials < 1:
            raise StructuralError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise StructuralError("seed must be a non-negative integer")
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise StructuralError(f"radius must be finite and >= 0, got {self.radius}")
        if self.cov_order < 0:
            raise StructuralError(f"cov order must be >= 0, got {self.cov_order}")
        if self.base_dist not in _BASE_DISTS:
            raise StructuralError(f"base_dist must be one of {_BASE_DISTS}")
        if isinstance(self.detectors, str) or not hasattr(self.detectors, "__iter__"):
            raise StructuralError(f"detectors must be a sequence of names, not {self.detectors!r}")
        kinds = tuple(map(DetectorKind, self.detectors))
        if not kinds:
            raise StructuralError("at least one detector is required")
        if len(set(kinds)) < len(kinds):
            raise StructuralError(f"repeated detector in {[k.value for k in kinds]}")
        object.__setattr__(self, "detectors", kinds)

    def as_dict(self) -> dict:
        return {**asdict(self), "detectors": [k.value for k in self.detectors]}


def trial_seed(seed: int, trial: int, hypothesis: int) -> list:
    """Entropy words for the given trial's stream; the derivation contract."""
    return [seed, _TRIAL_STREAM, trial, hypothesis]


def _trial_rng(seed: int, trial: int, hypothesis: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(trial_seed(seed, trial, hypothesis)))


def model_seed(seed: int) -> list:
    return [seed, _MODEL_STREAM]


def thread_count() -> int:
    """Worker-thread cap: HDTEST_THREADS if set, else the number of CPUs
    this process may run on (its affinity set, where the platform has one)."""
    env = os.environ.get("HDTEST_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring invalid HDTEST_THREADS={env!r}", stacklevel=2)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The hypotheses each engine entry point runs: run_trials draws an H0 and an
# H1 pair per trial, null_z_samples only the H0 pair.
SIMULATE_HYPOTHESES = (0, 1)
NULL_HYPOTHESES = (0,)


def worker_count(trials: int, hypotheses: tuple) -> int:
    """Threads an engine run uses: thread_count(), at most one per (trial, hypothesis) pair."""
    return min(thread_count(), trials * len(hypotheses))


class _OpenBlas(NamedTuple):
    name: str
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _find_openblas() -> tuple:
    """numpy's bundled OpenBLAS, the one BLAS hdtest calls, as a 1-tuple (else empty).

    Found in /proc/self/maps at the first call, not at import (by then
    importing numpy has loaded it), as the mapped OpenBLAS that exports the
    64-bit interface's thread-count pair (a maps line's path is all of its
    sixth field, so it may hold spaces).  scipy's copy, which a caller that
    imports scipy.linalg loads, exports neither symbol: it never runs
    hdtest's arithmetic, so its thread count is left alone.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = [line for line in fh if "openblas" in line.lower()]
    except OSError:
        return ()
    for path in sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in lines}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return (_OpenBlas(os.path.basename(path), get, set_),)
    return ()


def blas_threads() -> dict:
    """Library file name -> current thread count, for the OpenBLAS found."""
    return {lib.name: lib.get() for lib in _find_openblas()}


# The hold's state is per process because OpenBLAS's thread count is.
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_saved: list = []  # (library, thread count before the first holder)


@contextlib.contextmanager
def blas_pinned():
    """Hold numpy's OpenBLAS at one thread; yields blas_threads() inside.

    The hold is reference-counted: the first holder saves the counts and sets
    1, and only the last one out restores them, so nested and concurrent
    engine calls share it.  Does nothing where no OpenBLAS thread-count symbol
    is found.
    """
    global _pin_holders, _pin_saved
    with _pin_lock:
        if _pin_holders == 0:
            _pin_saved = [(lib, lib.get()) for lib in _find_openblas()]
            for lib, _ in _pin_saved:
                lib.set(1)
        _pin_holders += 1
        held = {lib.name: lib.get() for lib, _ in _pin_saved}
    try:
        yield held
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                for lib, n in _pin_saved:
                    lib.set(n)


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Scores for both hypotheses, one column per surviving detector (compared by identity)."""

    config: SimulationConfig
    diag: np.ndarray
    h0: dict
    h1: dict
    absent: dict = field(default_factory=dict)

    def present(self) -> tuple:
        return tuple(k for k in self.config.detectors if k in self.h0)


def _run(config: SimulationConfig, hypotheses: tuple) -> tuple:
    """The trial engine: (diag, scores, failures).

    scores holds one {detector: array} per hypothesis; the (trial, hypothesis)
    pair (t, h) writes slot t of hypothesis h's arrays.
    Trial t under hypothesis h draws from its own stream trial_seed(seed, t, h):
    under H0 both group means are zero, and under H1 the group 1 mean is
    drawn first, fresh from the radius sphere.  The population diagonal's
    eps draws are fixed once per run.

    Each of worker_count(trials, hypotheses) threads loops with BLAS held at
    one thread, taking the next (t, h) in order under the run's one lock,
    which also guards failures: each detector that raised a DomainError ->
    its first failure in (t, h) order, keyed in order of that t, then of
    config.detectors.  A pair is taken with the detectors that have not
    failed at an earlier (t, h), so that first failure is found at any
    worker count, and a pair none needs is skipped, never drawn.  Any other
    error stops every worker from taking another pair, and propagates.

    Each worker forms its pairs in one workspace (see _workspace_pair) that
    lives as long as the run, so a pair reuses its predecessor's memory; no
    pair outlives its turn, as a kept failure holds no traceback.
    """
    model_rng = np.random.default_rng(np.random.SeedSequence(model_seed(config.seed)))
    diag = make_covariance(config.cov_order, config.p, model_rng)
    zeros = np.zeros(config.p)
    scores = {h: {k: np.empty(config.trials) for k in config.detectors} for h in hypotheses}
    first = {}  # detector -> ((trial, hypothesis), error), the earliest failure so far
    pairs = iter([(t, h) for t in range(config.trials) for h in hypotheses])
    lock = threading.Lock()  # guards pairs and first

    def take():
        with lock:
            for t, h in pairs:
                kinds = [k for k in config.detectors if k not in first or first[k][0] > (t, h)]
                if kinds:
                    return t, h, kinds
        return None

    def work(_) -> None:
        nonlocal pairs
        ws = {}
        for t, h, kinds in iter(take, None):
            try:
                rng = _trial_rng(config.seed, t, h)
                mu = sample_sphere(config.p, config.radius, rng) if h else zeros
                x1 = _take(ws, "x1", (config.p, config.n1))
                x1 = generate_sample(diag, mu, config.n1, rng, config.base_dist, out=x1)
                x2 = _take(ws, "x2", (config.p, config.n2))
                x2 = generate_sample(diag, zeros, config.n2, rng, config.base_dist, out=x2)
                pair = _workspace_pair(x1, x2, ws)
                for kind in kinds:
                    try:
                        scores[h][kind][t] = _DETECTORS[kind](pair, diag).score
                    except DomainError as exc:
                        with lock:
                            if kind not in first or first[kind][0] > (t, h):
                                first[kind] = ((t, h), exc.with_traceback(None))
                del pair
            except BaseException:
                with lock:
                    pairs = iter(())
                raise

    workers = worker_count(config.trials, hypotheses)
    with blas_pinned(), ThreadPoolExecutor(workers) as pool:
        list(pool.map(work, range(workers)))
    order = sorted(first, key=lambda k: (first[k][0][0], config.detectors.index(k)))
    return diag, tuple(scores.values()), {k: first[k][1] for k in order}


def run_trials(config: SimulationConfig) -> ScoreTable:
    """Run the full two-hypothesis Monte Carlo described by the config.

    Each trial draws an independent H0 pair and an independent H1 pair.  A
    detector that failed its precondition on any trial is dropped entirely,
    with the first failure in trial order as the reason.
    """
    _instance("config", config, SimulationConfig)
    diag, scores, failures = _run(config, SIMULATE_HYPOTHESES)
    h0, h1 = ({k: _readonly(v) for k, v in s.items() if k not in failures} for s in scores)
    absent = {k: str(exc) for k, exc in failures.items()}
    return ScoreTable(config=config, diag=diag, h0=h0, h1=h1, absent=absent)


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Empirical ROC from threshold sweeping, plus its trapezoidal AUC; fpr and
    tpr are kept as read-only copies, and curves compare by identity."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float = field(init=False)

    def __post_init__(self):
        fpr = _readonly(np.array(_finite_array(self.fpr, "ROC points")))
        tpr = _readonly(np.array(_finite_array(self.tpr, "ROC points")))
        if fpr.shape != tpr.shape or fpr.ndim != 1 or fpr.size < 2:
            raise StructuralError("inconsistent ROC point arrays")
        if np.any(np.diff(fpr) < 0.0) or np.any(np.diff(tpr) < 0.0):
            raise StructuralError("ROC points must be monotone non-decreasing")
        if not (fpr[0] == 0.0 and tpr[0] == 0.0 and fpr[-1] == 1.0 and tpr[-1] == 1.0):
            raise StructuralError("ROC must run from (0,0) to (1,1)")
        object.__setattr__(self, "fpr", fpr)
        object.__setattr__(self, "tpr", tpr)
        object.__setattr__(self, "auc", _trapezoid(fpr, tpr))


def _trapezoid(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) * 0.5))


def roc_curve(h0_scores: np.ndarray, h1_scores: np.ndarray) -> RocCurve:
    """Sweep thresholds down the distinct pooled scores; point = fraction at or above.

    After a leading (0,0), each distinct threshold moves at least one
    coordinate, so tied scores make one step, and the lowest one gives (1,1).
    """
    h0, h1 = _finite_array(h0_scores, "scores"), _finite_array(h1_scores, "scores")
    if h0.ndim != 1 or h1.ndim != 1 or h0.size == 0 or h1.size == 0:
        raise StructuralError("both score samples must be nonempty vectors")
    pooled = np.sort(np.concatenate([h0, h1]))  # np.unique would import numpy.ma
    thresholds = pooled[np.append(pooled[1:] != pooled[:-1], True)][::-1]
    fpr = np.concatenate([[0.0], (h0.size - np.searchsorted(np.sort(h0), thresholds)) / h0.size])
    tpr = np.concatenate([[0.0], (h1.size - np.searchsorted(np.sort(h1), thresholds)) / h1.size])
    return RocCurve(fpr, tpr)


class NormalitySummary(NamedTuple):
    mean: float
    variance: float
    ks_statistic: float


def normality_check(z: np.ndarray) -> NormalitySummary:
    """Sample mean, sample variance, and the KS distance to a standard normal.

    KS is the sup over sample points of both one-sided gaps between the
    empirical CDF and the standard normal CDF.
    """
    z = _finite_array(z, "values")
    if z.ndim != 1 or z.size < 2:
        raise StructuralError("need at least 2 values")
    mean = float(z.mean())
    variance = float(z.var(ddof=1))
    zs = np.sort(z)
    cdf = np.array([0.5 * math.erfc(-v / SQRT2) for v in zs])
    i = np.arange(1, zs.size + 1)
    d_plus = float(np.max(i / zs.size - cdf))
    d_minus = float(np.max(cdf - (i - 1) / zs.size))
    return NormalitySummary(mean, variance, max(d_plus, d_minus))


def null_z_samples(config: SimulationConfig) -> np.ndarray:
    """Z scores of the shrinkage detector over H0-only trials.

    Runs the trial engine on the H0 streams of run_trials with lw alone, so
    a null check is consistent with the matching simulate run.  The first
    precondition failure in trial order is raised.
    """
    _instance("config", config, SimulationConfig)
    lw = DetectorKind.PROPOSED_LW
    _, (scores,), failures = _run(replace(config, detectors=(lw,)), NULL_HYPOTHESES)
    if lw in failures:
        raise failures[lw]
    return scores[lw]


def write_scores_csv(table: ScoreTable, path) -> None:
    """Write (trial, hypothesis, detector, score) rows at full precision."""
    _instance("table", table, ScoreTable)
    columns = [
        (tag, kind.value, scores[kind].tolist())
        for tag, scores in (("h0", table.h0), ("h1", table.h1))
        for kind in table.config.detectors
        if kind in scores
    ]
    trials = range(table.config.trials)
    rows = ((str(t), tag, name, s[t]) for t in trials for tag, name, s in columns)
    _write_csv(path, "trial,hypothesis,detector,score", rows)


def write_roc_csv(curve: RocCurve, path) -> None:
    """Write the curve's (fpr, tpr) points at full precision."""
    _instance("curve", curve, RocCurve)
    _write_csv(path, "fpr,tpr", zip(curve.fpr, curve.tpr))
