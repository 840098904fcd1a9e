"""In-memory span tracer for the hdtest engine, installed from outside it.

Each boundary is a public hdtest function.  `install` replaces it, in every
loaded `hdtest` module namespace that holds it, with a wrapper that records a
span: name, start, end, thread, parent and an error flag.  A span's parent is
the enclosing span on the same thread, or else the open engine span, so work
that the engine hands to pool threads still hangs under the engine.  Spans
stay in memory until the run ends; nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from dataclasses import dataclass

# (module, function) pairs; the metric prefix is "module.function".
BOUNDARIES = (
    ("simulation", "run_trials"),
    ("simulation", "null_z_samples"),
    ("simulation", "generate_sample"),
    ("spectral", "pooled_scm"),
    ("spectral", "spectral_decompose"),
    ("shrinkage", "shrink_eigenvalues"),
    ("shrinkage", "optimize_loading"),
    ("detectors", "hotelling_score"),
    ("detectors", "lw_score"),
    ("detectors", "bs96_score"),
    ("detectors", "cq10_score"),
    ("detectors", "lappw_score"),
    ("detectors", "mahalanobis_score"),
    ("simulation", "roc_curve"),
    ("simulation", "write_scores_csv"),
    ("simulation", "write_roc_csv"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in BOUNDARIES)
ENGINES = frozenset({"simulation.run_trials", "simulation.null_z_samples"})
DETECTORS = tuple(n for n in NAMES if n.startswith("detectors."))


def _eigh_gflop(args, result) -> float:
    # Golub & Van Loan's count for the symmetric QR algorithm with
    # eigenvectors: 9 p^3 flops.  Nominal, computed from the shape.
    return 9.0 * result.eigenvalues.size**3 / 1e9


def _scm_gflop(args, result) -> float:
    # Two centred p x n_g products X X' for the two groups: 2 p^2 (n1 + n2).
    pair = args[0]
    return 2.0 * pair.p**2 * (pair.n1 + pair.n2) / 1e9


def _kernel_evals(args, result) -> int:
    # Evaluated points (each positive eigenvalue, plus 0 when zero
    # eigenvalues exist) times the min(n, p) retained eigenvalues.
    decomp, n, p = args[:3]
    ev = decomp.eigenvalues
    points = int((ev > 0.0).sum()) + int(bool((ev == 0.0).any()))
    return points * min(n, p)


def _loading_evals(args, result) -> int:
    return result.evaluations


# Boundary -> (counter name, function of the call's positional args and result).
COUNTERS = {
    "spectral.spectral_decompose": ("gflop", _eigh_gflop),
    "spectral.pooled_scm": ("gflop", _scm_gflop),
    "shrinkage.shrink_eigenvalues": ("kernel_evals", _kernel_evals),
    "shrinkage.optimize_loading": ("evaluations", _loading_evals),
}


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    start: float
    end: float = math.nan
    error: bool = False
    count: float = 0


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self, errors=(), clock=time.perf_counter):
        self.spans: list[Span] = []
        self._errors = tuple(errors)
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._engine: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, engine=False, count=None):
        """Return `fn` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            outer_engine = self._engine
            parent = stack[-1] if stack else outer_engine
            span = Span(next(self._ids), name, threading.get_ident(), parent, self._clock())
            stack.append(span.id)
            if engine:
                self._engine = span.id
            try:
                result = fn(*args, **kwargs)
            except self._errors:
                span.error = True
                raise
            finally:
                span.end = self._clock()
                stack.pop()
                if engine:
                    self._engine = outer_engine
                self.spans.append(span)
            if count is not None:
                span.count = count(args, result)
            return result

        return traced


def install(tracer: Tracer, package: str = "hdtest") -> list:
    """Wrap every boundary in every loaded namespace of `package`.

    Returns the boundary names whose defining function does not exist, so a
    refactor that renames one is reported rather than skipped.
    """
    namespaces = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    missing = []
    for (mod, fn), name in zip(BOUNDARIES, NAMES):
        home = sys.modules.get(f"{package}.{mod}")
        original = getattr(home, fn, None)
        if original is None:
            missing.append(name)
            continue
        counter = COUNTERS.get(name)
        wrapper = tracer.wrap(
            name, original, engine=name in ENGINES, count=counter and counter[1]
        )
        for m in namespaces:
            if getattr(m, fn, None) is original:
                setattr(m, fn, wrapper)
    return missing


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise(spans) -> dict:
    """Per-boundary metrics; every name appears, with calls = 0 if unused."""
    selfs = self_times(spans)
    by_name = {n: [] for n in NAMES}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name, group in by_name.items():
        own = [selfs[s.id] for s in group]
        out[f"{name}.calls"] = len(group)
        out[f"{name}.self_s"] = sum(own)
        out[f"{name}.self_ms_p50"] = 1e3 * percentile(own, 0.50)
        out[f"{name}.self_ms_p99"] = 1e3 * percentile(own, 0.99)
        out[f"{name}.errors"] = sum(s.error for s in group)
        if name in COUNTERS:
            out[f"{name}.{COUNTERS[name][0]}"] = sum(s.count for s in group)
    return out


def engine_span(spans) -> Span | None:
    """The single top-level engine span, or None if there is not exactly one."""
    roots = [s for s in spans if s.name in ENGINES and s.parent is None]
    return roots[0] if len(roots) == 1 else None


def engine_descendants(spans, engine: Span) -> list:
    """Spans whose parent chain reaches `engine` (excluding it)."""
    parent_of = {s.id: s.parent for s in spans}
    out = []
    for s in spans:
        p = s.parent
        while p is not None and p != engine.id:
            p = parent_of.get(p)
        if p == engine.id:
            out.append(s)
    return out


def to_rows(spans, origin: float = 0.0) -> list:
    """JSON-ready span rows with times relative to `origin`."""
    return [
        [s.id, s.name, s.thread, s.parent, s.start - origin, s.end - origin, s.error, s.count]
        for s in spans
    ]


def from_rows(rows) -> list:
    return [Span(*row) for row in rows]
