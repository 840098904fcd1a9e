"""Analytical nonlinear eigenvalue shrinkage and the diagonal-loading search.

The covariance estimator keeps the sample eigenvectors and replaces each
sample eigenvalue with a shrunk value driven by a kernel-smoothed estimate of
the spectral density and its Hilbert transform.  Both kernel sums are exact
closed forms evaluated by direct summation over the retained eigenvalues, so
no numerical integration happens at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    DomainError,
    StructuralError,
    UnsupportedAspectRatioError,
)
from .spectral import SpectralDecomposition, _readonly, _require_finite

SQRT5 = math.sqrt(5.0)

# Below this magnitude the log argument's numerator/denominator is treated as
# an exact hit on the removable singularity |lambda - lambda_j| = sqrt(5)*h_j,
# where the bracket vanishes and the product term's limit is 0.
_LOG_GUARD = 1e-300


@dataclass(frozen=True)
class KernelContext:
    """Retained sample eigenvalues with their smoothing bandwidths.

    The retained set is the largest min(n, p) eigenvalues; when p > n the
    p - n trailing zeros of the rank-deficient sample covariance are dropped.
    Every retained eigenvalue must be strictly positive, giving bandwidths
    h_j = n**(-1/3) * lambda_j > 0.
    """

    evals: np.ndarray
    bandwidths: np.ndarray
    n: int
    p: int

    @classmethod
    def from_eigenvalues(cls, eigenvalues: np.ndarray, n: int) -> "KernelContext":
        evs = np.asarray(eigenvalues, dtype=float)
        if evs.ndim != 1 or evs.size == 0:
            raise DomainError("empty eigenvalue set")
        _require_finite(evs, "eigenvalues")
        if n < 1:
            raise DomainError(f"effective sample size must be >= 1, got {n}")
        p = evs.size
        retained = evs[: min(n, p)]
        if np.any(retained <= 0.0):
            raise DegenerateSpectrumError(
                "retained sample eigenvalues must be strictly positive"
            )
        h = float(n) ** (-1.0 / 3.0) * retained
        return cls(_readonly(retained), _readonly(h), int(n), p)


def _kernel_sums(lams: np.ndarray, ctx: KernelContext):
    """Vectorized kernel sums a(lambda), b(lambda) at many evaluation points.

    For each retained eigenvalue, with x_j = (lambda - lambda_j)/h_j:

      a gets  -3 x_j / (10 pi h_j)
              + 3/(4 sqrt5 pi h_j) * (1 - x_j^2/5) * log|(sqrt5 - x_j)/(sqrt5 + x_j)|
      b gets  3/(4 sqrt5 h_j) * max(1 - x_j^2/5, 0)

    b is a sum of unit-mass compactly supported bumps, hence >= 0 with total
    mass equal to the retained count.  At |x_j| = sqrt5 the log diverges but
    the bracket vanishes; the product's limit is 0, which the guard enforces
    when floating point lands exactly on the singularity.
    """
    lam = np.asarray(lams, dtype=float)[:, None]
    ev = ctx.evals[None, :]
    h = ctx.bandwidths[None, :]
    x = (lam - ev) / h
    bracket = 1.0 - 0.2 * x * x
    num = SQRT5 * h - lam + ev
    den = SQRT5 * h + lam - ev
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.log(np.abs(num) / np.abs(den))
        prod = (3.0 / (4.0 * SQRT5 * math.pi * h)) * bracket * logterm
    guarded = (np.abs(num) < _LOG_GUARD) | (np.abs(den) < _LOG_GUARD)
    prod = np.where(guarded, 0.0, prod)
    a = np.sum(-3.0 * x / (10.0 * math.pi * h) + prod, axis=1)
    b = np.sum((3.0 / (4.0 * SQRT5 * h)) * np.maximum(bracket, 0.0), axis=1)
    return a, b


def kernel_ab(lam: float, ctx: KernelContext) -> tuple[float, float]:
    """Evaluate the kernel sums (a, b) at a single point."""
    a, b = _kernel_sums(np.array([float(lam)]), ctx)
    return float(a[0]), float(b[0])


def shrink_eigenvalues(
    decomp: SpectralDecomposition, n: int, p: int
) -> np.ndarray:
    """Map each sample eigenvalue to its shrunk value (elementwise, same order).

    Positive eigenvalues map through

        d_i = lambda_i / |1 - p/n - (p/n) * lambda_i * s(lambda_i)|**2

    and (only possible when p > n) zero eigenvalues map to the common value
    1 / ((p/n - 1) * a(0)/n).  The aspect ratio p == n is rejected.
    """
    if p != decomp.p:
        raise StructuralError(f"p={p} disagrees with decomposition size {decomp.p}")
    if n < 1:
        raise DomainError(f"effective sample size must be >= 1, got {n}")
    if p == n:
        raise UnsupportedAspectRatioError(
            f"shrinkage is undefined at aspect ratio p == n (= {p})"
        )
    evs = decomp.eigenvalues
    if np.any(evs < 0.0):
        raise DegenerateSpectrumError("negative sample eigenvalue: input is not PSD")
    ctx = KernelContext.from_eigenvalues(evs, n)
    ratio = p / n
    m = min(n, p)
    out = np.empty(p, dtype=float)
    pos = evs > 0.0
    if np.any(pos):
        a, b = _kernel_sums(evs[pos], ctx)
        s = math.pi * (a + 1j * b) / m
        denom = np.abs(1.0 - ratio - ratio * evs[pos] * s) ** 2
        out[pos] = evs[pos] / denom
    if np.any(~pos):
        # Zero sample eigenvalues survive KernelContext construction only when
        # p > n (they sit past the retained set), so ratio > 1 here.
        a0, _ = kernel_ab(0.0, ctx)
        denom0 = (ratio - 1.0) * a0 / n
        if denom0 <= 0.0:
            raise DegenerateSpectrumError(
                "zero-eigenvalue shrinkage target is non-positive"
            )
        out[~pos] = 1.0 / denom0
    if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
        raise DegenerateSpectrumError("shrunk eigenvalues are not finite and positive")
    return out


@dataclass(frozen=True)
class ShrinkageEstimate:
    """Rotation-equivariant covariance estimate: sample basis, shrunk eigenvalues."""

    basis: np.ndarray
    dhat: np.ndarray
    n: int
    p: int

    def __post_init__(self):
        basis = _readonly(self.basis)
        dhat = _readonly(self.dhat)
        if basis.shape != (self.p, self.p) or dhat.shape != (self.p,):
            raise StructuralError("inconsistent shrinkage-estimate shapes")
        if np.any(dhat <= 0.0) or not np.all(np.isfinite(dhat)):
            raise DomainError("shrunk eigenvalues must be finite and positive")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dhat", dhat)

    def matrix(self) -> np.ndarray:
        """Assemble the dense estimate U diag(dhat) U'."""
        return (self.basis * self.dhat) @ self.basis.T


def lw_covariance(decomp: SpectralDecomposition, n: int, p: int) -> ShrinkageEstimate:
    """Nonlinearly shrunk covariance estimate in the sample eigenbasis."""
    dhat = shrink_eigenvalues(decomp, n, p)
    return ShrinkageEstimate(decomp.eigenvectors, dhat, n, p)


def _pop_diag(pop) -> np.ndarray:
    """Accept a diagonal population covariance as a model object or a vector."""
    diag = np.asarray(getattr(pop, "diag", pop), dtype=float)
    if diag.ndim != 1:
        raise StructuralError("population covariance diagonal must be a vector")
    _require_finite(diag, "population diagonal")
    if np.any(diag <= 0.0):
        raise DomainError("population covariance diagonal must be positive")
    return diag


@dataclass(frozen=True)
class OracleDiagnostics:
    """Per-direction oracle variances and the interval-averaged shrinkage bias."""

    sigma2: np.ndarray
    bias: float


def oracle_diagnostics(
    decomp: SpectralDecomposition,
    dhat: np.ndarray,
    pop,
    interval: tuple[float, float] = (0.0, math.inf),
) -> OracleDiagnostics:
    """Compare shrunk eigenvalues with the oracle variances u_i' R u_i.

    The bias averages (dhat_j - sigma2_j) over the directions whose *sample*
    eigenvalue falls inside the closed interval, normalized by p.  Requires
    the true (diagonal) population covariance, so it is simulation-only.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise StructuralError(f"empty interval [{lo}, {hi}]")
    diag = _pop_diag(pop)
    if diag.size != decomp.p:
        raise StructuralError("population dimension mismatch")
    dhat = np.asarray(dhat, dtype=float)
    if dhat.shape != (decomp.p,):
        raise StructuralError("dhat length mismatch")
    if decomp.eigenvectors.shape[1] != decomp.p:
        raise StructuralError("needs a full eigenbasis, got a range-plus-null decomposition")
    u = decomp.eigenvectors
    sigma2 = (u * u * diag[:, None]).sum(axis=0)
    inside = (decomp.eigenvalues >= lo) & (decomp.eigenvalues <= hi)
    bias = float(np.sum(dhat[inside] - sigma2[inside]) / decomp.p)
    return OracleDiagnostics(_readonly(sigma2), bias)


@dataclass(frozen=True)
class LoadingResult:
    """Outcome of the diagonal-loading search."""

    lambda_star: float
    snr_at_optimum: float
    evaluations: int


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 64
_LOG_TOL = 1e-6
_RANGE_DECADES = 1e6


def optimize_loading(decomp: SpectralDecomposition, pop) -> LoadingResult:
    """Maximize the SNR proxy of A = S + lambda*I over the loading lambda.

    The proxy is the direction-averaged (tr A^{-1})^2 / (p tr(A^{-1} R A^{-1})),
    R the population covariance.  It is evaluated in the eigenbasis of S:
    with w_i = (U'RU)_ii precomputed once, each evaluation costs O(p).  A
    range-plus-null decomposition carries the null space's total weight,
    tr R minus the range w_i.  The search scans 64 points of log-lambda over
    [log(1e-6 m), log(1e6 m)], m = tr(S)/p, then refines the bracketing
    interval by golden section to absolute log-tolerance 1e-6.
    """
    diag = _pop_diag(pop)
    lam = decomp.eigenvalues
    if diag.size != decomp.p:
        raise StructuralError("population dimension mismatch")
    m = float(lam.mean())
    if m <= 0.0:
        raise DegenerateSpectrumError("zero-trace matrix has no loading optimum")
    u = decomp.eigenvectors
    w = (u * u * diag[:, None]).sum(axis=0)
    p = decomp.p
    if w.size < p:
        # Range-plus-null form: every null direction has eigenvalue 0, so only
        # the null weights' sum tr R - sum(w) enters; it rides on one slot.
        w = np.concatenate((w, [diag.sum() - w.sum()], np.zeros(p - w.size - 1)))
    evaluations = 0

    def g(t: float) -> float:
        nonlocal evaluations
        evaluations += 1
        inv = 1.0 / (lam + math.exp(t))
        tri = float(inv.sum())
        t2 = float((w * inv * inv).sum())
        return tri * tri / (p * t2)

    lo = math.log(m / _RANGE_DECADES)
    hi = math.log(m * _RANGE_DECADES)
    ts = np.linspace(lo, hi, _SCAN_POINTS)
    vals = [g(t) for t in ts]
    k = int(np.argmax(vals))
    a = ts[max(k - 1, 0)]
    b = ts[min(k + 1, _SCAN_POINTS - 1)]

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while b - a > _LOG_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    best_t, best_f = max(
        [(ts[k], vals[k]), (c, fc), (d, fd)], key=lambda pair: pair[1]
    )
    return LoadingResult(
        lambda_star=math.exp(best_t),
        snr_at_optimum=float(best_f),
        evaluations=evaluations,
    )
