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
from .spectral import SpectralDecomposition, _integer, _pop_diag, weighted_norms

SQRT5 = math.sqrt(5.0)

# Below this magnitude the log argument's numerator/denominator is treated as
# an exact hit on the removable singularity |lambda - lambda_j| = sqrt(5)*h_j,
# where the bracket vanishes and the product term's limit is 0.
_LOG_GUARD = 1e-300

# Entries per work buffer: the kernel sums take their points, and the loading
# scan its points, in row chunks of about this many entries, so the working
# set stays a few buffers of at most 512 KiB whatever the sizes.
_KERNEL_CHUNK = 1 << 16


def _kernel_sums(lams: np.ndarray, evals: np.ndarray, n: int):
    """Vectorized kernel sums a(lambda), b(lambda) at many evaluation points.

    `evals` are the retained sample eigenvalues, each strictly positive, with
    bandwidths h_j = n**(-1/3) * lambda_j.  For each, with
    x_j = (lambda - lambda_j)/h_j:

      a gets  -3 x_j / (10 pi h_j)
              + 3/(4 sqrt5 pi h_j) * (1 - x_j^2/5) * log|(sqrt5 - x_j)/(sqrt5 + x_j)|
      b gets  3/(4 sqrt5 h_j) * max(1 - x_j^2/5, 0)

    b is a sum of unit-mass compactly supported bumps, hence >= 0 with total
    mass equal to the retained count.  At |x_j| = sqrt5 the log diverges but
    the bracket vanishes; the product's limit is 0, which the guard enforces
    when floating point lands exactly on the singularity.

    The points run in row chunks through four reused work buffers, each step
    an in-place ufunc with the operands and rounding of the one-shot
    expression, and each row reduced whole; so the sums have the same bits
    as that expression at any chunk size.
    """
    lams = np.asarray(lams, dtype=float)
    k, m = lams.size, evals.size
    h = float(n) ** (-1.0 / 3.0) * evals
    sqrt5_h = SQRT5 * h
    log_scale = 3.0 / (4.0 * SQRT5 * math.pi * h)
    lin_scale = 10.0 * math.pi * h
    bump_scale = 3.0 / (4.0 * SQRT5 * h)
    a, b = np.empty(k), np.empty(k)
    rows = max(1, _KERNEL_CHUNK // m)
    bufs = np.empty((4, min(rows, k), m))
    for i in range(0, k, rows):
        lam = lams[i : i + rows, None]
        x, t, num, den = bufs[:, : lam.shape[0]]
        np.subtract(lam, evals, out=x)
        x /= h
        np.multiply(x, 0.2, out=t)
        t *= x
        bracket = np.subtract(1.0, t, out=t)
        np.subtract(sqrt5_h, lam, out=num)
        num += evals
        np.add(sqrt5_h, lam, out=den)
        den -= evals
        np.abs(num, out=num)
        np.abs(den, out=den)
        guarded = (num < _LOG_GUARD) | (den < _LOG_GUARD)
        with np.errstate(divide="ignore", invalid="ignore"):
            logterm = np.divide(num, den, out=num)
            np.log(logterm, out=logterm)
            prod = np.multiply(log_scale, bracket, out=den)
            prod *= logterm
        prod[guarded] = 0.0
        x *= -3.0
        x /= lin_scale
        x += prod
        np.sum(x, axis=1, out=a[i : i + rows])
        np.maximum(bracket, 0.0, out=bracket)
        bracket *= bump_scale
        np.sum(bracket, axis=1, out=b[i : i + rows])
    return a, b


def shrink_eigenvalues(
    decomp: SpectralDecomposition, n: int, p: int
) -> np.ndarray:
    """Map each sample eigenvalue to its shrunk value (elementwise, same order).

    Positive eigenvalues map through

        d_i = lambda_i / |1 - c - c * lambda_i * s(lambda_i)|**2,  c = min(n, p)/n,

    s = pi (a + i b) / min(n, p): c = p/n below p = n, and above it c = 1 gives
    Ledoit and Peche's 1 / (lambda_i |s|**2).  Zero eigenvalues (only when
    p > n) map to Ledoit and Wolf's (2020) target 1 / ((p/n - 1) pi a(0)/n);
    there lw's null Z still has mean about 0.2 (variance about 2.1 at order 4).
    The kernel sums run over the retained set, the largest min(n, p)
    eigenvalues: when p > n the p - n trailing zeros of the rank-deficient
    sample covariance are dropped, and every retained eigenvalue must be
    strictly positive.  The aspect ratio p == n is rejected.  n and p are
    integers (else StructuralError).
    """
    n, p = _integer("n", n), _integer("p", p)
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
    if evs.size == 0:
        raise DomainError("empty eigenvalue set")
    m = min(n, p)
    c = m / n
    retained = evs[:m]
    if np.any(retained <= 0.0):
        raise DegenerateSpectrumError(
            "retained sample eigenvalues must be strictly positive"
        )
    out = np.empty(p, dtype=float)
    pos = evs > 0.0
    k = np.count_nonzero(pos)
    # Zeros pass the retained-set check only past that set, when p > n;
    # their common target needs a(0), one more point of the same kernel sums.
    lams = np.append(evs[pos], 0.0) if k < p else evs[pos]
    a, b = _kernel_sums(lams, retained, n)
    s = math.pi * (a[:k] + 1j * b[:k]) / m
    denom = np.abs(1.0 - c - c * lams[:k] * s) ** 2
    out[pos] = lams[:k] / denom
    if k < p:
        denom0 = (p / n - 1.0) * math.pi * a[k] / n
        if denom0 <= 0.0:
            raise DegenerateSpectrumError(
                "zero-eigenvalue shrinkage target is non-positive"
            )
        out[~pos] = 1.0 / denom0
    if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
        raise DegenerateSpectrumError("shrunk eigenvalues are not finite and positive")
    return out


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
    with w_i = (U'RU)_ii precomputed once (spectral.weighted_norms), each
    evaluation costs O(p), and the scan's points are evaluated together in
    blocks of at most _KERNEL_CHUNK entries.  A
    range-plus-null decomposition carries the null space's total weight,
    tr R minus the range w_i.  The search scans 64 points of log-lambda over
    [log(1e-6 m), log(1e6 m)], m = tr(S)/p, then refines the bracketing
    interval by golden section to absolute log-tolerance 1e-6.
    """
    diag = _pop_diag(pop, decomp.p)
    lam = decomp.eigenvalues
    m = float(lam.mean())
    if m <= 0.0:
        raise DegenerateSpectrumError("zero-trace matrix has no loading optimum")
    w = weighted_norms(decomp, diag)
    p = decomp.p
    if w.size < p:
        # Range-plus-null form: every null direction has eigenvalue 0, so only
        # the null weights' sum tr R - sum(w) enters; it rides on one slot.
        w = np.concatenate((w, [diag.sum() - w.sum()], np.zeros(p - w.size - 1)))
    evaluations = 0
    rows = max(1, _KERNEL_CHUNK // p)

    def snr(ts) -> list:
        """The proxy at each log-loading t in ts.  The points run in blocks
        of at most `rows`; a block's row holds 1/(lam + e^t) and reduces as
        one length-p vector, and the rest is float arithmetic, so a point
        has the same bits in any block as alone."""
        nonlocal evaluations
        evaluations += len(ts)
        vals = []
        for i in range(0, len(ts), rows):
            inv = np.add.outer([math.exp(t) for t in ts[i : i + rows]], lam)
            np.divide(1.0, inv, out=inv)
            weighted = w * inv
            weighted *= inv
            for tri, s in zip(inv.sum(axis=1).tolist(), weighted.sum(axis=1).tolist()):
                den = p * s
                val = tri * tri / den if den > 0.0 else math.nan
                if not math.isfinite(val):
                    raise DomainError("SNR proxy is not finite: the spectrum's scale leaves the float range")
                vals.append(val)
        return vals

    def g(t: float) -> float:
        return snr((t,))[0]

    lo = math.log(m / _RANGE_DECADES)
    hi = math.log(m * _RANGE_DECADES)
    if not math.isfinite(hi):
        raise DomainError(f"loading scan range overflows at mean eigenvalue {m:.3g}")
    ts = np.linspace(lo, hi, _SCAN_POINTS)
    vals = snr(ts.tolist())
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
