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
from .spectral import SpectralDecomposition, _instance, _integer, _pop_diag, weighted_norms

SQRT5 = math.sqrt(5.0)

# The kernel sums' scales with h_j taken out: a's linear term, its log
# term's factor -sqrt5/2 relative to it (as -1/(0.4 sqrt5): against the float
# 0.2 and sqrt5 the log term then cancels x to 5e-17, not 1.5e-16), and b's.
_LIN = -3.0 / (10.0 * math.pi)
_LOG_OVER_LIN = -1.0 / (0.4 * SQRT5)
_BUMP = 3.0 / (4.0 * SQRT5)

# The kernel sums' far field, |x| > 10 sqrt5, where the bracket 1 - x^2/5 is
# below -99, and its series' 8 coefficients.
_FAR_BRACKET = -99.0
_SERIES = tuple(2.0 / ((2 * k + 1) * (2 * k + 3)) for k in range(8))

# Entries per work buffer: the kernel sums take their points in row chunks of
# about this many entries, so the working set stays a few buffers of at most
# 512 KiB whatever the sizes.
_KERNEL_CHUNK = 1 << 16


def _kernel_sums(lams: np.ndarray, evals: np.ndarray, n: int):
    """Vectorized kernel sums a(lambda), b(lambda) at many evaluation points.

    `evals` are the retained sample eigenvalues, each strictly positive, with
    bandwidths h_j = n**(-1/3) * lambda_j.  For each, with
    x_j = (lambda - lambda_j)/h_j, formed as (lambda - lambda_j) * (1/h_j):

      a gets  -3/(10 pi h_j) * (x_j - sqrt5/2 * (1 - x_j^2/5) * log|(sqrt5 - x_j)/(sqrt5 + x_j)|)
      b gets  3/(4 sqrt5 h_j) * max(1 - x_j^2/5, 0)

    Each row sums the terms times 1/h_j and takes the constant after the
    sum.  b is a sum of unit-mass compactly supported bumps, hence >= 0 with
    total mass equal to the retained count.  At x_j = +-sqrt5 the log
    diverges but the bracket vanishes; the product's limit is 0.  Where
    floating point lands exactly there the product is not finite, so a chunk
    whose products' sum is not finite has those products set to 0.

    In the far field, |x_j| > 10 sqrt5, a's two parts cancel to about
    -1/(pi (lambda - lambda_j)), and the log's rounding error is multiplied
    by x_j^2.  There a's term is its exact series in u = sqrt5/x_j, w = u^2,

      -3/(sqrt5 pi h_j) * sum_k u^(2k+1)/((2k+1)(2k+3))
          = (-3/(10 pi h_j)) * x_j * w * sum_k 2 w^k/((2k+1)(2k+3)),

    taken over k < 8 (truncation below 1e-17 relative, as w < 0.01) by
    Horner's rule on the far entries alone; b's term is 0 there.

    The points run in row chunks through four reused work buffers, each step
    an in-place ufunc with the operands and rounding of the one-shot
    expression, and each row reduced whole by np.sum; so the sums have the
    same bits as that expression at any chunk size.
    """
    lams = np.asarray(lams, dtype=float)
    k, m = lams.size, evals.size
    inv_h = 1.0 / (float(n) ** (-1.0 / 3.0) * evals)
    a, b = np.empty(k), np.empty(k)
    rows = max(1, _KERNEL_CHUNK // m)
    bufs = np.empty((4, min(rows, k), m))
    far_buf = np.empty(bufs.shape[1:], dtype=bool)
    for i in range(0, k, rows):
        lam = lams[i : i + rows, None]
        x, t, num, den = bufs[:, : lam.shape[0]]
        far = far_buf[: lam.shape[0]]
        np.subtract(lam, evals, out=x)
        x *= inv_h
        np.multiply(x, 0.2, out=t)
        t *= x
        bracket = np.subtract(1.0, t, out=t)
        np.less(bracket, _FAR_BRACKET, out=far)
        np.subtract(SQRT5, x, out=num)
        np.add(SQRT5, x, out=den)
        with np.errstate(divide="ignore", invalid="ignore"):
            prod = np.divide(num, den, out=num)
            np.abs(prod, out=prod)
            np.log(prod, out=prod)
            prod *= bracket
            if not math.isfinite(np.sum(prod)):  # an exact hit on x = +-sqrt5
                prod[~np.isfinite(prod)] = 0.0
        np.maximum(bracket, 0.0, out=bracket)
        bracket *= inv_h
        np.sum(bracket, axis=1, out=b[i : i + rows])
        xf = x[far]  # the far entries' x * w * series(w), w and the sum in free buffers
        w = np.multiply(xf, xf, out=den.reshape(-1)[: xf.size])
        np.divide(5.0, w, out=w)
        acc = np.multiply(w, _SERIES[-1], out=t.reshape(-1)[: xf.size])
        for c in _SERIES[-2:0:-1]:
            acc += c
            acc *= w
        acc += _SERIES[0]
        acc *= w
        acc *= xf
        prod *= _LOG_OVER_LIN
        prod += x
        prod[far] = acc
        prod *= inv_h
        np.sum(prod, axis=1, out=a[i : i + rows])
    a *= _LIN
    b *= _BUMP
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
    _instance("decomposition", decomp, SpectralDecomposition)
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
    cl = (c * math.pi / m) * lams[:k]  # c lambda s = cl (a + i b), in reals
    denom = (1.0 - c - cl * a[:k]) ** 2 + (cl * b[:k]) ** 2
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


_SCAN_POINTS = 64
_LOG_TOL = 1e-6
_RANGE_DECADES = 1e6


def optimize_loading(decomp: SpectralDecomposition, pop) -> LoadingResult:
    """Maximize the SNR proxy of A = S + lambda*I over the loading lambda.

    The proxy is the direction-averaged (tr A^{-1})^2 / (p tr(A^{-1} R A^{-1})),
    R the population covariance: S_1^2 / (p T_2) at log-loading t, with
    S_k = sum u_i^k, T_k = sum w_i u_i^k, u_i = e^t/(lam_i + e^t) in (0, 1] and
    w_i = (U'RU)_ii in the eigenbasis of S (spectral.weighted_norms).  On the
    Gram side the sums run over the r range values plus one null term:
    eigenvalue 0, multiplicity p - r, weight tr R - sum(w).  The search scans
    64 points of t over [log(1e-6 m), log(1e6 m)], m = tr(S)/p, as one array.
    In the bracket of the best point's neighbours, Newton's method solves
    phi'(t) = 2 (T_3/T_2 - S_2/S_1) = 0, phi = 2 log S_1 - log T_2, with phi''
    from S_3 and T_4, and bisects where a step leaves the bracket or does not
    halve, or phi is not concave.  It stops at log-tolerance 1e-6, or at the
    bracket's end where phi' keeps one sign; `evaluations` counts the scan,
    Newton and bisection points.  A negative eigenvalue is a
    DegenerateSpectrumError; a scan range past the float range (its top plus
    lam_1 included), or a proxy past it, a DomainError.
    """
    _instance("decomposition", decomp, SpectralDecomposition)
    diag = _pop_diag(pop, decomp.p)
    lam = decomp.eigenvalues
    if np.any(lam < 0.0):
        raise DegenerateSpectrumError("negative sample eigenvalue: input is not PSD")
    with np.errstate(over="ignore"):  # an infinite mean fails the range check below
        m = float(lam.mean())
    if m <= 0.0:
        raise DegenerateSpectrumError("zero-trace matrix has no loading optimum")
    p = decomp.p
    w = weighted_norms(decomp, diag)
    mult = np.ones(w.size)
    if w.size < p:
        lam = np.append(lam[: w.size], 0.0)
        mult = np.append(mult, p - w.size)
        w = np.append(w, diag.sum() - w.sum())
    # The proxy scales as 1/c with R -> cR: an exact power of two takes w into [0.5, 1).
    scale = math.frexp(float(w.max()))[1]
    w = np.ldexp(w, -scale)
    lo, hi = m / _RANGE_DECADES, m * _RANGE_DECADES
    if lo == 0.0 or not math.isfinite(hi + float(lam.max())):
        way = "underflows" if lo == 0.0 else "overflows"
        raise DomainError(f"loading scan range {way} at mean eigenvalue {m:.3g}")
    ts = np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS)
    e = np.exp(ts)[:, None]
    u = e / (lam + e)
    k = int(np.argmax((u @ mult) ** 2 / ((u * u) @ w)))
    # Newton's sums, one point at a time; du/dt = u - u^2 gives phi''/2.
    weights, pw = np.stack((mult, w)), np.empty((4, lam.size))  # pw: u, u^2, u^3, u^4
    a, b = ts[max(k - 1, 0)], ts[min(k + 1, _SCAN_POINTS - 1)]
    t, step, last, evaluations = float(ts[k]), math.inf, math.inf, _SCAN_POINTS
    while True:
        e = math.exp(t)
        np.divide(e, lam + e, out=pw[0])
        np.multiply(pw[0], pw[0], out=pw[1])
        np.multiply(pw[1], pw[:2], out=pw[2:])
        (s1, s2, s3, _), (_, t2, t3, t4) = (weights @ pw.T).tolist()
        evaluations += 1
        x, y = t3 / t2, s2 / s1
        a, b = (t, b) if x > y else (a, t)
        if abs(step) <= _LOG_TOL or b - a <= _LOG_TOL:
            break
        curve = x - 3.0 * t4 / t2 + 2.0 * x * x - y + 2.0 * s3 / s1 - y * y
        new = t - (x - y) / curve if curve < 0.0 else math.nan
        if not (a < new < b and abs(new - t) <= 0.5 * abs(last)):
            new = 0.5 * (a + b)
        step, last, t = new - t, step, new
    try:
        snr = math.ldexp(s1 * s1 / (p * t2), -scale)
    except OverflowError:
        raise DomainError("SNR proxy overflows: R's scale leaves the float range") from None
    return LoadingResult(math.exp(t), snr, evaluations)
