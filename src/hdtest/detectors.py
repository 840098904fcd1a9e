"""Two-sample mean-shift test statistics.

Every detector consumes a SamplePair and returns a ScoreResult whose score is
oriented so that larger means more evidence of a mean difference.  Exact
prefactor conventions:

  mahalanobis:  (xbar1-xbar2)' R^{-1} (xbar1-xbar2)            (no prefactor)
  hotelling:    (xbar1-xbar2)' S_n^{-1} (xbar1-xbar2)          (no prefactor)
  lw:           Z = (T2 - p)/sqrt(2p), T2 = k*(diff)' Rhat^{-1} (diff)
  bs96:         [k*||diff||^2 - tr S_n] / sqrt((2(n+1)/n) * B_n)
  cq10:         cross-product U-statistic on the raw (uncentered) columns
  lappw:        k*(diff)' (S_n + lambda* I)^{-1} (diff)

with k = n1*n2/(n1+n2) and n = n1+n2-2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DomainError,
    SingularCovarianceError,
    StructuralError,
)
from .shrinkage import _pop_diag, optimize_loading, shrink_eigenvalues
# Detectors read pair.scm; pooled_scm stays importable here because
# perfbench/test_perfbench.py checks that its tracer rewraps it here.
from .spectral import SamplePair, pooled_scm, quad_form_inverse  # noqa: F401

# Relative eigenvalue floor below which the plain sample covariance is
# declared numerically singular for the classical statistic.
HOTELLING_SINGULARITY_TOL = 1e-12


class DetectorKind(enum.Enum):
    """Detector identities; values are the stable CLI / serialization names."""

    HOTELLING = "hotelling"
    PROPOSED_LW = "lw"
    BS96 = "bs96"
    CQ10 = "cq10"
    LAPPW = "lappw"
    MAHALANOBIS_ORACLE = "oracle"

    @classmethod
    def from_name(cls, name: str) -> "DetectorKind":
        for kind in cls:
            if kind.value == name:
                return kind
        known = ", ".join(k.value for k in cls)
        raise StructuralError(f"unknown detector {name!r} (known: {known})")


@dataclass(frozen=True)
class ScoreResult:
    """A detector decision value plus auxiliary diagnostics."""

    kind: DetectorKind
    score: float
    aux: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise DomainError(f"{self.kind.value} produced a non-finite score")


def mahalanobis_score(pair: SamplePair, pop_cov) -> ScoreResult:
    """Clairvoyant detector: ||diff / sqrt(diag)||^2 in O(p) for the true
    diagonal population covariance, given as its diagonal vector."""
    y = pair.mean_diff / np.sqrt(_pop_diag(pop_cov, pair.p))
    return ScoreResult(DetectorKind.MAHALANOBIS_ORACLE, float(y @ y))


def hotelling_score(pair: SamplePair) -> ScoreResult:
    """Classical statistic on the inverse pooled sample covariance.

    Requires p <= n and a numerically nonsingular S_n.
    """
    if pair.p > pair.n:
        raise SingularCovarianceError(
            f"sample covariance is singular for p={pair.p} > n={pair.n}"
        )
    decomp = pair.decomposition
    lam = decomp.eigenvalues
    if lam[0] <= 0.0 or lam[-1] < HOTELLING_SINGULARITY_TOL * lam[0]:
        raise SingularCovarianceError("pooled sample covariance is numerically singular")
    score = quad_form_inverse(decomp, lam, pair.mean_diff)
    return ScoreResult(DetectorKind.HOTELLING, score)


def lw_score(pair: SamplePair) -> ScoreResult:
    """Shrinkage statistic, centered and scaled to a standard-normal-like Z.

    aux carries the raw quadratic form 't2_lw'.
    """
    decomp = pair.decomposition
    dhat = shrink_eigenvalues(decomp, pair.n, pair.p)
    t2 = pair.diff_scale * quad_form_inverse(decomp, dhat, pair.mean_diff)
    z = (t2 - pair.p) / math.sqrt(2.0 * pair.p)
    return ScoreResult(DetectorKind.PROPOSED_LW, z, aux={"t2_lw": t2})


def bs96_score(pair: SamplePair) -> ScoreResult:
    """Euclidean-norm statistic standardized by the trace-based variance estimate.

    B_n = n^2/((n+2)(n-1)) * (tr(S^2) - (tr S)^2 / n); the whole product
    (2(n+1)/n) * B_n sits under the square root.  tr S and tr(S^2) are read
    off pair.scm when p <= n1 + n2, and off the spectrum of
    pair.decomposition (sum of the eigenvalues and of their squares)
    otherwise, where no p x p matrix is formed.  Traces whose squares leave
    the float range raise DomainError.
    """
    n = pair.n
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        if pair.gram_side:
            lam = pair.decomposition.eigenvalues
            tr = float(lam.sum())
            tr2 = float(lam @ lam)
        else:
            s = pair.scm
            tr = float(np.trace(s))
            tr2 = float(np.sum(s * s))
    bn = n * n / ((n + 2.0) * (n - 1.0)) * (tr2 - tr * tr / n)
    if not math.isfinite(bn):
        raise DomainError(
            "bs96 variance estimate overflows: tr(S^2) or (tr S)^2 leaves the float range"
        )
    if bn <= 0.0:
        raise DegenerateVarianceError(f"variance estimate B_n = {bn} is not positive")
    diff = pair.mean_diff
    numerator = pair.diff_scale * float(diff @ diff) - tr
    score = numerator / math.sqrt((2.0 * (n + 1.0) / n) * bn)
    return ScoreResult(
        DetectorKind.BS96, score, aux={"b_n": bn, "numerator": numerator}
    )


def cq10_score(pair: SamplePair) -> ScoreResult:
    """Cross-product U-statistic; unbiased for ||mu1 - mu2||^2.

    Works on raw uncentered columns.  The diagonal-free sums are computed in
    O(p*(n1+n2)) via sum_{i != j} x_i' x_j = ||sum_i x_i||^2 - sum_i ||x_i||^2.
    Sums whose squares leave the float range raise DomainError.
    """
    x1, x2 = pair.x1, pair.x2
    n1, n2 = pair.n1, pair.n2
    with np.errstate(over="ignore"):  # an overflow is reported below, not warned
        s1 = x1.sum(axis=1)
        s2 = x2.sum(axis=1)
        q1 = (float(s1 @ s1) - float(np.sum(x1 * x1))) / (n1 * (n1 - 1.0))
        q2 = (float(s2 @ s2) - float(np.sum(x2 * x2))) / (n2 * (n2 - 1.0))
        cross = 2.0 * float(s1 @ s2) / (n1 * n2)
    score = q1 + q2 - cross
    if not math.isfinite(score):
        raise DomainError(
            "cq10 statistic overflows: a squared norm of the data leaves the float range"
        )
    return ScoreResult(DetectorKind.CQ10, score)


def lappw_score(pair: SamplePair, pop) -> ScoreResult:
    """Diagonal-loading statistic with the clairvoyantly optimized loading.

    The loading maximizes the SNR proxy against `pop`, the true covariance's
    diagonal, so this detector is simulation-only and its performance is an
    upper bound for any data-driven choice.  aux carries 'loading'.
    """
    decomp = pair.decomposition
    res = optimize_loading(decomp, pop)
    d = decomp.eigenvalues + res.lambda_star
    score = pair.diff_scale * quad_form_inverse(decomp, d, pair.mean_diff)
    return ScoreResult(
        DetectorKind.LAPPW,
        score,
        aux={"loading": res.lambda_star, "snr_at_optimum": res.snr_at_optimum},
    )
