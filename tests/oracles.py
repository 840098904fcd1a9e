"""Independent reference implementations used to validate the library.

Everything here is deliberately written the slow, obvious way (or with
high-precision arithmetic) so it shares no code with the implementation under
test.
"""

import mpmath as mp
import numpy as np


def kernel_ab_mp(lam, evals, n, dps=50):
    """Kernel sums evaluated in mpmath arbitrary precision."""
    with mp.workdps(dps):
        lam = mp.mpf(lam)
        a = mp.mpf(0)
        b = mp.mpf(0)
        s5 = mp.sqrt(5)
        for ev in evals:
            ev = mp.mpf(ev)
            h = ev * mp.power(n, mp.mpf(-1) / 3)
            x = (lam - ev) / h
            bracket = 1 - x * x / 5
            num = s5 * h - lam + ev
            den = s5 * h + lam - ev
            a += -3 * (lam - ev) / (10 * mp.pi * h * h)
            if num != 0 and den != 0:
                a += 3 / (4 * s5 * mp.pi * h) * bracket * mp.log(abs(num / den))
            b += 3 / (4 * s5 * h) * max(bracket, mp.mpf(0))
        return a, b


def shrink_mp(evals, n, p, dps=50):
    """Shrunk eigenvalues for strictly positive evals, in mpmath precision."""
    with mp.workdps(dps):
        out = []
        m = min(n, p)
        ratio = mp.mpf(p) / n
        for ev in evals:
            a, b = kernel_ab_mp(ev, evals, n, dps=dps)
            s = mp.pi * (a + 1j * b) / m
            denom = abs(1 - ratio - ratio * mp.mpf(ev) * s) ** 2
            out.append(mp.mpf(ev) / denom)
        return out


def snr_proxy_dense(m, r):
    """SNR proxy (tr A^-1)^2 / (p * tr(A^-1 R A^-1)) with A^-1 = inv(m), by dense inversion."""
    inv = np.linalg.inv(m)
    return float(np.trace(inv)) ** 2 / (m.shape[0] * float(np.trace(inv @ r @ inv)))


def cq10_double_loop(x1, x2):
    """CQ10 statistic straight from its definition, O(n^2 p)."""
    n1, n2 = x1.shape[1], x2.shape[1]
    t1 = 0.0
    for i in range(n1):
        for j in range(n1):
            if i != j:
                t1 += float(x1[:, i] @ x1[:, j])
    t1 /= n1 * (n1 - 1)
    t2 = 0.0
    for i in range(n2):
        for j in range(n2):
            if i != j:
                t2 += float(x2[:, i] @ x2[:, j])
    t2 /= n2 * (n2 - 1)
    cross = 0.0
    for i in range(n1):
        for j in range(n2):
            cross += float(x1[:, i] @ x2[:, j])
    cross *= 2.0 / (n1 * n2)
    return t1 + t2 - cross


def auc_brute(h0, h1):
    """Mann-Whitney AUC: P(h1 > h0) + 0.5 P(h1 == h0), O(n^2)."""
    wins = 0.0
    for a in h1:
        for b in h0:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(h0) * len(h1))


def pv_hilbert(lam, density, support_halfwidth, n_pairs=200_000):
    """Principal-value integral (1/pi) PV int density(t)/(lam - t) dt.

    Uses a midpoint grid symmetric about lam: t = lam +/- (k + 1/2) * delta.
    The symmetric pairing cancels the 1/(lam - t) singularity exactly, leaving
    O(delta^2) error from the density's variation.
    """
    delta = support_halfwidth / n_pairs
    offsets = (np.arange(n_pairs) + 0.5) * delta
    right = lam + offsets
    left = lam - offsets
    vals = (density(left) - density(right)) / offsets
    return float(np.sum(vals) * delta / np.pi)


def norm_detector_auc(diag, k, radius, draws, seed):
    """Brute-force AUC of the idealised norm statistic ||x1bar - x2bar||^2.

    The mean difference is drawn as N(mu, diag(diag)/k): mu = 0 under H0 and
    mu uniform on the radius sphere under H1, with k = n1*n2/(n1+n2).  The
    AUC is the Mann-Whitney fraction over all draws x draws pairs.  Draws are
    made in chunks of 4000 from a private generator seeded by `seed`, so the
    result depends on nothing but the arguments.
    """
    chunk = 4000
    sd = np.sqrt(np.asarray(diag, dtype=float) / k)
    p = sd.size
    rng = np.random.default_rng(seed)
    h0 = np.empty(draws)
    h1 = np.empty(draws)
    for lo in range(0, draws, chunk):
        m = min(chunk, draws - lo)
        h0[lo:lo + m] = np.sum((sd * rng.standard_normal((m, p))) ** 2, axis=1)
        mu = rng.standard_normal((m, p))
        mu *= radius / np.linalg.norm(mu, axis=1, keepdims=True)
        h1[lo:lo + m] = np.sum((mu + sd * rng.standard_normal((m, p))) ** 2, axis=1)
    h0.sort()
    below = np.searchsorted(h0, h1, side="left")
    below_or_tied = np.searchsorted(h0, h1, side="right")
    return float((below.sum() + below_or_tied.sum()) / (2.0 * draws * draws))


def hanley_mcneil_se(auc, n0, n1):
    """Standard error of an empirical AUC from n0 negatives and n1 positives
    (Hanley & McNeil 1982, exponential approximation for Q1 and Q2)."""
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (
        auc * (1.0 - auc)
        + (n1 - 1) * (q1 - auc * auc)
        + (n0 - 1) * (q2 - auc * auc)
    ) / (n0 * n1)
    return float(np.sqrt(var))
