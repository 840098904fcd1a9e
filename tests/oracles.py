"""Independent reference implementations used to validate the library.

Everything here is deliberately written the slow, obvious way (or with
high-precision arithmetic) so it shares no code with the implementation under
test.  The exceptions are `dense_path_scores`, the p x p reference for the
Gram-side decomposition, which composes the library's public primitives on
the dense decomposition of the pooled covariance, and
`gram_side_eigenvectors`, which forms the Gram side's eigenvector block the
way the library formerly did.
"""

import math
from typing import NamedTuple

import mpmath as mp
import numpy as np

from hdtest.errors import StructuralError
from hdtest.shrinkage import optimize_loading, shrink_eigenvalues
from hdtest.spectral import pooled_scm, quad_form_inverse, spectral_decompose


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


def kernel_sums_one_shot(lams, evals, n):
    """The kernel sums (a, b) as one (points x eigenvalues) expression.

    This is the library's former single-pass form of `_kernel_sums`, kept as
    the bit-for-bit reference for its chunked, in-place evaluation: each
    entry goes through the same operations in the same order, so the two
    must agree exactly, not just to a tolerance.
    """
    sqrt5 = math.sqrt(5.0)
    lam = np.asarray(lams, dtype=float)[:, None]
    ev = evals[None, :]
    h = (float(n) ** (-1.0 / 3.0) * evals)[None, :]
    x = (lam - ev) / h
    bracket = 1.0 - 0.2 * x * x
    num = sqrt5 * h - lam + ev
    den = sqrt5 * h + lam - ev
    with np.errstate(divide="ignore", invalid="ignore"):
        logterm = np.log(np.abs(num) / np.abs(den))
        prod = (3.0 / (4.0 * sqrt5 * math.pi * h)) * bracket * logterm
    guarded = (np.abs(num) < 1e-300) | (np.abs(den) < 1e-300)
    prod = np.where(guarded, 0.0, prod)
    a = np.sum(-3.0 * x / (10.0 * math.pi * h) + prod, axis=1)
    b = np.sum((3.0 / (4.0 * sqrt5 * h)) * np.maximum(bracket, 0.0), axis=1)
    return a, b


def shrink_mp(evals, n, p, dps=50, points=None):
    """Shrunk eigenvalues for strictly positive evals, in mpmath precision.

    The result holds the shrunk values of `points` (default: every one of
    `evals`), which are sample eigenvalues from `evals`.  For p < n, `evals`
    are all p sample eigenvalues.  For p > n, they are the n nonzero ones;
    see shrink_above_mp.
    """
    if p > n:
        return shrink_above_mp(evals, n, p, dps, points)
    with mp.workdps(dps):
        out = []
        m = min(n, p)
        ratio = mp.mpf(p) / n
        for ev in evals if points is None else points:
            a, b = kernel_ab_mp(ev, evals, n, dps=dps)
            s = mp.pi * (a + 1j * b) / m
            denom = abs(1 - ratio - ratio * mp.mpf(ev) * s) ** 2
            out.append(mp.mpf(ev) / denom)
        return out


def shrink_above_mp(evals, n, p, dps=50, points=None):
    """The shrinkage map for p >= n, in mpmath precision.

    `evals` are the n nonzero sample eigenvalues, all strictly positive.
    The result holds the shrunk values of `points` (default: all of
    `evals`), followed, when p > n, by the one value that all p - n zero
    eigenvalues map to.

    Derivation.  Let F be the limiting distribution of all p sample
    eigenvalues and G that of the n nonzero ones, with Stieltjes transforms
    m_F and m_G taken at lambda + i0, and c = p/n.  Ledoit and Peche (2011)
    relate them by m_F(lambda) = -(1 - 1/c)/lambda + m_G(lambda)/c, so the
    p < n form's denominator is
        1 - c - c lambda m_F = 1 - c + (c - 1) - lambda m_G = -lambda m_G,
    and lambda / |1 - c - c lambda m_F|^2 = 1 / (lambda |m_G|^2).  m_G is
    estimated by s = pi (a + i b) / n, the kernel sums over the n nonzero
    eigenvalues, so d_i = 1 / (lambda_i |s_i|^2); at c = 1 the two forms
    agree.  The zero eigenvalues take Ledoit and Wolf's (2020) null-space
    target 1 / ((c - 1) m_G(0)).  0 lies below G's support, so
    m_G(0) = int dG(t)/t is real, estimated by pi a(0) / n, and
        d_0 = 1 / ((c - 1) pi a(0) / n).
    """
    with mp.workdps(dps):
        out = []
        for ev in evals if points is None else points:
            a, b = kernel_ab_mp(ev, evals, n, dps=dps)
            s = mp.pi * (a + 1j * b) / n
            out.append(1 / (mp.mpf(ev) * abs(s) ** 2))
        if p > n:
            a0, _ = kernel_ab_mp(0, evals, n, dps=dps)
            out.append(1 / ((mp.mpf(p) / n - 1) * mp.pi * a0 / n))
        return out


class OracleDiagnostics(NamedTuple):
    """Per-direction oracle variances and the interval-averaged shrinkage bias."""

    sigma2: np.ndarray
    bias: float


def oracle_diagnostics(decomp, dhat, pop, interval=(0.0, math.inf)):
    """Compare shrunk eigenvalues with the oracle variances u_i' R u_i.

    R is the true diagonal population covariance, given as its diagonal
    vector.  The bias averages (dhat_j - sigma2_j) over the directions whose
    *sample* eigenvalue falls inside the closed interval, normalized by p.
    Every direction's eigenvector is needed, so a range-plus-null
    decomposition is rejected.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise StructuralError(f"empty interval [{lo}, {hi}]")
    diag = np.asarray(pop, dtype=float)
    u = decomp.eigenvectors
    p = decomp.p
    if diag.shape != (p,) or np.shape(dhat) != (p,):
        raise StructuralError("dimension mismatch")
    if u.shape[1] != p:
        raise StructuralError("needs a full eigenbasis, got a range-plus-null decomposition")
    sigma2 = np.array([float(u[:, i] @ (diag * u[:, i])) for i in range(p)])
    inside = [i for i in range(p) if lo <= decomp.eigenvalues[i] <= hi]
    bias = sum(float(dhat[i]) - sigma2[i] for i in inside) / p
    return OracleDiagnostics(sigma2, bias)


def null_moments(decomp, dhat, diag):
    """tr(D^-1 M) and tr((D^-1 M)^2), with M = U'RU formed densely.

    U is the decomposition's full eigenbasis, D = diag(dhat) and R = diag(diag)
    the true population covariance.  Given the estimate U D U', these are the
    mean and half the variance of the H0 quadratic form w'(U D U')^{-1} w for
    w ~ N(0, R) (see TestNullMoments in test_shrinkage.py).  A range-plus-null
    decomposition is rejected.
    """
    u = decomp.eigenvectors
    p = decomp.p
    diag = np.asarray(diag, dtype=float)
    if u.shape != (p, p) or diag.shape != (p,) or np.shape(dhat) != (p,):
        raise StructuralError("needs a full eigenbasis and length-p dhat and diag")
    a = (u.T @ (diag[:, None] * u)) / np.asarray(dhat, dtype=float)[:, None]  # D^-1 M
    return float(np.trace(a)), float(np.sum(a * a.T))


def mahalanobis_cholesky(diff, cov):
    """diff' R^{-1} diff through a Cholesky factor of the dense R and a solve.

    This is the library's former dense path of mahalanobis_score, kept as the
    bit-for-bit reference for its diagonal form ||diff / sqrt(diag R)||^2.
    """
    y = np.linalg.solve(np.linalg.cholesky(cov), diff)
    return float(y @ y)


def dense_path_scores(pair, pop, lw=True):
    """lw, lappw and bs96 scores read off the dense p x p pooled covariance.

    Each statistic is the detector's formula on spectral_decompose(S), S the
    pair's pooled_scm; bs96 takes tr S and ||S||_F^2 from the dense matrix.
    lw=False leaves lw out, for a spectrum its shrinkage rejects.
    """
    s = pooled_scm(pair)
    full = spectral_decompose(s)
    n, p, k, v = pair.n, pair.p, pair.diff_scale, pair.mean_diff
    loading = optimize_loading(full, pop).lambda_star
    tr, tr2 = float(np.trace(s)), float(np.sum(s * s))
    bn = n * n / ((n + 2.0) * (n - 1.0)) * (tr2 - tr * tr / n)
    scores = {
        "lappw": k * quad_form_inverse(full, full.eigenvalues + loading, v),
        "bs96": (k * float(v @ v) - tr) / math.sqrt((2.0 * (n + 1.0) / n) * bn),
    }
    if lw:
        t2 = k * quad_form_inverse(full, shrink_eigenvalues(full, n, p), v)
        scores["lw"] = (t2 - p) / math.sqrt(2.0 * p)
    return scores


def gram_side_eigenvectors(pair):
    """The Gram side's p x r eigenvector block as one product, C @ B.

    This is the library's former form of decompose_pair's block, kept as the
    bit-for-bit reference for the factored block it now keeps: C is the
    p x N centred data, and B = W / sqrt(n lambda) comes from the Gram
    matrix's positive eigenpairs.
    """
    c = np.concatenate(
        (pair.x1 - pair.xbar1[:, None], pair.x2 - pair.xbar2[:, None]), axis=1
    )
    g = c.T @ c
    g /= pair.n
    gram = spectral_decompose(g)
    lam = gram.eigenvalues
    r = int(np.count_nonzero(lam > 0.0))
    return c @ (gram.eigenvectors[:, :r] / np.sqrt(pair.n * lam[:r]))


class ScalarLoading(NamedTuple):
    """The loading search's result, plus the index of the scan's best point."""

    lambda_star: float
    snr_at_optimum: float
    evaluations: int
    scan_argmax: int


def loading_search_scalar(decomp, pop):
    """The diagonal-loading search with one scalar evaluation per point.

    This is the library's former form of `optimize_loading`, kept as the
    bit-for-bit reference for its block scan: the 64 scan points are taken
    one at a time, each as a length-p vector expression, and the golden
    section refines the bracket around the best of them.
    """
    diag = np.asarray(pop)
    lam = decomp.eigenvalues
    u = decomp.eigenvectors
    p = decomp.p
    w = u * u
    w *= diag[:, None]
    w = w.sum(axis=0)
    if w.size < p:
        w = np.concatenate((w, [diag.sum() - w.sum()], np.zeros(p - w.size - 1)))
    count = 0

    def g(t):
        nonlocal count
        count += 1
        inv = 1.0 / (lam + math.exp(t))
        tri = float(inv.sum())
        den = p * float((w * inv * inv).sum())
        return tri * tri / den

    m = float(lam.mean())
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    ts = np.linspace(math.log(m / 1e6), math.log(m * 1e6), 64)
    vals = [g(t) for t in ts]
    k = int(np.argmax(vals))
    a, b = ts[max(k - 1, 0)], ts[min(k + 1, 63)]
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = g(c), g(d)
    while b - a > 1e-6:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = g(d)
    best_t, best_f = max([(ts[k], vals[k]), (c, fc), (d, fd)], key=lambda pt: pt[1])
    return ScalarLoading(math.exp(best_t), float(best_f), count, k)


def roc_points_unique(h0, h1):
    """ROC points (fpr, tpr) at the np.unique thresholds, counted one by one.

    From (0, 0), each distinct pooled score, largest first, adds the point
    (fraction of h0 above it, fraction of h1 above it) unless it repeats the
    last one; (1, 1) closes the curve.
    """
    fpr, tpr = [0.0], [0.0]
    for thr in np.unique(np.concatenate([h0, h1]))[::-1]:
        pt = (sum(x > thr for x in h0) / len(h0), sum(x > thr for x in h1) / len(h1))
        if pt != (fpr[-1], tpr[-1]):
            fpr.append(pt[0])
            tpr.append(pt[1])
    if (fpr[-1], tpr[-1]) != (1.0, 1.0):
        fpr.append(1.0)
        tpr.append(1.0)
    return np.array(fpr), np.array(tpr)


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
