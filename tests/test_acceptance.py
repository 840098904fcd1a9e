"""End-to-end acceptance suite.

Each test covers one numbered criterion and records a single PASS/FAIL line
(reprinted together at the end of the run by conftest).  Statistical criteria
use fixed seeds, so every number below is reproducible bit-for-bit.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_REPORT
from oracles import (
    cq10_double_loop,
    hanley_mcneil_se,
    norm_detector_auc,
    oracle_diagnostics,
    pv_hilbert,
    shrink_mp,
    snr_proxy_dense,
)

from hdtest.cli import main
from hdtest.detectors import DetectorKind, cq10_score
from hdtest.shrinkage import (
    _kernel_sums,
    optimize_loading,
    shrink_eigenvalues,
)
from hdtest.simulation import (
    SimulationConfig,
    generate_sample,
    make_covariance,
    model_seed,
    normality_check,
    null_z_samples,
    roc_curve,
    run_trials,
    trial_seed,
)
from hdtest.spectral import (
    SamplePair,
    SpectralDecomposition,
    SymMatrix,
    pooled_scm,
    quad_form_inverse,
    spectral_decompose,
)

ROC_ELAPSED: dict[int, float] = {}


def record(criterion: int, checks: list[tuple[bool, str]]) -> None:
    passed = all(ok for ok, _ in checks)
    detail = "; ".join(desc for _, desc in checks)
    line = f"CRITERION {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_REPORT.append(line)
    print(line)
    assert passed, line


def roc_config(order: int) -> SimulationConfig:
    return SimulationConfig(
        p=200, n1=150, n2=150, cov_order=order, trials=2000, seed=0
    )


def roc_run(order: int) -> dict:
    config = roc_config(order)
    t0 = time.perf_counter()
    table = run_trials(config)
    ROC_ELAPSED[order] = time.perf_counter() - t0
    assert table.absent == {}
    return {
        kind.value: roc_curve(table.h0[kind], table.h1[kind]).auc
        for kind in table.present()
    }


# Brute-force draws per hypothesis for the norm-detector oracle, and its own
# generator seed (independent of the library's seed streams).
NORM_ORACLE_DRAWS = 40_000
NORM_ORACLE_SEED = 0


def norm_oracle(order: int) -> tuple[float, float]:
    """Oracle AUC of the norm detectors for the order's realised diagonal, and
    the tolerance a 2000 x 2000 run is held to around it.

    The tolerance is three standard errors of the run's AUC plus three of the
    oracle's own Monte Carlo AUC (Hanley-McNeil at the oracle value).
    """
    config = roc_config(order)
    model = make_covariance(
        order,
        config.p,
        np.random.default_rng(np.random.SeedSequence(model_seed(config.seed))),
    )
    k = config.n1 * config.n2 / (config.n1 + config.n2)
    auc = norm_detector_auc(
        model.diag, k, config.radius, NORM_ORACLE_DRAWS, NORM_ORACLE_SEED
    )
    tol = 3.0 * (
        hanley_mcneil_se(auc, config.trials, config.trials)
        + hanley_mcneil_se(auc, NORM_ORACLE_DRAWS, NORM_ORACLE_DRAWS)
    )
    return auc, tol


def near_oracle(a: dict, kind: str, oracle: float, tol: float) -> tuple[bool, str]:
    gap = abs(a[kind] - oracle)
    return (
        gap < tol,
        f"{kind}={a[kind]:.4f} vs oracle={oracle:.4f} (|diff|={gap:.4f}, need <tol={tol:.4f})",
    )


@pytest.fixture(scope="module")
def auc_flat():
    return roc_run(0)


@pytest.fixture(scope="module")
def auc_moderate():
    return roc_run(2)


@pytest.fixture(scope="module")
def auc_strong():
    return roc_run(4)


def test_criterion_1_null_normality():
    """Z scores over 1000 null trials behave like a standard normal sample."""
    config = SimulationConfig(
        p=200, n1=200, n2=200, cov_order=4, trials=1000, seed=0,
        detectors=("lw",),
    )
    t0 = time.perf_counter()
    z = null_z_samples(config)
    elapsed = time.perf_counter() - t0
    s = normality_check(z)
    record(
        1,
        [
            (-0.15 < s.mean < 0.15, f"mean={s.mean:.4f} (need (-0.15,0.15))"),
            (0.7 < s.variance < 1.3, f"variance={s.variance:.4f} (need (0.7,1.3))"),
            (s.ks_statistic < 0.10, f"ks={s.ks_statistic:.4f} (need <0.10)"),
            (elapsed < 120.0, f"elapsed={elapsed:.1f}s (need <120s)"),
        ],
    )


def test_criterion_2_flat_spectrum_regime(auc_flat):
    """Order-0 covariance: every high-dimensional detector is close to the
    shrinkage one; the classical statistic trails by a clear margin."""
    a = auc_flat
    record(
        2,
        [
            (
                abs(a["lw"] - a["bs96"]) < 0.05,
                f"|lw-bs96|={abs(a['lw'] - a['bs96']):.4f} (need <0.05)",
            ),
            (
                abs(a["lw"] - a["cq10"]) < 0.05,
                f"|lw-cq10|={abs(a['lw'] - a['cq10']):.4f} (need <0.05)",
            ),
            (
                abs(a["lw"] - a["lappw"]) < 0.05,
                f"|lw-lappw|={abs(a['lw'] - a['lappw']):.4f} (need <0.05)",
            ),
            (
                a["hotelling"] < a["lw"] - 0.05,
                f"hotelling={a['hotelling']:.4f} < lw-0.05={a['lw'] - 0.05:.4f}",
            ),
        ],
    )


def test_criterion_3_moderate_decay_regime(auc_moderate):
    """Order-2 covariance: the norm-based detectors sit where a brute-force
    oracle of the norm statistic puts them, while the shrinkage detector stays
    ahead of the classical one.

    The norm detectors see a location shift of k*r^2 = 75 against a null SD of
    about 316 for the order-2 diagonal, so their AUC is pinned near 0.57, not
    at chance; no normalization choice moves it.  `norm_detector_auc` draws
    the idealised statistic ||x1bar - x2bar||^2 for the realised diagonal and
    gives that value; bs96 and cq10 must match it within `tol`, derived from
    the standard errors of both AUCs.  An AUC of 0.50 fails the check.  See
    README ("Criterion 3: an oracle-derived band") for the derivation.
    """
    a = auc_moderate
    oracle, tol = norm_oracle(2)
    record(
        3,
        [
            near_oracle(a, "bs96", oracle, tol),
            near_oracle(a, "cq10", oracle, tol),
            (
                a["lw"] >= a["hotelling"] + 0.03,
                f"lw={a['lw']:.4f} >= hotelling+0.03={a['hotelling'] + 0.03:.4f}",
            ),
            (
                abs(a["lw"] - a["lappw"]) < 0.05,
                f"|lw-lappw|={abs(a['lw'] - a['lappw']):.4f} (need <0.05)",
            ),
        ],
    )


def test_criterion_4_strong_decay_regime(auc_flat, auc_moderate, auc_strong):
    """Order-4 covariance: shrinkage beats diagonal loading, which beats the
    norm detectors; norm detectors are at chance.  Also gates the combined
    runtime of the three 2000-trial runs."""
    a = auc_strong
    total = sum(ROC_ELAPSED.values())
    record(
        4,
        [
            (
                a["lw"] >= a["lappw"] + 0.02,
                f"lw={a['lw']:.4f} >= lappw+0.02={a['lappw'] + 0.02:.4f}",
            ),
            (
                a["lappw"] >= a["bs96"] + 0.10,
                f"lappw={a['lappw']:.4f} >= bs96+0.10={a['bs96'] + 0.10:.4f}",
            ),
            (
                0.45 < a["bs96"] < 0.55,
                f"bs96={a['bs96']:.4f} (need (0.45,0.55))",
            ),
            (
                0.45 < a["cq10"] < 0.55,
                f"cq10={a['cq10']:.4f} (need (0.45,0.55))",
            ),
            (
                total < 1800.0,
                f"combined 3-run elapsed={total:.0f}s (need <1800s)",
            ),
        ],
    )


def test_norm_oracle_is_at_chance_without_a_shift():
    """With radius 0 both hypotheses are the same law, so the oracle gives 0.5
    within three of its own standard errors."""
    diag = np.linspace(1.0, 100.0, 200)
    auc = norm_detector_auc(diag, 75.0, 0.0, NORM_ORACLE_DRAWS, NORM_ORACLE_SEED)
    se = hanley_mcneil_se(0.5, NORM_ORACLE_DRAWS, NORM_ORACLE_DRAWS)
    assert abs(auc - 0.5) < 3.0 * se, (auc, se)


def test_norm_oracle_reproduces_flat_and_strong_regimes(auc_flat, auc_strong):
    """The oracle behind criterion 3 also predicts the measured norm-detector
    AUCs in the flat (near 0.98) and strong-decay (near 0.50) regimes, within
    the tolerance criterion 3 uses."""
    failures = []
    for order, a in ((0, auc_flat), (4, auc_strong)):
        oracle, tol = norm_oracle(order)
        for kind in ("bs96", "cq10"):
            ok, desc = near_oracle(a, kind, oracle, tol)
            if not ok:
                failures.append(f"order {order}: {desc}")
    assert not failures, failures


def test_criterion_5_shrinkage_tracks_oracle_variances():
    """Averaged over 20 seeds, the mean gap between shrunk eigenvalues and the
    per-direction oracle variances stays small."""
    biases = []
    for seed in range(20):
        model = make_covariance(
            0, 200, np.random.default_rng(np.random.SeedSequence(model_seed(seed)))
        )
        rng = np.random.default_rng(np.random.SeedSequence(trial_seed(seed, 0, 0)))
        pair = SamplePair(
            generate_sample(model, np.zeros(200), 150, rng),
            generate_sample(model, np.zeros(200), 150, rng),
        )
        decomp = spectral_decompose(pooled_scm(pair))
        dhat = shrink_eigenvalues(decomp, pair.n, pair.p)
        biases.append(oracle_diagnostics(decomp, dhat, model).bias)
    mean_abs = float(np.mean(np.abs(biases)))
    record(
        5,
        [(mean_abs < 0.1, f"mean |bias| over 20 seeds = {mean_abs:.4f} (need <0.1)")],
    )


def test_criterion_6_kernel_mass():
    """The b kernel integrates to the retained-eigenvalue count (unit mass per
    bump), within 0.1% on 20 random spectra."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(5, 51))
        evals = np.sort(rng.uniform(0.3, 5.0, size=p))[::-1]
        n = 4 * p
        h_max = float(n) ** (-1.0 / 3.0) * float(evals.max())
        lo = float(evals.min()) - math.sqrt(5.0) * h_max - 0.5
        hi = float(evals.max()) + math.sqrt(5.0) * h_max + 0.5
        grid = np.linspace(lo, hi, 200_001)
        _, b = _kernel_sums(grid, evals, n)
        mass = float(np.trapezoid(b, grid))
        worst = max(worst, abs(mass - p) / p)
    record(
        6,
        [(worst < 1e-3, f"worst relative mass error over 20 spectra = {worst:.2e} (need <1e-3)")],
    )


def test_criterion_7_hilbert_pair():
    """a/min(n,p) equals the principal-value transform of the b-derived
    density (negative sign fixed by the single-bump closed form)."""
    rng = np.random.default_rng(7)
    evals = np.sort(rng.uniform(0.5, 4.0, size=10))[::-1]
    n = 60
    m = min(n, evals.size)
    h_max = float(n) ** (-1.0 / 3.0) * float(evals.max())
    lo = float(evals.min()) - 3.0 * h_max
    hi = float(evals.max()) + 3.0 * h_max
    support_lo = float(evals.min()) - math.sqrt(5.0) * h_max
    support_hi = float(evals.max()) + math.sqrt(5.0) * h_max

    def density(t):
        return _kernel_sums(np.asarray(t, dtype=float), evals, n)[1] / m

    worst = 0.0
    for lam in np.linspace(lo, hi, 20):
        a, _ = _kernel_sums(np.array([lam]), evals, n)
        lhs = float(a[0]) / m
        halfwidth = max(abs(lam - support_lo), abs(support_hi - lam)) + 1.0
        rhs = -pv_hilbert(lam, density, halfwidth)
        worst = max(worst, abs(lhs - rhs))
    record(
        7,
        [(worst < 1e-3, f"worst |a/m - PV| over 20-point grid = {worst:.2e} (need <1e-3)")],
    )


def test_criterion_8_oracle_equivalences():
    """Four independent-oracle equalities: the fast cq10 form, the eigenbasis
    quadratic form, the loading search, and the shrinkage map."""
    rng = np.random.default_rng(88)

    worst_cq = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 7))
        x1 = rng.standard_normal((p, int(rng.integers(3, 9))))
        x2 = rng.standard_normal((p, int(rng.integers(3, 9))))
        fast = cq10_score(SamplePair(x1, x2)).score
        slow = cq10_double_loop(x1, x2)
        worst_cq = max(worst_cq, abs(fast - slow) / max(abs(slow), 1e-30))
    cq_ok = worst_cq < 1e-10

    worst_qf = 0.0
    for _ in range(20):
        p = int(rng.integers(5, 51))
        a = rng.standard_normal((p, p + 10))
        mat = a @ a.T / (p + 10)
        decomp = spectral_decompose(SymMatrix(mat))
        v = rng.standard_normal(p)
        got = quad_form_inverse(decomp, decomp.eigenvalues, v)
        want = float(v @ np.linalg.solve(mat, v))
        worst_qf = max(worst_qf, abs(got - want) / abs(want))
    qf_ok = worst_qf < 1e-8

    model = make_covariance(2, 20, np.random.default_rng(5))
    rng2 = np.random.default_rng(6)
    pair = SamplePair(
        generate_sample(model, np.zeros(20), 30, rng2),
        generate_sample(model, np.zeros(20), 30, rng2),
    )
    decomp = spectral_decompose(pooled_scm(pair))
    res = optimize_loading(decomp, model)
    s = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.T
    r = np.diag(model.diag)
    m = float(decomp.eigenvalues.mean())
    grid = np.exp(np.linspace(math.log(1e-6 * m), math.log(1e6 * m), 2000))
    best_grid = max(snr_proxy_dense(s + lam * np.eye(20), r) for lam in grid)
    gap = best_grid - res.snr_at_optimum
    load_ok = gap <= 1e-9

    fixture = SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2))
    got_dhat = shrink_eigenvalues(fixture, 8, 2)
    want_dhat = np.array([float(v) for v in shrink_mp([2.0, 1.0], 8, 2)])
    shrink_err = float(np.max(np.abs(got_dhat - want_dhat) / want_dhat))
    shrink_ok = shrink_err < 1e-10

    record(
        8,
        [
            (cq_ok, f"cq10 fast-vs-double-loop worst rel err={worst_cq:.2e} (need <1e-10)"),
            (qf_ok, f"quad_form_inverse worst rel err={worst_qf:.2e} (need <1e-8)"),
            (load_ok, f"loading grid-gap={gap:.2e} (need <=1e-9)"),
            (shrink_ok, f"shrink vs high-precision rel err={shrink_err:.2e} (need <1e-10)"),
        ],
    )


def test_criterion_9_thread_count_determinism(tmp_path, monkeypatch):
    """scores.csv from the simulate command is byte-identical across
    HDTEST_THREADS = 1 and 4."""
    args = [
        "simulate",
        "--p", "30", "--n1", "20", "--n2", "20",
        "--trials", "6", "--seed", "11",
    ]
    monkeypatch.setenv("HDTEST_THREADS", "1")
    assert main(args + ["--out-dir", str(tmp_path / "t1")]) == 0
    monkeypatch.setenv("HDTEST_THREADS", "4")
    assert main(args + ["--out-dir", str(tmp_path / "t4")]) == 0
    b1 = (tmp_path / "t1" / "scores.csv").read_bytes()
    b4 = (tmp_path / "t4" / "scores.csv").read_bytes()
    record(
        9,
        [
            (
                b1 == b4,
                f"scores.csv identical across HDTEST_THREADS 1 vs 4 "
                f"({len(b1)} bytes)",
            )
        ],
    )
