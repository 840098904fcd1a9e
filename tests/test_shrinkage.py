import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtest.errors import (
    DegenerateSpectrumError,
    DomainError,
    StructuralError,
    UnsupportedAspectRatioError,
)
from hdtest.shrinkage import (
    KernelContext,
    LoadingResult,
    ShrinkageEstimate,
    kernel_ab,
    lw_covariance,
    optimize_loading,
    oracle_diagnostics,
    shrink_eigenvalues,
)
from hdtest.simulation import generate_sample, make_covariance
from hdtest.spectral import SamplePair, SpectralDecomposition, pooled_scm, spectral_decompose

from oracles import kernel_ab_mp, shrink_mp, snr_proxy_dense

SQRT5 = math.sqrt(5.0)

# Two frozen fixtures, validated against the mpmath reference at 50 digits.
# A: two positive eigenvalues, p < n.
FIX_A_EVALS = (2.0, 1.0)
FIX_A_N = 8
FIX_A_AB = {
    1.5: (-0.2615048868253278315510742, 0.8552960013936695588765089),
    2.0: (-0.5052749423302130094615829, 0.4695742752749558362459265),
    1.0: (0.1776950184615800038721715, 0.9391485505499116724918529),
    0.5: (0.5940188254743457182232031, 0.7211319227436821770919585),
    3.0: (-0.3484195954442106420788514, 0.2683281572999747635691008),
}
FIX_A_DHAT = (1.378110831940340062533876, 1.67024705898330210593391)

# B: rank-deficient p > n case exercising the zero-eigenvalue branch.
FIX_B_EVALS = (3.0, 1.0, 0.0, 0.0)
FIX_B_N = 2
FIX_B_A0 = 0.358282222939967665130087
FIX_B_ZERO_VALUE = 5.582191557226974090956924
FIX_B_DHAT_POS = (1.172143210928448970927311, 0.2293789562291666950465747)


def ctx_a() -> KernelContext:
    return KernelContext.from_eigenvalues(np.array(FIX_A_EVALS), FIX_A_N)


def decomp_from(evals) -> SpectralDecomposition:
    evals = np.asarray(evals, dtype=float)
    return SpectralDecomposition(evals, np.eye(evals.size))


class TestKernelContext:
    def test_bandwidths(self):
        ctx = ctx_a()
        np.testing.assert_allclose(
            ctx.bandwidths, 8.0 ** (-1.0 / 3.0) * np.array(FIX_A_EVALS)
        )
        assert ctx.n == 8 and ctx.p == 2

    def test_retains_largest_min_n_p(self):
        ctx = KernelContext.from_eigenvalues(np.array(FIX_B_EVALS), FIX_B_N)
        np.testing.assert_array_equal(ctx.evals, [3.0, 1.0])

    def test_rejects_zero_in_retained_set(self):
        with pytest.raises(DegenerateSpectrumError):
            KernelContext.from_eigenvalues(np.array([2.0, 1.0, 0.0]), 8)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            KernelContext.from_eigenvalues(np.array([]), 8)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            KernelContext.from_eigenvalues(np.array([1.0]), 0)


class TestKernelSums:
    def test_center_of_single_bump(self):
        # at lambda = lambda_j the linear term and the log both vanish exactly
        ctx = KernelContext.from_eigenvalues(np.array([1.0]), 1)
        a, b = kernel_ab(1.0, ctx)
        assert a == 0.0
        assert b == 3.0 / (4.0 * SQRT5 * ctx.bandwidths[0])

    def test_bump_edge_b_vanishes_a_finite(self):
        # at |x| = sqrt5 the b bracket hits zero and the a log singularity is
        # removable; the guard keeps the linear term
        ctx = KernelContext.from_eigenvalues(np.array([1.0]), 1)
        h = ctx.bandwidths[0]
        edge = 1.0 + SQRT5 * h
        a, b = kernel_ab(edge, ctx)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert a == pytest.approx(-3.0 * SQRT5 / (10.0 * math.pi), abs=1e-10)

    def test_continuity_across_edge(self):
        ctx = KernelContext.from_eigenvalues(np.array([1.0]), 1)
        edge = 1.0 + SQRT5 * ctx.bandwidths[0]
        a_edge, _ = kernel_ab(edge, ctx)
        for delta in (1e-9, -1e-9):
            a_near, b_near = kernel_ab(edge + delta, ctx)
            assert a_near == pytest.approx(a_edge, abs=1e-6)
            assert math.isfinite(a_near) and b_near >= 0.0

    def test_b_nonnegative_and_compact_support(self):
        ctx = ctx_a()
        far = 2.0 + SQRT5 * ctx.bandwidths[0] * 1.001
        _, b = kernel_ab(far, ctx)
        assert b == 0.0
        grid = np.linspace(-1.0, 4.0, 101)
        bs = np.array([kernel_ab(x, ctx)[1] for x in grid])
        assert np.all(bs >= 0.0)

    @pytest.mark.parametrize("lam", sorted(FIX_A_AB))
    def test_frozen_reference_values(self, lam):
        a, b = kernel_ab(lam, ctx_a())
        a_ref, b_ref = FIX_A_AB[lam]
        assert a == pytest.approx(a_ref, rel=1e-12, abs=1e-15)
        assert b == pytest.approx(b_ref, rel=1e-12)

    def test_matches_mpmath_on_random_spectrum(self):
        rng = np.random.default_rng(42)
        evals = np.sort(rng.uniform(0.5, 4.0, size=5))[::-1]
        ctx = KernelContext.from_eigenvalues(evals, 30)
        for lam in (0.2, 1.1, 2.7, 5.0):
            a, b = kernel_ab(lam, ctx)
            a_ref, b_ref = kernel_ab_mp(lam, evals, 30)
            assert a == pytest.approx(float(a_ref), rel=1e-12, abs=1e-14)
            assert b == pytest.approx(float(b_ref), rel=1e-12, abs=1e-14)


class TestShrinkEigenvalues:
    def test_frozen_two_eigenvalue_fixture(self):
        out = shrink_eigenvalues(decomp_from(FIX_A_EVALS), FIX_A_N, 2)
        np.testing.assert_allclose(out, FIX_A_DHAT, rtol=1e-10)

    def test_zero_branch_fixture(self):
        out = shrink_eigenvalues(decomp_from(FIX_B_EVALS), FIX_B_N, 4)
        np.testing.assert_allclose(out[:2], FIX_B_DHAT_POS, rtol=1e-10)
        np.testing.assert_allclose(out[2:], FIX_B_ZERO_VALUE, rtol=1e-10)
        assert out[2] == out[3]

    def test_matches_mpmath_on_random_spectrum(self):
        rng = np.random.default_rng(7)
        evals = np.sort(rng.uniform(0.2, 5.0, size=6))[::-1]
        out = shrink_eigenvalues(decomp_from(evals), 40, 6)
        ref = [float(v) for v in shrink_mp(evals, 40, 6)]
        np.testing.assert_allclose(out, ref, rtol=1e-10)

    def test_scale_equivariance_fixture(self):
        base = shrink_eigenvalues(decomp_from(FIX_A_EVALS), FIX_A_N, 2)
        scaled = shrink_eigenvalues(decomp_from(10.0 * np.array(FIX_A_EVALS)), FIX_A_N, 2)
        np.testing.assert_allclose(scaled, 10.0 * base, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        p=st.integers(min_value=2, max_value=12),
    )
    def test_scale_equivariance_property(self, seed, scale, p):
        rng = np.random.default_rng(seed)
        evals = np.sort(rng.uniform(0.1, 3.0, size=p))[::-1]
        n = p + 5
        base = shrink_eigenvalues(decomp_from(evals), n, p)
        scaled = shrink_eigenvalues(decomp_from(scale * evals), n, p)
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-9)
        assert np.all(base > 0.0)

    def test_rejects_equal_aspect_ratio(self):
        with pytest.raises(UnsupportedAspectRatioError):
            shrink_eigenvalues(decomp_from([2.0, 1.0]), 2, 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DegenerateSpectrumError):
            shrink_eigenvalues(decomp_from([2.0, -1.0]), 8, 2)

    def test_rejects_zero_when_p_below_n(self):
        with pytest.raises(DegenerateSpectrumError):
            shrink_eigenvalues(decomp_from([2.0, 1.0, 0.0]), 8, 3)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            shrink_eigenvalues(decomp_from([2.0, 1.0]), 8, 3)


class TestLwCovariance:
    def test_keeps_sample_basis(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 20))
        decomp = spectral_decompose(a @ a.T / 20)
        est = lw_covariance(decomp, 20, 5)
        np.testing.assert_array_equal(est.basis, decomp.eigenvectors)
        m = est.matrix()
        rebuilt = (decomp.eigenvectors * est.dhat) @ decomp.eigenvectors.T
        np.testing.assert_allclose(m, rebuilt)

    def test_estimate_rejects_nonpositive_dhat(self):
        with pytest.raises(DomainError):
            ShrinkageEstimate(np.eye(2), np.array([1.0, 0.0]), 8, 2)

    def test_tracks_oracle_variances_on_average(self):
        # single seeded draw from the flat model: mean shrunk eigenvalue close
        # to the mean oracle variance u_i' R u_i
        rng = np.random.default_rng(5)
        model = make_covariance(0, 60, rng)
        x1 = generate_sample(model, np.zeros(60), 80, rng)
        x2 = generate_sample(model, np.zeros(60), 80, rng)
        pair = SamplePair(x1, x2)
        decomp = spectral_decompose(pooled_scm(pair))
        est = lw_covariance(decomp, pair.n, pair.p)
        diag = oracle_diagnostics(decomp, est.dhat, model)
        assert est.dhat.mean() == pytest.approx(diag.sigma2.mean(), rel=0.15)


class TestOracleDiagnostics:
    def test_identity_case(self):
        decomp = decomp_from([2.0, 1.0])
        diag = oracle_diagnostics(decomp, np.array([2.0, 1.0]), np.array([2.0, 1.0]))
        np.testing.assert_array_equal(diag.sigma2, [2.0, 1.0])
        assert diag.bias == 0.0

    def test_bias_normalizes_by_p_and_filters_by_interval(self):
        decomp = decomp_from([4.0, 2.0, 1.0])
        dhat = np.array([5.0, 2.0, 1.0])
        pop = np.ones(3)
        diag = oracle_diagnostics(decomp, dhat, pop)
        # sigma2 = (1,1,1); sum of (dhat - sigma2) = 4+1+0 = 5, over p=3
        assert diag.bias == pytest.approx(5.0 / 3.0)
        windowed = oracle_diagnostics(decomp, dhat, pop, interval=(1.5, 3.0))
        # only the middle direction (sample eigenvalue 2) is inside
        assert windowed.bias == pytest.approx(1.0 / 3.0)

    def test_rejects_empty_interval(self):
        decomp = decomp_from([1.0])
        with pytest.raises(StructuralError):
            oracle_diagnostics(decomp, np.array([1.0]), np.array([1.0]), interval=(2.0, 1.0))

    def test_range_plus_null_decomposition_is_rejected(self):
        # the diagnostics read every direction's eigenvector
        split = SpectralDecomposition(np.array([3.0, 0.0]), np.eye(2)[:, :1])
        dhat, pop = np.array([3.0, 1.0]), np.array([3.0, 1.0])
        with pytest.raises(StructuralError, match="full eigenbasis"):
            oracle_diagnostics(split, dhat, pop)


class TestOptimizeLoading:
    def test_identity_population_prefers_heavy_loading(self):
        # for R = I the proxy tends to 1 as lambda -> inf, so the optimum sits
        # at the top of the scan range with value ~1
        rng = np.random.default_rng(9)
        a = rng.standard_normal((10, 40))
        decomp = spectral_decompose(a @ a.T / 40)
        res = optimize_loading(decomp, np.ones(10))
        m = float(decomp.eigenvalues.mean())
        assert res.snr_at_optimum == pytest.approx(1.0, abs=1e-3)
        assert res.lambda_star > 1e4 * m
        assert res.evaluations >= 64
        assert isinstance(res, LoadingResult)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 24))
        m = a @ a.T / 24
        pop = rng.uniform(0.5, 4.0, size=6)
        base = optimize_loading(spectral_decompose(m), pop)
        c = 50.0
        scaled = optimize_loading(spectral_decompose(c * m), c * pop)
        assert scaled.lambda_star == pytest.approx(c * base.lambda_star, rel=1e-4)
        assert scaled.snr_at_optimum == pytest.approx(base.snr_at_optimum / c, rel=1e-9)

    def test_objective_is_invariant_to_scaling_the_estimate(self):
        # the proxy is invariant under A -> cA, so scaling S alone (R fixed)
        # scales the optimal loading and leaves the optimum's value unchanged
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 24))
        m = a @ a.T / 24
        pop = rng.uniform(0.5, 4.0, size=6)
        base = optimize_loading(spectral_decompose(m), pop)
        scaled = optimize_loading(spectral_decompose(3.7 * m), pop)
        assert scaled.lambda_star == pytest.approx(3.7 * base.lambda_star, rel=1e-4)
        assert scaled.snr_at_optimum == pytest.approx(base.snr_at_optimum, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), p=st.integers(min_value=2, max_value=10))
    def test_objective_bounded_by_one_for_identity_population(self, seed, p):
        # Cauchy-Schwarz: (tr B)^2 <= p * tr(B^2) for symmetric B = A^{-1}
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p + 2))
        res = optimize_loading(spectral_decompose(a @ a.T / (p + 2)), np.ones(p))
        assert res.snr_at_optimum <= 1.0 + 1e-12

    def test_interior_optimum_beats_neighbours(self):
        # strongly spiked population: the optimum is interior, and nudging the
        # loading either way can only lower the objective
        rng = np.random.default_rng(11)
        model = make_covariance(4, 50, rng)
        x1 = generate_sample(model, np.zeros(50), 40, rng)
        x2 = generate_sample(model, np.zeros(50), 40, rng)
        pair = SamplePair(x1, x2)
        decomp = spectral_decompose(pooled_scm(pair))
        res = optimize_loading(decomp, model)

        def proxy_at(lam_load: float) -> float:
            shifted = np.diag(decomp.eigenvalues) + lam_load * np.eye(50)
            m = decomp.eigenvectors @ shifted @ decomp.eigenvectors.T
            return snr_proxy_dense(m, np.diag(model.diag))

        f0 = proxy_at(res.lambda_star)
        assert f0 == pytest.approx(res.snr_at_optimum, rel=1e-9)
        for bump in (0.9, 1.1):
            assert proxy_at(res.lambda_star * bump) <= f0 + 1e-12

    def test_rejects_zero_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            optimize_loading(
                SpectralDecomposition(np.zeros(2), np.eye(2)), np.ones(2)
            )
