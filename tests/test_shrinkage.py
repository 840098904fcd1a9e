import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtest import shrinkage
from hdtest.detectors import lw_score
from hdtest.errors import (
    DegenerateSpectrumError,
    DomainError,
    StructuralError,
    UnsupportedAspectRatioError,
)
from hdtest.shrinkage import (
    LoadingResult,
    _kernel_sums,
    optimize_loading,
    shrink_eigenvalues,
)
from hdtest.simulation import generate_sample, make_covariance, model_seed, trial_seed
from hdtest.spectral import (
    SamplePair,
    SpectralDecomposition,
    _factored,
    pooled_scm,
    spectral_decompose,
)

from oracles import (
    kernel_ab_mp,
    kernel_sums_one_shot,
    loading_search_mp,
    null_moments,
    oracle_diagnostics,
    shrink_above_mp,
    shrink_mp,
    snr_proxy_dense,
)

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
# from oracles.shrink_above_mp: 1/(lambda |s|^2), and 1/((c - 1) pi a(0)/n)
FIX_B_ZERO_VALUE = 1.776866759237035333972654
FIX_B_DHAT_POS = (2.245185195403712927047225, 1.352814072999980548599035)


def ab_at(lam, evals, n) -> tuple[float, float]:
    """The kernel sums (a, b) at one point."""
    a, b = _kernel_sums(np.array([float(lam)]), np.asarray(evals, dtype=float), n)
    return float(a[0]), float(b[0])


def decomp_from(evals) -> SpectralDecomposition:
    evals = np.asarray(evals, dtype=float)
    return SpectralDecomposition(evals, np.eye(evals.size))


def first_h0_pair(p, n1, n2, order) -> SamplePair:
    """The first H0 pair of seed 1, as the trial engine draws it."""
    model = make_covariance(
        order, p, np.random.default_rng(np.random.SeedSequence(model_seed(1)))
    )
    rng = np.random.default_rng(np.random.SeedSequence(trial_seed(1, 0, 0)))
    return SamplePair(
        generate_sample(model, np.zeros(p), n1, rng),
        generate_sample(model, np.zeros(p), n2, rng),
    )


class TestKernelContext:
    """The retained eigenvalues and bandwidths that shrink_eigenvalues hands
    to the kernel sums, and the checks it makes on them."""

    def test_bandwidths(self):
        # one bump at 2 with n = 8 has h = 8**(-1/3) * 2 = 1: its peak is
        # 3/(4 sqrt5 h) and its support ends at 2 + sqrt5 * h
        _, peak = ab_at(2.0, [2.0], 8)
        assert peak == pytest.approx(3.0 / (4.0 * SQRT5), rel=1e-14)
        assert ab_at(2.0 + SQRT5 * 0.999, [2.0], 8)[1] > 0.0
        assert ab_at(2.0 + SQRT5 * 1.001, [2.0], 8)[1] == 0.0

    def test_retains_largest_min_n_p(self):
        # the zero target is built from the two retained eigenvalues alone
        out = shrink_eigenvalues(decomp_from(FIX_B_EVALS), FIX_B_N, 4)
        a0, _ = kernel_ab_mp(0.0, FIX_B_EVALS[:FIX_B_N], FIX_B_N)
        ratio = 4 / FIX_B_N
        assert out[2] == pytest.approx(float(FIX_B_N / ((ratio - 1.0) * math.pi * a0)), rel=1e-12)

    def test_rejects_zero_in_retained_set(self):
        with pytest.raises(DegenerateSpectrumError, match="retained"):
            shrink_eigenvalues(decomp_from([2.0, 0.0, 0.0, 0.0]), 2, 4)

    def test_rejects_empty(self):
        # an empty decomposition cannot be made, so shrinkage never sees one
        with pytest.raises(StructuralError, match="p >= 1"):
            SpectralDecomposition(np.array([]), np.zeros((0, 0)))

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError, match="effective sample size"):
            shrink_eigenvalues(decomp_from([1.0]), 0, 1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(StructuralError, match="non-finite"):
            shrink_eigenvalues(decomp_from([bad, 1.0]), 8, 2)


class TestKernelSums:
    def test_center_of_single_bump(self):
        # at lambda = lambda_j the linear term and the log both vanish exactly;
        # one eigenvalue 1 at n = 1 has bandwidth 1
        a, b = ab_at(1.0, [1.0], 1)
        assert a == 0.0
        assert b == 3.0 / (4.0 * SQRT5)

    def test_bump_edge_b_vanishes_a_finite(self):
        # at |x| = sqrt5 the b bracket hits zero and the a log singularity is
        # removable; the guard keeps the linear term
        edge = 1.0 + SQRT5
        a, b = ab_at(edge, [1.0], 1)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert a == pytest.approx(-3.0 * SQRT5 / (10.0 * math.pi), abs=1e-10)

    def test_continuity_across_edge(self):
        edge = 1.0 + SQRT5
        a_edge, _ = ab_at(edge, [1.0], 1)
        for delta in (1e-9, -1e-9):
            a_near, b_near = ab_at(edge + delta, [1.0], 1)
            assert a_near == pytest.approx(a_edge, abs=1e-6)
            assert math.isfinite(a_near) and b_near >= 0.0

    def test_b_nonnegative_and_compact_support(self):
        far = 2.0 + SQRT5 * FIX_A_N ** (-1.0 / 3.0) * 2.0 * 1.001
        _, b = ab_at(far, FIX_A_EVALS, FIX_A_N)
        assert b == 0.0
        grid = np.linspace(-1.0, 4.0, 101)
        bs = np.array([ab_at(x, FIX_A_EVALS, FIX_A_N)[1] for x in grid])
        assert np.all(bs >= 0.0)

    @pytest.mark.parametrize("lam", sorted(FIX_A_AB))
    def test_frozen_reference_values(self, lam):
        a, b = ab_at(lam, FIX_A_EVALS, FIX_A_N)
        a_ref, b_ref = FIX_A_AB[lam]
        assert a == pytest.approx(a_ref, rel=1e-12, abs=1e-15)
        assert b == pytest.approx(b_ref, rel=1e-12)

    def test_matches_mpmath_on_random_spectrum(self):
        rng = np.random.default_rng(42)
        evals = np.sort(rng.uniform(0.5, 4.0, size=5))[::-1]
        for lam in (0.2, 1.1, 2.7, 5.0):
            a, b = ab_at(lam, evals, 30)
            a_ref, b_ref = kernel_ab_mp(lam, evals, 30)
            assert a == pytest.approx(float(a_ref), rel=1e-12, abs=1e-14)
            assert b == pytest.approx(float(b_ref), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize(
        "lam, n", [(1.0 + 23.0 / 8.0, 512), (1e4, 512), (1e12, 512), (0.5, 10**6), (1e-3, 10**6)]
    )
    def test_far_field_matches_mpmath(self, lam, n):
        # one eigenvalue 1 with h = n**(-1/3): x = 23, 8e4 and 8e12 above it,
        # and x = -50 and about -100 below it, where only n > 11180 reaches
        # |x| > 10 sqrt5; the closed form cancels about x^2, in floats and in
        # the reference too, so the reference runs at 80 digits
        a, b = ab_at(lam, [1.0], n)
        a_ref, _ = kernel_ab_mp(lam, [1.0], n, dps=80)
        assert abs(a - float(a_ref)) <= 1e-14 * abs(float(a_ref))
        assert b == 0.0

    def test_matches_mpmath_on_a_wide_spectrum(self):
        # the first H0 pair of seed 1 at p = 190, n1 = n2 = 100, order 4: its
        # retained eigenvalues run from about 1e4 down to near 0, so |x|
        # reaches about 1e8 and the far field's two parts cancel
        p = 190
        pair = first_h0_pair(p, 100, 100, 4)
        retained = spectral_decompose(pooled_scm(pair)).eigenvalues[: min(p, pair.n)]
        idx = np.concatenate(([0, 1, 2], np.linspace(3, retained.size - 1, 17).astype(int)))
        a, _ = _kernel_sums(retained[idx], retained, pair.n)
        a_ref = np.array(
            [float(kernel_ab_mp(x, retained, pair.n, dps=40)[0]) for x in retained[idx]]
        )
        # An exact far field leaves the near field's log rounding, about
        # 1e-13 relative for |x| <= 22.4 (ROADMAP item 1); 1e-11 gives that
        # a factor 100 for the rounding of a sum over 190 terms.
        assert np.max(np.abs(a - a_ref) / np.abs(a_ref)) < 1e-11

    @pytest.mark.parametrize("p, n1, order", [(200, 150, 2), (200, 200, 4), (800, 150, 2)])
    def test_matches_mpmath_on_the_benchmark_spectra(self, p, n1, order):
        # the first H0 pair of seed 1 at the benchmark's shapes, decomposed
        # as the engine does (Gram side at p = 800); there p > n, so the
        # zero eigenvalues' target needs a(0) and 0 is a point too.  a's band
        # is the wide-spectrum test's: 1e-13 for the near field's log
        # rounding, times 100 for a sum of up to 298 terms.  b's terms are
        # >= 0, so its sum does not cancel: 5e-16 is measured, and 1e-13
        # leaves a factor 200.
        pair = first_h0_pair(p, n1, n1, order)
        retained = pair.decomposition.eigenvalues[: min(p, pair.n)]
        idx = np.concatenate(([0, 1, 2], np.linspace(3, retained.size - 1, 17).astype(int)))
        points = np.append(retained[idx], 0.0) if p > pair.n else retained[idx]
        a, b = _kernel_sums(points, retained, pair.n)
        ref = [kernel_ab_mp(x, retained, pair.n, dps=40) for x in points]
        a_ref = np.array([float(r[0]) for r in ref])
        b_ref = np.array([float(r[1]) for r in ref])
        assert np.max(np.abs(a - a_ref) / np.abs(a_ref)) < 1e-11
        inside = b_ref > 0.0
        assert np.all(b[~inside] == 0.0)
        assert np.max(np.abs(b - b_ref)[inside] / b_ref[inside]) < 1e-13

    def test_both_exact_singularities_match_mpmath(self):
        # one eigenvalue 4 at n = 64 has h = 1 exactly, so 4 + sqrt5 and
        # 4 - sqrt5 land on x = +sqrt5 and x = -sqrt5 in floats, where the
        # log's numerator or denominator is exactly 0; and two float
        # neighbours of each on either side
        assert (4.0 + SQRT5) - 4.0 == SQRT5 and (4.0 - SQRT5) - 4.0 == -SQRT5
        points = []
        for edge in (4.0 + SQRT5, 4.0 - SQRT5):
            below = np.nextafter(edge, -math.inf)
            above = np.nextafter(edge, math.inf)
            points += [np.nextafter(below, -math.inf), below, edge, above, np.nextafter(above, math.inf)]
        a, b = _kernel_sums(np.array(points), np.array([4.0]), 64)
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
        for lam, a_i, b_i in zip(points, a, b):
            a_ref, b_ref = kernel_ab_mp(lam, [4.0], 64)
            assert a_i == pytest.approx(float(a_ref), rel=1e-12, abs=1e-14)
            assert b_i == pytest.approx(float(b_ref), rel=1e-12, abs=1e-14)


class TestChunkedKernelSums:
    """_kernel_sums runs in row chunks; its sums must have the one-shot bits."""

    K = 60  # evaluation points

    @staticmethod
    def spectrum():
        # n = 1 gives bandwidths h_j = lambda_j, so lambda = 1 + sqrt5 lands
        # exactly on the singularity of the eigenvalue 1.0 (x == sqrt5 in floats)
        rng = np.random.default_rng(17)
        evals = np.sort(np.concatenate(([1.0], rng.uniform(0.05, 9.0, size=36))))[::-1]
        points = np.concatenate(
            ([1.0 + SQRT5, 0.0], evals[:20], rng.uniform(0.0, 12.0, size=TestChunkedKernelSums.K - 22))
        )
        assert SQRT5 - (points[0] - 1.0) == 0.0  # the library's sqrt5 - x at h = 1
        return points, evals

    @pytest.mark.parametrize(
        "rows",
        [K, 6, 7, 1, 0.5],  # chunk size in rows of eigenvalues; 60 = 10 * 6 = 8 * 7 + 4
        ids=["one_chunk", "several_chunks", "ragged_last", "row_by_row", "under_one_row"],
    )
    @pytest.mark.parametrize("n", [1, 300])
    def test_matches_one_shot_expression(self, monkeypatch, rows, n):
        points, evals = self.spectrum()
        monkeypatch.setattr(shrinkage, "_KERNEL_CHUNK", int(rows * evals.size))
        a, b = _kernel_sums(points, evals, n)
        a_ref, b_ref = kernel_sums_one_shot(points, evals, n)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(b, b_ref)
        assert np.all(np.isfinite(a))

    def test_default_chunk_matches_one_shot_at_scale(self):
        rng = np.random.default_rng(5)
        evals = np.sort(rng.uniform(0.1, 20.0, size=700))[::-1]
        points = np.concatenate((evals, rng.uniform(0.0, 25.0, size=300)))
        assert points.size * evals.size > 3 * shrinkage._KERNEL_CHUNK
        a, b = _kernel_sums(points, evals, 1500)
        a_ref, b_ref = kernel_sums_one_shot(points, evals, 1500)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(b, b_ref)

    def test_working_set_is_bounded_by_the_chunk(self):
        k = m = 2000
        rng = np.random.default_rng(6)
        evals = np.sort(rng.uniform(0.1, 20.0, size=m))[::-1]
        points = rng.uniform(0.0, 25.0, size=k)
        # four float work buffers of at most _KERNEL_CHUNK entries, boolean
        # masks of the same count, and a few length-k and length-m vectors;
        # the one-shot form needs about 15 float arrays of k * m entries
        limit = 5 * 8 * shrinkage._KERNEL_CHUNK + 8 * 8 * (k + m)
        assert limit < k * m * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _kernel_sums(points, evals, 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"peak {peak} B over the {limit} B bound"


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

    def test_ledoit_peche_oracle_meets_the_p_below_n_form_at_p_equals_n(self):
        # at c = 1 both oracle forms read 1/(lambda |s|^2), as ROADMAP item 2
        # states; they differ only by the rounding of the 50-digit arithmetic
        evals = (3.0, 1.0, 0.5)
        below = shrink_mp(evals, 3, 3)
        above = shrink_above_mp(evals, 3, 3)
        assert len(above) == len(below) == 3
        for x, y in zip(below, above):
            assert abs(x - y) <= 1e-45 * abs(x)

    def test_matches_the_ledoit_peche_oracle_above_p_equals_n(self):
        # fixture B, and the first H0 pair of seed 1 at p = 400, n1 = n2 = 100
        # (c about 2) at order 0: its 3 largest and 17 evenly spaced retained
        # eigenvalues
        pair = first_h0_pair(400, 100, 100, 0)
        idx = np.concatenate(([0, 1, 2], np.linspace(3, pair.n - 1, 17).astype(int)))
        cases = [(decomp_from(FIX_B_EVALS), FIX_B_N, [0, 1]), (pair.decomposition, pair.n, idx)]
        for decomp, n, idx in cases:
            lam = decomp.eigenvalues
            got = shrink_eigenvalues(decomp, n, decomp.p)
            want = shrink_mp(lam[:n], n, decomp.p, dps=40, points=lam[idx])
            # The oracle is exact to about 1e-38, so the gap is the library's
            # double rounding: its kernel sums carry the near-field log
            # rounding, about 1e-13 relative (ROADMAP item 1); d = 1/(lambda
            # |s|^2) doubles it, and 1e-10 leaves a factor 500 for sums over
            # up to 198 terms.  The last value is the zero eigenvalues' target.
            np.testing.assert_allclose(
                np.append(got[idx], got[-1]), [float(v) for v in want], rtol=1e-10
            )

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

    @pytest.mark.parametrize(
        "n, p", [(2.5, 4), (8, 4.0), ("8", 4), (True, 4)],
        ids=["float-n", "float-p", "str-n", "bool-n"],
    )
    def test_n_and_p_must_be_integers(self, n, p):
        with pytest.raises(StructuralError, match="must be an integer"):
            shrink_eigenvalues(decomp_from([4.0, 3.0, 2.0, 1.0]), n, p)


class TestLwCovariance:
    """The shrunk eigenvalues of the LW covariance estimate."""

    def test_tracks_oracle_variances_on_average(self):
        # single seeded draw from the flat model: mean shrunk eigenvalue close
        # to the mean oracle variance u_i' R u_i
        rng = np.random.default_rng(5)
        model = make_covariance(0, 60, rng)
        x1 = generate_sample(model, np.zeros(60), 80, rng)
        x2 = generate_sample(model, np.zeros(60), 80, rng)
        pair = SamplePair(x1, x2)
        decomp = spectral_decompose(pooled_scm(pair))
        dhat = shrink_eigenvalues(decomp, pair.n, pair.p)
        diag = oracle_diagnostics(decomp, dhat, model)
        assert dhat.mean() == pytest.approx(diag.sigma2.mean(), rel=0.15)


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
        split = _factored(np.array([3.0, 0.0]), np.eye(2)[:, :1], np.eye(1))
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
            return snr_proxy_dense(m, np.diag(model))

        f0 = proxy_at(res.lambda_star)
        assert f0 == pytest.approx(res.snr_at_optimum, rel=1e-9)
        for bump in (0.9, 1.1):
            assert proxy_at(res.lambda_star * bump) <= f0 + 1e-12

    def test_rejects_zero_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            optimize_loading(
                SpectralDecomposition(np.zeros(2), np.eye(2)), np.ones(2)
            )

    def test_scan_range_past_the_float_range_is_a_domain_error(self):
        # 1e6 times the mean eigenvalue 1e305 overflows
        with pytest.raises(DomainError, match="scan range overflows"):
            optimize_loading(decomp_from([1e305, 1e305]), np.ones(2))
        # the top, 2.5e5 times the largest eigenvalue here, is finite, but the
        # top plus that eigenvalue is not; and a mean whose sum overflows is
        # reported by the same check, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="scan range overflows"):
                optimize_loading(decomp_from([7.19076e302, 0.0, 0.0, 0.0]), np.ones(4))
            with pytest.raises(DomainError, match="scan range overflows"):
                optimize_loading(decomp_from([1.7e308, 1.7e308]), np.ones(2))

    @pytest.mark.parametrize("evals", [[1e300, 1e300], [1e-300, 1e-300], [1e-310, 1e-310]])
    def test_flat_spectrum_at_the_float_edges_gives_one(self, evals):
        # R = I and equal eigenvalues: the proxy is identically 1 (Cauchy-Schwarz
        # equality), and the scale-free sums stay finite at either end of the range
        decomp, pop = decomp_from(evals), np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_loading(decomp, pop)
        want = loading_search_mp(decomp, pop)
        assert want.snr == pytest.approx(1.0, abs=1e-12)
        assert res.snr_at_optimum == pytest.approx(want.snr, abs=1e-12)
        m = float(decomp.eigenvalues.mean())
        assert m * 1e-6 * (1 - 1e-9) <= res.lambda_star <= m * 1e6 * (1 + 1e-9)

    @pytest.mark.parametrize(
        "evals, match",
        [([2e-320, 1e-320], "scan range underflows")],
    )
    def test_tiny_spectrum_is_a_domain_error_without_warnings(self, evals, match):
        # 1e-6 times the mean eigenvalue 1.5e-320 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                optimize_loading(decomp_from(evals), np.ones(2))

    def test_negative_eigenvalue_is_degenerate(self):
        # S + lambda I would be indefinite for lambda < 0.5
        with pytest.raises(DegenerateSpectrumError, match="negative"):
            optimize_loading(decomp_from([2.0, -0.5]), np.ones(2))

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_population_scale_moves_only_the_proxy(self, scale):
        # the proxy scales as 1/c with R -> cR, and the optimum does not move
        pair, model = loading_pair(60, 2, 0)
        base = optimize_loading(pair.decomposition, model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_loading(pair.decomposition, model * scale)
        assert res.lambda_star == pytest.approx(base.lambda_star, rel=1e-9)
        assert res.snr_at_optimum == pytest.approx(base.snr_at_optimum / scale, rel=1e-9)

    def test_proxy_past_the_float_range_is_a_domain_error(self):
        # R = 1e-310 I: the proxy is about 1e310
        with pytest.raises(DomainError, match="SNR proxy overflows"):
            optimize_loading(decomp_from([1.0, 1.0]), np.full(2, 1e-310))


def loading_pair(p, order, seed):
    rng = np.random.default_rng(seed)
    model = make_covariance(order, p, rng)
    pair = SamplePair(
        generate_sample(model, np.zeros(p), 40, rng),
        generate_sample(model, np.zeros(p), 40, rng),
    )
    return pair, model


class TestBlockScan:
    """optimize_loading scans 64 points as one array, then solves phi' = 0 in
    the bracket of the best one's neighbours; on either side of p = N its
    optimum is the mpmath scan-and-root's, within the 1e-6 log tolerance,
    with the proxy's value there to 1e-12."""

    @staticmethod
    def check(decomp, pop):
        want = loading_search_mp(decomp, pop)
        got = optimize_loading(decomp, pop)
        assert abs(math.log(got.lambda_star) - want.log_loading) <= 1e-6
        assert got.snr_at_optimum == pytest.approx(want.snr, rel=1e-12)
        assert got.evaluations > 64
        return want, got

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("p", [60, 150], ids=["p<=N", "p>N"])
    def test_matches_the_scalar_scan(self, p, order):
        for seed in range(3):
            pair, model = loading_pair(p, order, seed)
            decomp = pair.decomposition
            assert (decomp._b is None) == (p <= 80)
            self.check(decomp, model)

    @pytest.mark.parametrize(
        "pop, edge", [(lambda ev: ev, 0), (np.ones_like, 63)], ids=["bottom", "top"]
    )
    def test_optimum_at_a_scan_edge(self, pop, edge):
        # R equal to the spectrum peaks at the smallest loading, R = I at the
        # largest; phi' then keeps its sign across the bracket at the scan's end
        for evals in ([4.0, 2.0, 1.0, 0.5], [100.0, 1.0, 0.01]):
            decomp = decomp_from(evals)
            assert self.check(decomp, pop(decomp.eigenvalues))[0].scan_argmax == edge


NULL_STREAMS = 400


@pytest.fixture(scope="module")
def null_streams():
    """Criterion 1's shape (p = 200, n1 = n2 = 200, order 4, seed 0) on the
    first 400 H0 streams, drawn as the trial engine draws them: per stream,
    the library's lw Z and the oracle Z."""
    p, n1, n2, seed = 200, 200, 200, 0
    diag = make_covariance(4, p, np.random.default_rng(np.random.SeedSequence(model_seed(seed))))
    lib, oracle = [], []
    for t in range(NULL_STREAMS):
        rng = np.random.default_rng(np.random.SeedSequence(trial_seed(seed, t, 0)))
        pair = SamplePair(
            generate_sample(diag, np.zeros(p), n1, rng),
            generate_sample(diag, np.zeros(p), n2, rng),
        )
        res = lw_score(pair)
        dhat = shrink_eigenvalues(pair.decomposition, pair.n, p)
        mean, half_var = null_moments(pair.decomposition, dhat, diag)
        lib.append(res.score)
        oracle.append((res.aux["t2_lw"] - mean) / math.sqrt(2.0 * half_var))
    return np.array(lib), np.array(oracle)


class TestNullMoments:
    """The H0 moments of lw's quadratic form given the estimate (ROADMAP item 3).

    Under H0 both group means are zero, so w = sqrt(k) (xbar1 - xbar2), with
    k = n1 n2 / (n1 + n2), has mean 0 and covariance R; it is a scaled sum of
    n1 + n2 independent columns, so close to N(0, R).  The estimate
    A^-1 = U D U' is built from the centred columns, treated here as
    independent of w (exactly so for Gaussian data).  Given A, the quadratic
    form T2 = w' A w of a Gaussian w has mean tr(AR) and variance 2 tr((AR)^2).
    With A = U D^-1 U' and U orthogonal, tr(AR) = tr(D^-1 M) and
    tr((AR)^2) = tr((D^-1 M)^2) for M = U'RU.  So the oracle Z,
    (T2 - tr(D^-1 M)) / sqrt(2 tr((D^-1 M)^2)), has mean 0 and variance 1
    given each pair's estimate, hence over the streams too.  The streams are
    independent, so the mean of N of them has standard error 1/sqrt(N), and
    the sample variance of N normal values has standard error
    sqrt(2/(N - 1)); each band is three standard errors.  The library's Z
    divides by sqrt(2p) instead, which leaves out the eigenbasis coupling
    in tr((D^-1 M)^2).
    """

    def variance_band(self, z):
        half = 3.0 * math.sqrt(2.0 / (NULL_STREAMS - 1))
        assert 1.0 - half < z.var(ddof=1) < 1.0 + half

    def test_oracle_z_is_standardised(self, null_streams):
        _, oracle = null_streams
        assert abs(oracle.mean()) < 3.0 / math.sqrt(NULL_STREAMS)
        self.variance_band(oracle)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 3: lw's Z leaves out the coupling"
    )
    def test_library_z_meets_the_variance_band(self, null_streams):
        lib, _ = null_streams
        self.variance_band(lib)
