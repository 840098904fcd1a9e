import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtest.detectors import (
    DetectorKind,
    ScoreResult,
    bs96_score,
    cq10_score,
    hotelling_score,
    lappw_score,
    lw_score,
    mahalanobis_score,
)
from hdtest.errors import (
    DegenerateVarianceError,
    DomainError,
    SingularCovarianceError,
    StructuralError,
)
from hdtest.simulation import blas_pinned, generate_sample, make_covariance, sample_sphere
from hdtest.shrinkage import lw_covariance
from hdtest.spectral import (
    DataMatrix,
    SamplePair,
    decompose_pair,
    pooled_scm,
    spectral_decompose,
)

from oracles import cq10_double_loop


def pair_from(x1, x2) -> SamplePair:
    return SamplePair(DataMatrix(np.asarray(x1, dtype=float)), DataMatrix(np.asarray(x2, dtype=float)))


def random_pair(rng, p, n1, n2) -> SamplePair:
    return pair_from(rng.standard_normal((p, n1)), rng.standard_normal((p, n2)))


def model_pair(seed, p, n1, n2, order=0, mu=None):
    rng = np.random.default_rng(seed)
    model = make_covariance(order, p, rng)
    mean1 = np.zeros(p) if mu is None else np.asarray(mu, dtype=float)
    x1 = generate_sample(model, mean1, n1, rng)
    x2 = generate_sample(model, np.zeros(p), n2, rng)
    return model, SamplePair(x1, x2)


class TestDetectorKind:
    def test_round_trips_names(self):
        for kind in DetectorKind:
            assert DetectorKind.from_name(kind.value) is kind

    def test_unknown_name_lists_known(self):
        with pytest.raises(StructuralError, match="hotelling"):
            DetectorKind.from_name("nope")

    def test_score_result_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ScoreResult(DetectorKind.CQ10, math.nan)


class TestMahalanobis:
    def test_identity_covariance_is_squared_norm(self):
        pair = pair_from([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        res = mahalanobis_score(pair, np.eye(2))
        assert res.kind is DetectorKind.MAHALANOBIS_ORACLE
        assert res.score == pytest.approx(1.0)

    def test_diagonal_covariance_weights_coordinates(self):
        pair = pair_from([[2.0, 2.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        # diff = (2, 1); R = diag(4, 1) -> 4/4 + 1/1 = 2
        assert mahalanobis_score(pair, np.diag([4.0, 1.0])).score == pytest.approx(2.0)

    def test_rejects_singular_population(self):
        pair = pair_from([[1.0, 1.0]], [[0.0, 0.0]])
        with pytest.raises(SingularCovarianceError):
            mahalanobis_score(pair, np.zeros((1, 1)))


class TestHotelling:
    def test_scalar_hand_example(self):
        # x1 = [0, 2], x2 = [3, 3]: diff = -2, S = 1, k = 1 -> 1 * 4 / ... no
        # prefactor: diff' S^{-1} diff = 4
        pair = pair_from([[0.0, 2.0]], [[3.0, 3.0]])
        assert hotelling_score(pair).score == pytest.approx(4.0)

    def test_frozen_hand_example(self):
        # x1 mean 1 scatter 2, x2 mean -2 scatter 0: diff = 3, S = 1 -> 9
        pair = pair_from([[0.0, 2.0]], [[-2.0, -2.0]])
        assert hotelling_score(pair).score == pytest.approx(9.0)

    def test_rejects_p_above_n(self):
        rng = np.random.default_rng(0)
        pair = random_pair(rng, 10, 4, 4)  # n = 6 < 10
        with pytest.raises(SingularCovarianceError):
            hotelling_score(pair)

    def test_rejects_numerically_singular_scm(self):
        # second coordinate is an exact copy of the first -> rank-deficient S
        rng = np.random.default_rng(1)
        base1 = rng.standard_normal((1, 6))
        base2 = rng.standard_normal((1, 6))
        pair = pair_from(np.vstack([base1, base1]), np.vstack([base2, base2]))
        with pytest.raises(SingularCovarianceError):
            hotelling_score(pair)

    def test_accepts_precomputed_decomposition(self):
        _, pair = model_pair(4, 5, 10, 10)
        decomp = spectral_decompose(pooled_scm(pair))
        assert hotelling_score(pair, decomp=decomp).score == hotelling_score(pair).score


class TestLwDetector:
    def test_equal_means_give_minus_sqrt_half_p(self):
        # identical groups: diff = 0, T2 = 0, Z = -p/sqrt(2p) = -sqrt(p/2)
        x = np.array([[1.0, -1.0, 0.5, -0.5], [0.2, 0.4, -0.2, -0.4]])
        pair = pair_from(x, x)
        res = lw_score(pair)
        assert res.aux["t2_lw"] == 0.0
        assert res.score == pytest.approx(-math.sqrt(pair.p / 2.0), rel=1e-12)

    def test_score_is_centered_scaled_quadratic_form(self):
        _, pair = model_pair(5, 8, 20, 22)
        res = lw_score(pair)
        assert res.score == pytest.approx(
            (res.aux["t2_lw"] - pair.p) / math.sqrt(2.0 * pair.p), rel=1e-12
        )

    def test_override_matches_manual_quadratic_form(self):
        _, pair = model_pair(6, 6, 15, 15)
        decomp = spectral_decompose(pooled_scm(pair))
        est = lw_covariance(decomp, pair.n, pair.p)
        res = lw_score(pair, decomp=decomp)
        v = pair.mean_diff
        t2 = pair.diff_scale * float(v @ np.linalg.solve(est.matrix(), v))
        assert res.aux["t2_lw"] == pytest.approx(t2, rel=1e-12)

    def test_runs_when_p_exceeds_n(self):
        rng = np.random.default_rng(7)
        pair = random_pair(rng, 12, 5, 5)  # n = 8 < 12
        res = lw_score(pair)
        assert math.isfinite(res.score)
        assert res.aux["t2_lw"] > 0.0


class TestBs96:
    def test_equal_means_numerator_is_minus_trace(self):
        x = np.array([[1.0, -1.0, 2.0], [0.0, 1.0, -1.0]])
        pair = pair_from(x, x)
        res = bs96_score(pair)
        tr = float(np.trace(pooled_scm(pair).entries))
        assert res.aux["numerator"] == pytest.approx(-tr, rel=1e-12)
        assert res.score < 0.0

    def test_closed_form_on_orthogonal_design(self):
        # columns sqrt(n/4)*(e1, -e1, e2, -e2) in both groups: means are zero,
        # S = I exactly, so tr S = p = 2, tr S^2 = 2 and
        # B_n = n^2/((n+2)(n-1)) * (2 - 4/n) with n = 6
        scale = math.sqrt(6.0 / 4.0)
        cols = scale * np.array(
            [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]
        )
        pair = pair_from(cols, cols)
        res = bs96_score(pair)
        n = 6.0
        bn = n * n / ((n + 2.0) * (n - 1.0)) * (2.0 - 4.0 / n)
        assert bn == pytest.approx(1.2)
        assert res.aux["b_n"] == pytest.approx(bn, abs=1e-12)
        assert res.aux["numerator"] == pytest.approx(-2.0, abs=1e-12)
        assert res.score == pytest.approx(-2.0 / math.sqrt((2.0 * 7.0 / 6.0) * 1.2), rel=1e-12)

    def test_rejects_degenerate_variance(self):
        # identical constant columns: S = 0 -> B_n = 0
        pair = pair_from(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(DegenerateVarianceError):
            bs96_score(pair)

    def test_null_scores_roughly_standardized(self):
        scores = []
        for t in range(300):
            _, pair = model_pair(1000 + t, 50, 30, 30)
            scores.append(bs96_score(pair).score)
        v = float(np.var(scores, ddof=1))
        assert 0.6 < v < 1.4
        assert abs(float(np.mean(scores))) < 0.2

    def test_accepts_precomputed_scm(self):
        _, pair = model_pair(8, 6, 10, 12)
        scm = pooled_scm(pair)
        assert bs96_score(pair, scm=scm).score == bs96_score(pair).score


class TestCq10:
    def test_orthonormal_columns_give_zero(self):
        # distinct standard-basis columns: every cross product vanishes
        pair = pair_from(np.eye(4)[:, :2], np.eye(4)[:, 2:])
        assert cq10_score(pair).score == pytest.approx(0.0, abs=1e-15)

    def test_constant_shift_gives_squared_norm(self):
        c = np.array([1.0, 2.0])
        x1 = np.tile(c[:, None], (1, 3))
        x2 = np.zeros((2, 3))
        pair = pair_from(x1, x2)
        assert cq10_score(pair).score == pytest.approx(float(c @ c), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((7, 6))
        x2 = rng.standard_normal((7, 5))
        got = cq10_score(pair_from(x1, x2)).score
        want = cq10_double_loop(x1, x2)
        assert got == pytest.approx(want, rel=1e-10)

    def test_unbiased_for_squared_mean_distance(self):
        # average over many tiny trials approximates ||mu1 - mu2||^2
        rng = np.random.default_rng(99)
        mu = np.array([0.6, -0.8])
        vals = []
        for _ in range(20000):
            x1 = mu[:, None] + rng.standard_normal((2, 3))
            x2 = rng.standard_normal((2, 3))
            vals.append(cq10_score(pair_from(x1, x2)).score)
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(est - 1.0) < 3.0 * se


class TestLappw:
    def test_equal_means_give_zero(self):
        x = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
        pair = pair_from(x, x)
        model = make_covariance(0, 2, np.random.default_rng(0))
        assert lappw_score(pair, model).score == pytest.approx(0.0, abs=1e-12)

    def test_identity_population_drives_loading_to_euclidean_limit(self):
        # R = I pushes lambda* -> huge, so score ~ k*||diff||^2/(lambda*+lam_i)
        # ~ k*||diff||^2/lambda*; verify against that limit using the reported
        # loading
        rng = np.random.default_rng(12)
        p, n1, n2 = 10, 51, 51
        pair = random_pair(rng, p, n1, n2)
        pop = np.ones(p)
        res = lappw_score(pair, pop)
        lam_star = res.aux["loading"]
        decomp = spectral_decompose(pooled_scm(pair))
        diff = pair.mean_diff
        proj = decomp.eigenvectors.T @ diff
        expected = pair.diff_scale * float(np.sum(proj * proj / (decomp.eigenvalues + lam_star)))
        assert res.score == pytest.approx(expected, rel=1e-12)
        assert lam_star > 1e3 * float(decomp.eigenvalues.mean())

    def test_rank_correlates_with_bs96_in_heavy_loading_limit(self):
        # with R = I the loading is enormous, so lappw ranks pairs like the
        # euclidean norm of the mean difference, i.e. like the bs96 numerator
        lappw_vals = []
        eucl = []
        for t in range(60):
            rng = np.random.default_rng(2000 + t)
            pair = random_pair(rng, 8, 40, 40)
            lappw_vals.append(lappw_score(pair, np.ones(8)).score)
            d = pair.mean_diff
            eucl.append(pair.diff_scale * float(d @ d))
        rank_a = np.argsort(np.argsort(lappw_vals)).astype(float)
        rank_b = np.argsort(np.argsort(eucl)).astype(float)
        rho = float(np.corrcoef(rank_a, rank_b)[0, 1])
        assert rho > 0.9

    def test_score_scale_invariance(self):
        # scaling the data by c scales S, lambda*, and diff^2 compatibly:
        # score(c*X) = score(X) for the clairvoyant loading against c^2*R
        rng = np.random.default_rng(13)
        p = 6
        model = make_covariance(2, p, rng)
        x1 = generate_sample(model, np.zeros(p), 20, rng)
        x2 = generate_sample(model, np.zeros(p), 20, rng)
        pair = SamplePair(x1, x2)
        base = lappw_score(pair, model).score
        c = 3.0
        scaled_pair = pair_from(c * x1.entries, c * x2.entries)
        scaled = lappw_score(scaled_pair, c * c * model.diag).score
        assert scaled == pytest.approx(base, rel=1e-5)


class TestPermutationEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_coordinate_permutation_preserves_scores(self, seed):
        rng = np.random.default_rng(seed)
        p = 6
        x1 = rng.standard_normal((p, 12))
        x2 = rng.standard_normal((p, 10))
        perm = rng.permutation(p)
        pair = pair_from(x1, x2)
        ppair = pair_from(x1[perm], x2[perm])
        r = np.diag(rng.uniform(0.5, 2.0, size=p))
        rp = np.diag(np.diag(r)[perm])
        assert cq10_score(ppair).score == pytest.approx(cq10_score(pair).score, rel=1e-9)
        assert bs96_score(ppair).score == pytest.approx(bs96_score(pair).score, rel=1e-9)
        assert hotelling_score(ppair).score == pytest.approx(
            hotelling_score(pair).score, rel=1e-8
        )
        assert lw_score(ppair).score == pytest.approx(lw_score(pair).score, rel=1e-8)
        assert mahalanobis_score(ppair, rp).score == pytest.approx(
            mahalanobis_score(pair, r).score, rel=1e-9
        )


class TestGramSide:
    """For p > n1 + n2 every detector reads the range-plus-null decomposition;
    its scores must agree with the p x p path on the same pair."""

    @pytest.mark.parametrize("order", [0, 2, 4])
    @pytest.mark.parametrize("p,n1,n2", [(150, 40, 40), (401, 100, 100)])
    def test_scores_agree_with_the_p_by_p_path(self, p, n1, n2, order):
        rng = np.random.default_rng(order)
        mu = sample_sphere(p, 2.0, rng)
        model, pair = model_pair(p + order, p, n1, n2, order=order, mu=mu)
        with blas_pinned():
            gram = decompose_pair(pair)
            scm = pooled_scm(pair)
            full = spectral_decompose(scm)
            for score in (
                lambda d: lw_score(pair, decomp=d).score,
                lambda d: lappw_score(pair, model, decomp=d).score,
            ):
                want = score(full)
                assert abs(score(gram) - want) <= 1e-5 * max(1.0, abs(want))
            want = bs96_score(pair, scm=scm).score
            assert bs96_score(pair, decomp=gram).score == pytest.approx(want, rel=1e-12, abs=0)
            # with no decomposition given, each detector takes the Gram side itself
            assert lw_score(pair).score == lw_score(pair, decomp=gram).score
            assert lappw_score(pair, model).score == lappw_score(pair, model, decomp=gram).score
            assert bs96_score(pair).score == bs96_score(pair, decomp=gram).score
            oracle = mahalanobis_score(pair, model).score
            assert oracle == mahalanobis_score(pair, np.diag(model.diag)).score


class TestDiagonalOracle:
    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_model_path_equals_the_dense_cholesky_path(self, order):
        p = 200
        rng = np.random.default_rng(10 + order)
        model = make_covariance(order, p, rng)
        dense = np.diag(model.diag)
        with blas_pinned():
            for _ in range(50):
                mu = sample_sphere(p, 1.0, rng)
                pair = SamplePair(
                    generate_sample(model, mu, 20, rng),
                    generate_sample(model, np.zeros(p), 20, rng),
                )
                fast = mahalanobis_score(pair, model).score
                assert fast == mahalanobis_score(pair, dense).score
