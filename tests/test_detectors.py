import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtest import spectral
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
    DegenerateSpectrumError,
    DegenerateVarianceError,
    DomainError,
    SingularCovarianceError,
    StructuralError,
)
from hdtest.simulation import (
    blas_pinned,
    generate_sample,
    make_covariance,
    sample_sphere,
)
from hdtest.shrinkage import shrink_eigenvalues
from hdtest.spectral import (
    SamplePair,
    pooled_scm,
    spectral_decompose,
)

from oracles import cq10_double_loop, dense_path_scores, mahalanobis_cholesky


def random_pair(rng, p, n1, n2) -> SamplePair:
    return SamplePair(rng.standard_normal((p, n1)), rng.standard_normal((p, n2)))


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
            assert DetectorKind(kind.value) is kind

    def test_unknown_name_lists_known(self):
        with pytest.raises(StructuralError, match="hotelling"):
            DetectorKind("nope")

    def test_score_result_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ScoreResult(DetectorKind.CQ10, math.nan)


class TestMahalanobis:
    def test_identity_covariance_is_squared_norm(self):
        pair = SamplePair([[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])
        res = mahalanobis_score(pair, np.ones(2))
        assert res.kind is DetectorKind.MAHALANOBIS_ORACLE
        assert res.score == pytest.approx(1.0)

    def test_diagonal_covariance_weights_coordinates(self):
        pair = SamplePair([[2.0, 2.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        # diff = (2, 1); R = diag(4, 1) -> 4/4 + 1/1 = 2
        assert mahalanobis_score(pair, np.array([4.0, 1.0])).score == pytest.approx(2.0)

    def test_rejects_singular_population(self):
        pair = SamplePair([[1.0, 1.0]], [[0.0, 0.0]])
        with pytest.raises(SingularCovarianceError):
            mahalanobis_score(pair, np.zeros(1))


class TestPopulationReader:
    """Both clairvoyant detectors read the true covariance through one reader:
    its diagonal, a length-p vector of finite positive entries."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("score", [mahalanobis_score, lappw_score])
    @pytest.mark.parametrize(
        "pop,error",
        [
            (np.arange(1.0, 6.0), None),
            (np.ones(4), StructuralError),
            (np.eye(5), StructuralError),
            (spectral_decompose(np.eye(5)), StructuralError),
            ([[1.0], [1.0, 2.0], [1.0], [1.0], [1.0]], StructuralError),
            (np.array([]), StructuralError),
            (np.array([1.0, np.nan, 1.0, 1.0, 1.0]), StructuralError),
            (np.array([1.0, 0.0, 1.0, 1.0, 1.0]), SingularCovarianceError),
            (np.array([1.0, -2.0, 1.0, 1.0, 1.0]), SingularCovarianceError),
        ],
        ids=[
            "vector", "wrong-length", "2-d", "decomposition", "ragged", "empty",
            "nan", "zero", "negative",
        ],
    )
    def test_population_diagonal(self, score, pop, error):
        pair = random_pair(np.random.default_rng(3), 5, 8, 7)
        if error is None:
            assert score(pair, pop).score >= 0.0
        else:
            with pytest.raises(error):
                score(pair, pop)


class TestHotelling:
    def test_scalar_hand_example(self):
        # x1 = [0, 2], x2 = [3, 3]: diff = -2, S = 1, k = 1 -> 1 * 4 / ... no
        # prefactor: diff' S^{-1} diff = 4
        pair = SamplePair([[0.0, 2.0]], [[3.0, 3.0]])
        assert hotelling_score(pair).score == pytest.approx(4.0)

    def test_frozen_hand_example(self):
        # x1 mean 1 scatter 2, x2 mean -2 scatter 0: diff = 3, S = 1 -> 9
        pair = SamplePair([[0.0, 2.0]], [[-2.0, -2.0]])
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
        pair = SamplePair(np.vstack([base1, base1]), np.vstack([base2, base2]))
        with pytest.raises(SingularCovarianceError):
            hotelling_score(pair)


class TestLwDetector:
    def test_equal_means_give_minus_sqrt_half_p(self):
        # identical groups: diff = 0, T2 = 0, Z = -p/sqrt(2p) = -sqrt(p/2)
        x = np.array([[1.0, -1.0, 0.5, -0.5], [0.2, 0.4, -0.2, -0.4]])
        pair = SamplePair(x, x)
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
        u = decomp.eigenvectors
        rlw = (u * shrink_eigenvalues(decomp, pair.n, pair.p)) @ u.T
        res = lw_score(pair)
        v = pair.mean_diff
        t2 = pair.diff_scale * float(v @ np.linalg.solve(rlw, v))
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
        pair = SamplePair(x, x)
        res = bs96_score(pair)
        tr = float(np.trace(pooled_scm(pair)))
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
        pair = SamplePair(cols, cols)
        res = bs96_score(pair)
        n = 6.0
        bn = n * n / ((n + 2.0) * (n - 1.0)) * (2.0 - 4.0 / n)
        assert bn == pytest.approx(1.2)
        assert res.aux["b_n"] == pytest.approx(bn, abs=1e-12)
        assert res.aux["numerator"] == pytest.approx(-2.0, abs=1e-12)
        assert res.score == pytest.approx(-2.0 / math.sqrt((2.0 * 7.0 / 6.0) * 1.2), rel=1e-12)

    def test_rejects_degenerate_variance(self):
        # identical constant columns: S = 0 -> B_n = 0
        pair = SamplePair(np.ones((2, 3)), np.ones((2, 3)))
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


class TestCq10:
    def test_orthonormal_columns_give_zero(self):
        # distinct standard-basis columns: every cross product vanishes
        pair = SamplePair(np.eye(4)[:, :2], np.eye(4)[:, 2:])
        assert cq10_score(pair).score == pytest.approx(0.0, abs=1e-15)

    def test_constant_shift_gives_squared_norm(self):
        c = np.array([1.0, 2.0])
        x1 = np.tile(c[:, None], (1, 3))
        x2 = np.zeros((2, 3))
        pair = SamplePair(x1, x2)
        assert cq10_score(pair).score == pytest.approx(float(c @ c), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal((7, 6))
        x2 = rng.standard_normal((7, 5))
        got = cq10_score(SamplePair(x1, x2)).score
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
            vals.append(cq10_score(SamplePair(x1, x2)).score)
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(est - 1.0) < 3.0 * se


class TestLappw:
    def test_equal_means_give_zero(self):
        x = np.array([[1.0, -1.0, 0.0], [2.0, 0.0, -2.0]])
        pair = SamplePair(x, x)
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
        scaled_pair = SamplePair(c * x1, c * x2)
        scaled = lappw_score(scaled_pair, c * c * model).score
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
        pair = SamplePair(x1, x2)
        ppair = SamplePair(x1[perm], x2[perm])
        r = rng.uniform(0.5, 2.0, size=p)
        rp = r[perm]
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
            want = dense_path_scores(pair, model)
            for got, key in ((lw_score(pair), "lw"), (lappw_score(pair, model), "lappw")):
                assert abs(got.score - want[key]) <= 1e-5 * max(1.0, abs(want[key]))
            assert bs96_score(pair).score == pytest.approx(want["bs96"], rel=1e-12, abs=0)
            assert pair.decomposition.eigenvectors.shape == (p, pair.n)
            oracle = mahalanobis_score(pair, model).score
            assert oracle == mahalanobis_cholesky(pair.mean_diff, np.diag(model))

    @staticmethod
    def close(got, want):
        return abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_population_diagonal_without_unit_entries(self):
        # every row of the factored block enters lappw's weights
        p = 150
        model, pair = model_pair(5, p, 40, 40, order=2, mu=np.full(p, 0.1))
        pop = np.random.default_rng(5).uniform(0.5, 3.0, size=p)
        assert np.all(pop != 1.0)
        with blas_pinned():
            want = dense_path_scores(pair, pop)["lappw"]
            assert self.close(lappw_score(pair, pop).score, want)

    def test_clipped_eigenvalues_leave_fewer_than_n_vectors(self):
        # 20 columns spanning 6 directions: rank 5 after centring, n = 18
        rng = np.random.default_rng(6)
        base = rng.standard_normal((60, 6))
        pair = SamplePair(base[:, [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]], base[:, [4, 5, 0, 1, 2, 3, 4, 5, 0, 1]])
        r = pair.decomposition.eigenvectors.shape[1]
        assert r < pair.n
        assert np.all(pair.decomposition.eigenvalues[r:] == 0.0)
        pop = np.ones(60)
        with blas_pinned():
            want = dense_path_scores(pair, pop, lw=False)
            assert self.close(lappw_score(pair, pop).score, want["lappw"])
            assert bs96_score(pair).score == pytest.approx(want["bs96"], rel=1e-12, abs=0)
            dense = spectral_decompose(pooled_scm(pair))
        for decomp in (pair.decomposition, dense):
            with pytest.raises(DegenerateSpectrumError, match="retained"):
                shrink_eigenvalues(decomp, pair.n, pair.p)

    def test_constant_columns_leave_no_vectors(self):
        pair = SamplePair(np.full((30, 4), 2.5), np.full((30, 3), -1.0))
        assert pair.decomposition.eigenvectors.shape == (30, 0)
        with pytest.raises(DegenerateSpectrumError, match="retained"):
            lw_score(pair)
        with pytest.raises(DegenerateSpectrumError, match="zero-trace"):
            lappw_score(pair, np.ones(30))
        with pytest.raises(DegenerateVarianceError):
            bs96_score(pair)

    def test_scoring_forms_no_p_by_r_block(self):
        """lw reads U'v and lappw diag(U'RU) off the factors, so scoring a
        wide pair holds little beyond its p x N centred data."""
        p, n = 20000, 20
        model, pair = model_pair(8, p, n, n, order=2, mu=np.full(p, 0.01))
        centred_bytes = p * 2 * n * 8
        with blas_pinned():
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                lw_score(pair)
                lappw_score(pair, model)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * centred_bytes, f"peak {peak} B against {centred_bytes} B of data"


class TestOverflow:
    """Finite data whose products overflow the pooled covariance: a domain
    failure of the sample on the p x p path and on the Gram side."""

    @staticmethod
    def wide_pair(p):
        rng = np.random.default_rng(p)
        return SamplePair(1e155 * rng.standard_normal((p, 4)), 1e155 * rng.standard_normal((p, 4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("detector", [bs96_score, lw_score])
    @pytest.mark.parametrize("p", [3, 12])  # n1 = n2 = 4: p x p path, Gram side
    def test_raises_domain_error(self, p, detector):
        with pytest.raises(DomainError, match="pooled sample covariance overflows"):
            detector(self.wide_pair(p))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("detector", [bs96_score, lw_score])
    def test_opposite_infinities_raise_domain_error(self, detector):
        """Entry (0, 1) of group 1's scatter overflows to +inf and group 2's to
        -inf, so their sum is nan: still the typed error, and no warning."""
        rows = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [0.5, 0.2, 0.1, 0.3]])
        flipped = rows * np.array([[1.0], [-1.0], [1.0]])
        with pytest.raises(DomainError, match="pooled sample covariance overflows"):
            detector(SamplePair(1.3e154 * rows, 1.3e154 * flipped))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cq10_raises_domain_error(self):
        with pytest.raises(DomainError, match="cq10 statistic overflows"):
            cq10_score(self.wide_pair(12))


class TestSharedDecomposition:
    """Detectors called one after another on one pair share its pooled SCM
    and decomposition: the pair forms each at most once."""

    @pytest.mark.parametrize(
        "p, n1, n2, scms, solves",
        [(6, 10, 10, [6], [6]), (30, 6, 6, [], [12])],
        ids=["p-by-p", "gram-side"],
    )
    def test_detectors_on_one_pair_share_one_decomposition(
        self, p, n1, n2, scms, solves, monkeypatch
    ):
        model, pair = model_pair(11, p, n1, n2)
        formed, solved = [], []

        def scm(of, inner=spectral.pooled_scm):
            formed.append(of.p)
            return inner(of)

        def eigh(m, inner=spectral.spectral_decompose):
            solved.append(len(m))
            return inner(m)

        monkeypatch.setattr(spectral, "pooled_scm", scm)
        monkeypatch.setattr(spectral, "spectral_decompose", eigh)
        if pair.p > pair.n:
            with pytest.raises(SingularCovarianceError):
                hotelling_score(pair)
        else:
            hotelling_score(pair)
        lw_score(pair)
        bs96_score(pair)
        lappw_score(pair, model)
        assert formed == scms
        assert solved == solves


class TestDiagonalOracle:
    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_model_path_equals_the_dense_cholesky_path(self, order):
        p = 200
        rng = np.random.default_rng(10 + order)
        model = make_covariance(order, p, rng)
        dense = np.diag(model)
        with blas_pinned():
            for _ in range(50):
                mu = sample_sphere(p, 1.0, rng)
                pair = SamplePair(
                    generate_sample(model, mu, 20, rng),
                    generate_sample(model, np.zeros(p), 20, rng),
                )
                fast = mahalanobis_score(pair, model).score
                assert fast == mahalanobis_cholesky(pair.mean_diff, dense)
