import inspect
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdtest
from hdtest.errors import DomainError, StructuralError
from hdtest.detectors import (
    bs96_score,
    cq10_score,
    hotelling_score,
    lappw_score,
    lw_score,
    mahalanobis_score,
)
from hdtest.shrinkage import optimize_loading, shrink_eigenvalues
from hdtest.simulation import (
    RocCurve,
    ScoreTable,
    SimulationConfig,
    blas_pinned,
    generate_sample,
    make_covariance,
    null_z_samples,
    run_trials,
    sample_sphere,
    write_roc_csv,
    write_scores_csv,
)
from hdtest.spectral import (
    SamplePair,
    SpectralDecomposition,
    _factored,
    _workspace_pair,
    decompose_pair,
    pooled_scm,
    quad_form_inverse,
    read_matrix_csv,
    spectral_decompose,
    weighted_norms,
    write_matrix_csv,
)

from oracles import gram_side_eigenvectors


def random_pair(rng, p, n1, n2):
    return SamplePair(rng.standard_normal((p, n1)), rng.standard_normal((p, n2)))


def caller_arrays(which):
    """A caller's arrays for one value type, and that type's constructor."""
    rng = np.random.default_rng(2)
    if which == "data":
        return [rng.standard_normal((3, 5)), rng.standard_normal((3, 4))], SamplePair
    if which == "roc":
        return [np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0])], RocCurve
    return [np.array([3.0, 2.0, 0.0]), np.eye(3)], SpectralDecomposition


def kept_arrays(obj):
    if isinstance(obj, SamplePair):  # its other arrays are means of these
        return [obj.x1, obj.x2]
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


class TestCopyContract:
    """Value types keep a read-only copy of a caller's arrays; only arrays
    the library has just made are frozen in place instead."""

    @pytest.mark.parametrize("which", ["data", "decomp", "roc"])
    def test_caller_arrays_are_copied(self, which):
        arrays, build = caller_arrays(which)
        before = [a.copy() for a in arrays]
        kept = kept_arrays(build(*arrays))
        assert len(kept) == len(arrays)
        for a in arrays:
            assert a.flags.writeable  # the caller's array is left as it was
            a[0] += 1.0
        for k, b in zip(kept, before):
            assert not k.flags.writeable
            np.testing.assert_array_equal(k, b)

    @pytest.mark.parametrize("which", ["data", "decomp", "roc"])
    def test_read_only_views_of_writable_arrays_are_copied(self, which):
        arrays, build = caller_arrays(which)
        before = [a.copy() for a in arrays]
        views = [a[...] for a in arrays]
        for v in views:
            v.flags.writeable = False
        kept = kept_arrays(build(*views))
        for a in arrays:
            a += 1.0
        for k, b in zip(kept, before):
            np.testing.assert_array_equal(k, b)

    @pytest.mark.parametrize("p", [6, 40])  # p x p and Gram side
    def test_library_made_arrays_are_read_only(self, p):
        rng = np.random.default_rng(p)
        model = make_covariance(2, p, rng)
        x1 = generate_sample(model, np.ones(p), 8, rng)
        x2 = generate_sample(model, np.zeros(p), 9, rng)
        pair = SamplePair(x1, x2)
        made = [pair.decomposition, spectral_decompose(pair.scm)]
        means = [pair.xbar1, pair.xbar2, pair.mean_diff]
        for a in [x1, x2, pair.scm] + means + [a for obj in made for a in kept_arrays(obj)]:
            with pytest.raises(ValueError):
                a[0] = 0.0


# Records holding arrays, each built twice from equal inputs.
ARRAY_RECORDS = {
    "pair": lambda: SamplePair(np.eye(2), np.ones((2, 3))),
    "decomp": lambda: SpectralDecomposition(np.ones(2), np.eye(2)),
    "roc": lambda: RocCurve([0.0, 1.0], [0.0, 1.0]),
    "table": lambda: ScoreTable(SimulationConfig(p=2), np.ones(2), {}, {}),
}


@pytest.mark.parametrize("which", list(ARRAY_RECORDS))
def test_array_records_compare_by_identity(which):
    # an array field has no truth value, so field-wise == and hash cannot work
    a, b = ARRAY_RECORDS[which](), ARRAY_RECORDS[which]()
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert {a: 1, b: 2}[a] == 1


def test_public_callables_take_no_private_parameters():
    # the library's own values come from module-private functions, so no
    # public signature carries a flag that only the library may set
    for name in hdtest.__all__:
        obj = getattr(hdtest, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # a class with a built-in constructor, such as an exception
            continue
        assert not [p for p in params if p.startswith("_")], name


RAGGED = [[1.0, 2.0], [3.0]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SamplePair(RAGGED, np.zeros((2, 2))),
        lambda: SamplePair(np.zeros((2, 2)), "ab"),
        lambda: SpectralDecomposition([[1.0], [2.0, 3.0]], np.eye(2)),
        lambda: SpectralDecomposition(np.ones(2), RAGGED),
        lambda: quad_form_inverse(spectral_decompose(np.eye(2)), np.ones(2), [[1], [2, 3]]),
        lambda: spectral_decompose([[1, 2], [3]]),
        lambda: spectral_decompose("ab"),
        lambda: generate_sample("ab", np.zeros(2), 3, np.random.default_rng(0)),
        lambda: RocCurve([[0.0], [0.0, 1.0]], [0.0, 1.0]),
        lambda: write_matrix_csv(os.devnull, RAGGED),
        lambda: SamplePair(np.ones((2, 3)) + 5j, np.ones((2, 3))),
        lambda: spectral_decompose(np.array([[2, 1j], [-1j, 2]])),
        lambda: quad_form_inverse(spectral_decompose(np.eye(2)), np.ones(2) + 1j, np.ones(2)),
    ],
    ids=[
        "pair-ragged", "pair-string", "decomp-values", "decomp-vectors",
        "quad-form", "decompose-ragged", "decompose-string", "population-diagonal",
        "roc-points", "write-matrix", "pair-complex", "decompose-hermitian",
        "quad-form-complex",
    ],
)
def test_ragged_or_non_numeric_input_is_a_structural_error(call):
    with pytest.raises(StructuralError, match="not a vector or matrix of numbers"):
        call()


BLOCKS = (np.ones((2, 3)), np.zeros((2, 3)))  # a pair's two blocks, not a SamplePair


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_trials({"p": 8}),
        lambda: null_z_samples({"p": 8}),
        lambda: mahalanobis_score(BLOCKS, np.ones(2)),
        lambda: hotelling_score(BLOCKS),
        lambda: lw_score(BLOCKS),
        lambda: bs96_score(BLOCKS),
        lambda: cq10_score(BLOCKS),
        lambda: lappw_score(BLOCKS, np.ones(2)),
        lambda: pooled_scm(BLOCKS),
        lambda: decompose_pair(BLOCKS),
        lambda: shrink_eigenvalues(np.eye(3), 8, 3),
        lambda: optimize_loading(np.eye(2), np.ones(2)),
        lambda: quad_form_inverse(np.eye(2), np.ones(2), np.ones(2)),
        lambda: make_covariance(2, 50, 0),
        lambda: sample_sphere(3, 1.0, 0),
        lambda: generate_sample(np.ones(2), np.zeros(2), 3, 0),
        lambda: write_scores_csv({"h0": {}, "h1": {}}, os.devnull),
        lambda: write_roc_csv(([0.0, 1.0], [0.0, 1.0]), os.devnull),
    ],
    ids=[
        "run-trials", "null-z", "mahalanobis", "hotelling", "lw", "bs96", "cq10", "lappw",
        "pooled-scm", "decompose-pair", "shrink", "loading", "quad-form", "covariance",
        "sphere", "sample", "scores-csv", "roc-csv",
    ],
)
def test_a_wrong_record_type_is_a_structural_error(call):
    # a seed for a Generator, a dict for a config, arrays for a record
    with pytest.raises(StructuralError, match="must be a "):
        call()


class TestSamplePair:
    def test_requires_two_observations(self):
        with pytest.raises(StructuralError):
            SamplePair(np.zeros((3, 1)), np.zeros((3, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(StructuralError):
            SamplePair(bad, np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(StructuralError):
            SamplePair(np.zeros(5), np.zeros((5, 2)))

    def test_rejects_p_zero(self):
        with pytest.raises(StructuralError, match="p >= 1 rows"):
            SamplePair(np.zeros((0, 5)), np.zeros((0, 5)))

    def test_blocks_are_immutable(self):
        pair = SamplePair(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pair.x1[0, 0] = 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            SamplePair(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_effective_size_and_scale(self):
        rng = np.random.default_rng(0)
        pair = random_pair(rng, 4, 5, 7)
        assert pair.n == 10
        assert pair.diff_scale == pytest.approx(35 / 12)
        np.testing.assert_allclose(pair.mean_diff, pair.xbar1 - pair.xbar2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big1,big2", [(1e308, 0.0), (0.0, -1e308), (1e308, 1e308)])
    def test_overflowing_group_mean_is_a_domain_error(self, big1, big2):
        """Finite data whose column sums leave the float range: a typed error
        naming the group mean, and no numpy warning (inf - inf included)."""
        with pytest.raises(DomainError, match="group mean overflows"):
            SamplePair(np.full((5, 4), big1), np.full((5, 4), big2))

    @pytest.mark.parametrize(
        "x1, x2, error",
        [
            (np.zeros((3, 1)), np.zeros((3, 2)), StructuralError),
            (np.full((2, 3), np.nan), np.zeros((2, 3)), StructuralError),
            (np.zeros(5), np.zeros((5, 2)), StructuralError),
            (np.zeros((2, 3)), np.zeros((3, 3)), StructuralError),
            (np.full((5, 4), 1e308), np.zeros((5, 4)), DomainError),
            (np.zeros((0, 5)), np.zeros((0, 5)), StructuralError),
        ],
        ids=[
            "one-observation", "non-finite", "1-d", "dimension-mismatch", "mean-overflow",
            "p-zero",
        ],
    )
    def test_an_engine_pair_makes_every_check(self, x1, x2, error):
        with pytest.raises(error):
            _workspace_pair(x1, x2, {})

    def test_an_engine_pair_freezes_its_blocks_in_place(self):
        workspace = {}
        x1, x2 = np.eye(3, 4), np.ones((3, 5))
        pair = _workspace_pair(x1, x2, workspace)
        assert pair.x1 is x1 and pair.x2 is x2 and not x1.flags.writeable
        assert pair.scm.tobytes() == SamplePair(x1, x2).scm.tobytes()
        assert np.shares_memory(pair.scm, workspace["scm"])


class TestPooledScm:
    def test_scalar_hand_example(self):
        # x1 = [0, 2], x2 = [0, 0]: centered scatter 2 + 0 over n = 2 -> 1.0
        pair = SamplePair([[0.0, 2.0]], [[0.0, 0.0]])
        assert pooled_scm(pair)[0, 0] == 1.0

    def test_constant_columns_give_zero(self):
        pair = SamplePair(np.full((3, 4), 2.5), np.full((3, 2), -1.0))
        np.testing.assert_array_equal(pooled_scm(pair), np.zeros((3, 3)))

    @pytest.mark.parametrize("p,n1,n2", [(3, 5, 4), (10, 4, 3), (6, 8, 8)])
    def test_psd_after_clipping(self, p, n1, n2):
        rng = np.random.default_rng(p * 100 + n1 * 10 + n2)
        decomp = spectral_decompose(pooled_scm(random_pair(rng, p, n1, n2)))
        assert np.all(decomp.eigenvalues >= 0.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p,n1,n2", [(3, 2, 2), (17, 9, 6), (61, 31, 29), (45, 7, 13)])
    def test_exactly_symmetric(self, p, n1, n2, order):
        rng = np.random.default_rng(p + n1)
        x1 = np.asarray(rng.standard_normal((p, n1)) * 3.0 + 1.0, order=order)
        x2 = np.asarray(rng.standard_normal((p, n2)) - 2.0, order=order)
        s = pooled_scm(SamplePair(x1, x2))
        np.testing.assert_array_equal(s, s.T)

    def test_rank_deficiency_when_p_exceeds_n(self):
        # p > n: at least p - n eigenvalues are zero within 1e-8 * largest, and
        # the clip makes them exactly zero so branch selection is unambiguous
        rng = np.random.default_rng(7)
        pair = random_pair(rng, 12, 4, 5)  # n = 7
        decomp = spectral_decompose(pooled_scm(pair))
        lam = decomp.eigenvalues
        assert np.sum(np.abs(lam) <= 1e-8 * lam[0]) >= 12 - 7
        assert np.sum(lam == 0.0) >= 12 - 7


class TestSpectralDecompose:
    def test_identity(self):
        d = spectral_decompose(np.eye(3))
        np.testing.assert_array_equal(d.eigenvalues, np.ones(3))
        np.testing.assert_allclose(d.eigenvectors @ d.eigenvectors.T, np.eye(3), atol=1e-14)
        rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
        np.testing.assert_allclose(rebuilt, np.eye(3), atol=1e-14)

    def test_diagonal_is_sorted_non_increasing(self):
        d = spectral_decompose(np.diag([1.0, 4.0]))
        np.testing.assert_array_equal(d.eigenvalues, [4.0, 1.0])
        np.testing.assert_array_equal(np.abs(d.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 50))
        m = a + a.T
        d = spectral_decompose(m)
        rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
        np.testing.assert_allclose(rebuilt, m, atol=1e-10)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 20))
        m = a @ a.T
        d1 = spectral_decompose(m)
        d2 = spectral_decompose(m)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)
        assert d1.eigenvectors.flags.c_contiguous and d1.eigenvalues.flags.c_contiguous

    def test_rejects_asymmetric(self):
        with pytest.raises(StructuralError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_asymmetry_within_tolerance_unchanged(self):
        # the input goes to eigh as it is, not symmetrized
        m = np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]])
        vals, vecs = np.linalg.eigh(m)
        d = spectral_decompose(m)
        np.testing.assert_array_equal(d.eigenvalues, vals[::-1])
        np.testing.assert_array_equal(d.eigenvectors, vecs[:, ::-1])

    def test_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(StructuralError, match="non-finite"):
                spectral_decompose(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_a_spectrum_past_the_float_range_is_a_domain_error(self):
        # finite entries whose eigenvalue 2e308 is not: eigh gives (0, inf),
        # which the relative clip would turn into (0, 0)
        with pytest.raises(DomainError, match="overflow"):
            spectral_decompose(np.full((2, 2), 1e308))

    @pytest.mark.parametrize(
        "m", [np.ones((2, 3)), np.ones(3), np.zeros((0, 0))], ids=["2x3", "1-d", "0x0"]
    )
    def test_rejects_non_square(self, m):
        with pytest.raises(StructuralError, match="expected a square matrix"):
            spectral_decompose(m)

    @pytest.mark.parametrize("read_only_view", [False, True], ids=["writable", "read-only-view"])
    def test_later_writes_to_the_input_do_not_reach_it(self, read_only_view):
        a = np.random.default_rng(2).standard_normal((4, 4))
        m = given = a + a.T
        if read_only_view:  # of a writable array
            given = m[...]
            given.flags.writeable = False
        d = spectral_decompose(given)
        kept = [d.eigenvalues, d.eigenvectors]
        before = [k.copy() for k in kept]
        m[0] += 1.0
        for k, b in zip(kept, before):
            assert not k.flags.writeable
            np.testing.assert_array_equal(k, b)

    def test_negative_clip_is_relative(self):
        # genuinely indefinite matrices keep their negative eigenvalues
        d = spectral_decompose(np.diag([1.0, -0.5]))
        assert d.eigenvalues[-1] == -0.5


def model_pair(p, n1, n2, order, seed=0):
    rng = np.random.default_rng(seed)
    model = make_covariance(order, p, rng)
    return SamplePair(
        generate_sample(model, np.zeros(p), n1, rng),
        generate_sample(model, np.zeros(p), n2, rng),
    )


GRAM_SHAPES = [(150, 40, 40), (401, 100, 100)]


class TestDecomposePair:
    @pytest.mark.parametrize("order", [0, 2, 4])
    @pytest.mark.parametrize("p,n1,n2", GRAM_SHAPES)
    def test_gram_side_matches_the_p_by_p_decomposition(self, p, n1, n2, order):
        pair = model_pair(p, n1, n2, order)
        with blas_pinned():
            gram = decompose_pair(pair)
            full = spectral_decompose(pooled_scm(pair))
        lam = gram.eigenvalues
        assert lam.shape == (p,)
        np.testing.assert_allclose(lam, full.eigenvalues, rtol=0, atol=1e-10 * full.eigenvalues[0])
        assert np.all(np.diff(lam) <= 0.0)
        r = pair.n
        assert gram.eigenvectors.shape == (p, r)
        assert np.all(lam[:r] > 0.0) and np.all(lam[r:] == 0.0)

    @pytest.mark.parametrize("order", [0, 2, 4])
    @pytest.mark.parametrize("p,n1,n2", GRAM_SHAPES)
    def test_range_vectors_are_orthonormal_eigenvectors(self, p, n1, n2, order):
        pair = model_pair(p, n1, n2, order)
        decomp = decompose_pair(pair)
        u, lam = decomp.eigenvectors, decomp.eigenvalues[: decomp.eigenvectors.shape[1]]
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-10)
        s = pooled_scm(pair)
        np.testing.assert_allclose(s @ u, u * lam, rtol=0, atol=1e-10 * lam[0])

    @pytest.mark.parametrize("p,n1,n2", [(60, 40, 40), (80, 40, 40), (5, 3, 4)])
    def test_at_most_n1_plus_n2_is_the_p_by_p_decomposition(self, p, n1, n2):
        pair = random_pair(np.random.default_rng(p), p, n1, n2)
        want = spectral_decompose(pooled_scm(pair))
        for got in (decompose_pair(pair), pair.decomposition):
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(got.eigenvectors, want.eigenvectors)

    @pytest.mark.parametrize("order", [0, 4])
    @pytest.mark.parametrize("p,n1,n2", GRAM_SHAPES)
    def test_factored_block_is_the_formed_product(self, p, n1, n2, order):
        pair = model_pair(p, n1, n2, order)
        with blas_pinned():
            want = gram_side_eigenvectors(pair)
            decomp = decompose_pair(pair)
            got = decomp.eigenvectors
        np.testing.assert_array_equal(got, want)
        assert decomp.eigenvectors is got  # formed once, then kept

    def test_factored_signs_when_row_0_is_zero(self):
        # a constant coordinate 0 centres to a zero row of C, and so to a
        # zero row of the block
        rng = np.random.default_rng(4)
        x1, x2 = rng.standard_normal((30, 6)), rng.standard_normal((30, 5))
        x1[0] = x2[0] = 1.5
        pair = SamplePair(x1, x2)
        u = decompose_pair(pair).eigenvectors
        assert np.all(u[0] == 0.0)
        np.testing.assert_array_equal(u, gram_side_eigenvectors(pair))

    @pytest.mark.parametrize("p,n1,n2", [(60, 40, 40), (150, 40, 40)])
    def test_statistics_do_not_read_eigenvector_signs(self, p, n1, n2):
        # eigenvector signs are LAPACK's: negating any subset of columns,
        # of a full U or of a factored B, leaves every statistic's bits
        pair = model_pair(p, n1, n2, 2)
        pop = make_covariance(2, p, np.random.default_rng(5))
        v = pair.mean_diff
        decomp = decompose_pair(pair)
        vals, u = decomp.eigenvalues, decomp.eigenvectors
        r = u.shape[1]
        signs = np.random.default_rng(6).choice([-1.0, 1.0], size=r)
        assert np.any(signs < 0.0) and np.any(signs > 0.0)
        if pair.gram_side:
            cases = [(decomp, _factored(vals, decomp._c, decomp._b * signs))]
        else:
            cases = [(decomp, SpectralDecomposition(vals, u * signs))]
        for base, flipped in cases:
            dhat = shrink_eigenvalues(base, pair.n, p)
            loading = optimize_loading(base, pop)
            assert optimize_loading(flipped, pop) == loading
            ds = [dhat, vals + loading.lambda_star] + ([vals] if np.all(vals > 0.0) else [])
            for d in ds:
                assert quad_form_inverse(flipped, d, v) == quad_form_inverse(base, d, v)
            want = weighted_norms(base, pop)
            assert weighted_norms(flipped, pop).tobytes() == want.tobytes()
            uf, ub = flipped.eigenvectors, base.eigenvectors
            want = (ub * dhat[:r]) @ ub.T
            assert ((uf * dhat[:r]) @ uf.T).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p,n1,n2", [(30, 20, 20), (150, 40, 40)])
    def test_a_second_pair_leaves_the_first_decomposition_alone(self, p, n1, n2):
        want = decompose_pair(model_pair(p, n1, n2, 2, seed=1))
        want_vecs = want.eigenvectors  # formed before any other pair
        first = decompose_pair(model_pair(p, n1, n2, 2, seed=1))
        second = decompose_pair(model_pair(p, n1, n2, 2, seed=2))
        assert not np.array_equal(second.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(first.eigenvalues, want.eigenvalues)
        # a Gram-side block is formed here, from factors kept since `first`
        np.testing.assert_array_equal(first.eigenvectors, want_vecs)

    def test_rank_deficient_data_keeps_a_zero_null_space(self):
        x = np.zeros((9, 3))
        x[0] = [1.0, -1.0, 0.0]
        pair = SamplePair(x, np.zeros((9, 3)))
        decomp = decompose_pair(pair)
        assert decomp.eigenvectors.shape == (9, 1)
        np.testing.assert_allclose(decomp.eigenvalues, [0.5] + [0.0] * 8)


class TestRangePlusNull:
    """A caller's decomposition is a full basis; the range-plus-null form is
    decompose_pair's Gram side alone, built here through _factored as a
    p x r block C B."""

    def test_rejects_a_nonzero_eigenvalue_without_a_vector(self):
        with pytest.raises(StructuralError):
            SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2)[:, :1])

    def test_rejects_a_partial_basis_with_zero_eigenvalues(self):
        with pytest.raises(StructuralError, match="full p x p basis"):
            SpectralDecomposition(np.array([2.0, 0.0]), np.eye(2)[:, :1])

    def test_rejects_more_vectors_than_eigenvalues(self):
        with pytest.raises(StructuralError):
            SpectralDecomposition(np.array([2.0]), np.eye(2)[:1])

    def test_null_part_matches_the_full_basis(self):
        rng = np.random.default_rng(3)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        vals = np.array([5.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        full = SpectralDecomposition(vals, basis)
        split = _factored(vals.copy(), basis[:, :2].copy(), np.eye(2))
        d = np.array([5.0, 3.0, 0.7, 0.7, 0.7, 0.7])
        v = rng.standard_normal(6)
        assert quad_form_inverse(split, d, v) == pytest.approx(
            quad_form_inverse(full, d, v), rel=1e-13
        )

    def test_rejects_unequal_null_entries(self):
        split = _factored(np.array([2.0, 0.0, 0.0]), np.eye(3)[:, :1], np.eye(1))
        with pytest.raises(StructuralError, match="null-space"):
            quad_form_inverse(split, np.array([2.0, 1.0, 1.5]), np.ones(3))


class TestQuadFormInverse:
    def test_identity_basis(self):
        d = SpectralDecomposition(np.array([2.0, 2.0]), np.eye(2))
        assert quad_form_inverse(d, d.eigenvalues, np.array([2.0, 0.0])) == 2.0

    def test_zero_vector(self):
        d = SpectralDecomposition(np.array([3.0, 1.0]), np.eye(2))
        assert quad_form_inverse(d, d.eigenvalues, np.zeros(2)) == 0.0

    def test_rejects_nonpositive_eigenvalues(self):
        d = SpectralDecomposition(np.array([1.0, 0.0]), np.eye(2))
        with pytest.raises(DomainError):
            quad_form_inverse(d, d.eigenvalues, np.ones(2))

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_direct_solve(self, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p + 3))
        m = a @ a.T / (p + 3)
        d = spectral_decompose(m)
        v = rng.standard_normal(p)
        got = quad_form_inverse(d, d.eigenvalues, v)
        want = float(v @ np.linalg.solve(m, v))
        assert got == pytest.approx(want, rel=1e-8)

    def test_modified_eigenvalues_reuse_basis(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 9))
        m = a @ a.T / 9
        d = spectral_decompose(m)
        v = rng.standard_normal(6)
        shift = 0.7
        got = quad_form_inverse(d, d.eigenvalues + shift, v)
        want = float(v @ np.linalg.solve(m + shift * np.eye(6), v))
        assert got == pytest.approx(want, rel=1e-10)


class TestMatrixCsv:
    def test_roundtrip_full_precision(self, tmp_path):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, m)

    @staticmethod
    def assert_rejected(path, text, match):
        """A malformed file is a StructuralError naming the path, with no warning."""
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StructuralError, match=match) as info:
                read_matrix_csv(path)
        assert str(info.value).startswith(f"{path}: ")
        return str(info.value)

    def test_rejects_ragged(self, tmp_path):
        msg = self.assert_rejected(tmp_path / "ragged.csv", "1.0,2.0\n3.0\n", "columns changed")
        assert "usecols" not in msg  # numpy's advice names a loadtxt option no caller has

    def test_rejects_non_numeric(self, tmp_path):
        # float() reads "1_0" as 10.0; a trailing comma is an empty cell; no comment lines
        for i, text in enumerate(["1.0,x\n", "1_0\n", "1.0,2.0,\n", "# c\n1.0\n", " \n"]):
            self.assert_rejected(tmp_path / f"bad{i}.csv", text, "could not convert")

    def test_rejects_empty(self, tmp_path):
        for i, text in enumerate(["", "\n\n\n"]):
            self.assert_rejected(tmp_path / f"empty{i}.csv", text, "empty matrix file")
