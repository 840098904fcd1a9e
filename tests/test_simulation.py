import functools
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import hdtest
from hdtest import detectors, simulation, spectral
from hdtest.detectors import DetectorKind
from hdtest.errors import (
    DomainError,
    SingularCovarianceError,
    StructuralError,
    UnsupportedAspectRatioError,
)
from hdtest.simulation import (
    RocCurve,
    SimulationConfig,
    blas_pinned,
    blas_threads,
    generate_sample,
    make_covariance,
    model_seed,
    normality_check,
    null_z_samples,
    roc_curve,
    run_trials,
    sample_sphere,
    thread_count,
    trial_seed,
    write_roc_csv,
    write_scores_csv,
)

from oracles import auc_brute, roc_points_unique

SMALL = dict(p=8, n1=10, n2=12, trials=3, seed=5)
# (shape, detectors it drops): SMALL's (p <= n1 + n2), then a Gram-side one
SHAPES = (({}, ()), (dict(p=40, n1=9, n2=8), (DetectorKind.HOTELLING,)))


class TestMakeCovariance:
    def test_flat_model_ranges(self):
        rng = np.random.default_rng(0)
        d = make_covariance(0, 100, rng)
        assert d.size == 100
        # head: 10**0 + U[0,1) in [1, 2); tail exactly 1.0
        assert np.all((d[:40] >= 1.0) & (d[:40] < 2.0))
        np.testing.assert_array_equal(d[40:], np.ones(60))

    def test_decay_endpoints_follow_formula(self):
        rng = np.random.default_rng(1)
        d = make_covariance(2, 50, rng)
        # j = 1: 10**(40*2/40) = 100 plus U[0,1)
        assert 100.0 <= d[0] < 101.0
        # j = 40: 10**(1*2/40) = 10**0.05 plus U[0,1)
        lo = 10.0 ** 0.05
        assert lo <= d[39] < lo + 1.0
        # the deterministic part decays; the U[0,1) jitter keeps d > 1 throughout
        assert np.all(d[:40] > 1.0)

    def test_strong_decay_spike(self):
        rng = np.random.default_rng(2)
        model = make_covariance(4, 60, rng)
        assert 1e4 <= model[0] < 1e4 + 1.0
        np.testing.assert_array_equal(model[40:], np.ones(20))

    def test_truncation_warns_and_sizes_draw(self):
        with pytest.warns(UserWarning, match="truncated"):
            model = make_covariance(0, 10, np.random.default_rng(3))
        assert model.size == 10
        assert np.all(model >= 1.0)

    def test_full_block_at_p_40_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = make_covariance(2, 40, np.random.default_rng(3))
        wider = make_covariance(2, 41, np.random.default_rng(3))
        np.testing.assert_array_equal(model, wider[:40])

    def test_same_rng_state_reproduces(self):
        a = make_covariance(2, 50, np.random.default_rng(7))
        b = make_covariance(2, 50, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StructuralError):
            make_covariance(0, 0, rng)
        with pytest.raises(DomainError):
            make_covariance(-1, 50, rng)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_order_past_the_float_range_is_a_domain_error(self):
        make_covariance(308, 50, np.random.default_rng(0))  # 10**308 + eps is finite
        with pytest.raises(DomainError, match="covariance order 309 overflows"):
            make_covariance(309, 50, np.random.default_rng(0))

    def test_returns_a_read_only_float_vector(self):
        diag = make_covariance(2, 50, np.random.default_rng(0))
        assert diag.dtype == np.float64 and diag.shape == (50,)
        with pytest.raises(ValueError):
            diag[0] = 1.0


class TestSampleSphere:
    def test_zero_radius(self):
        np.testing.assert_array_equal(
            sample_sphere(5, 0.0, np.random.default_rng(0)), np.zeros(5)
        )

    def test_norm_equals_radius(self):
        rng = np.random.default_rng(1)
        for radius in (1.0, 2.5):
            v = sample_sphere(20, radius, rng)
            assert np.linalg.norm(v) == pytest.approx(radius, rel=1e-12)

    def test_mean_is_near_zero(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_sphere(3, 1.0, rng) for _ in range(4000)])
        assert np.all(np.abs(draws.mean(axis=0)) < 0.05)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StructuralError):
            sample_sphere(0, 1.0, rng)
        for radius in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                sample_sphere(3, radius, rng)


# Each generator's integer arguments, read by the rule SimulationConfig's
# integer fields use: an int or a numpy integer, never a bool or a float.
INTEGER_ARGS = {
    "order": lambda v: make_covariance(v, 50, np.random.default_rng(0)),
    "p": lambda v: make_covariance(2, v, np.random.default_rng(0)),
    "sphere-p": lambda v: sample_sphere(v, 1.0, np.random.default_rng(0)),
    "n": lambda v: generate_sample(np.ones(3), np.zeros(3), v, np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
@pytest.mark.parametrize("arg", list(INTEGER_ARGS))
def test_generators_refuse_a_non_integer(arg, value):
    with pytest.raises(StructuralError, match="must be an integer"):
        INTEGER_ARGS[arg](value)


@pytest.mark.parametrize("arg", list(INTEGER_ARGS))
def test_generators_take_a_numpy_integer(arg):
    np.testing.assert_array_equal(INTEGER_ARGS[arg](np.int64(3)), INTEGER_ARGS[arg](3))


@pytest.mark.parametrize("radius", ["1", True, np.float32(2)], ids=["str", "bool", "float32"])
def test_radius_is_read_as_a_python_float(radius):
    rng = np.random.default_rng(0)
    if isinstance(radius, np.floating):
        assert type(SimulationConfig(radius=radius).radius) is float
        assert np.linalg.norm(sample_sphere(3, radius, rng)) == pytest.approx(2.0, rel=1e-15)
        return
    with pytest.raises(StructuralError, match="radius must be a real number"):
        SimulationConfig(radius=radius)
    with pytest.raises(StructuralError, match="radius must be a real number"):
        sample_sphere(3, radius, rng)


@pytest.mark.parametrize(
    "call, match",
    [
        (
            lambda: generate_sample(np.ones(2), [[1.0], [1.0, 2.0]], 3, np.random.default_rng(0)),
            "mean is not a vector or matrix of numbers",
        ),
        (
            lambda: generate_sample(np.ones(2), [0.0, np.nan], 3, np.random.default_rng(0)),
            "mean contains non-finite entries",
        ),
        (
            lambda: generate_sample(
                np.ones(2), np.zeros(2), 3, np.random.default_rng(0), out=[[0.0] * 3] * 2
            ),
            r"out must have shape \(2, 3\) and dtype float64",
        ),
        (
            lambda: generate_sample(  # a read-only view of immutable bytes
                np.ones(2), np.zeros(2), 3, np.random.default_rng(0),
                out=np.frombuffer(bytes(48)).reshape(2, 3),
            ),
            "out must be writable",
        ),
        (
            lambda: generate_sample(
                np.ones(2), np.zeros(2), 3, np.random.default_rng(0), out=np.empty((2, 6))[:, ::2]
            ),
            "contiguous",
        ),
        (lambda: roc_curve([[1.0], [1.0, 2.0]], [1.0]), "scores is not a vector"),
        (lambda: roc_curve([1.0], "ab"), "scores is not a vector"),
        (lambda: normality_check([[1.0], [1.0, 2.0]]), "values is not a vector"),
        (lambda: RocCurve([0.0, 1.0], [0.0, 0.5, 1.0]), "inconsistent ROC point arrays"),
        (
            lambda: spectral.quad_form_inverse(
                spectral.spectral_decompose(np.eye(2)), np.ones(3), np.ones(2)
            ),
            r"expected length-2 vectors, got \(3,\) and \(2,\)",
        ),
    ],
    ids=[
        "ragged-mean", "nan-mean", "list-out", "read-only-out", "strided-out",
        "roc-ragged", "roc-string", "normality-ragged", "roc-point-lengths", "quad-form-length",
    ],
)
def test_array_arguments_are_checked_as_arrays(call, match):
    with pytest.raises(StructuralError, match=match):
        call()


class TestGenerateSample:
    def test_shape_and_bounded_support(self):
        model = np.array([1.0, 4.0])
        mean = np.array([10.0, -10.0])
        x = generate_sample(model, mean, 500, np.random.default_rng(0))
        assert x.shape == (2, 500)
        centered = x - mean[:, None]
        bound = math.sqrt(3.0) * np.sqrt(model)
        assert np.all(np.abs(centered) <= bound[:, None] + 1e-12)

    def test_variance_matches_model(self):
        model = np.array([1.0, 4.0])
        x = generate_sample(model, np.zeros(2), 20000, np.random.default_rng(1))
        v = x.var(axis=1)
        np.testing.assert_allclose(v, [1.0, 4.0], rtol=0.05)

    def test_gaussian_base_exceeds_uniform_bound(self):
        model = np.ones(1)
        x = generate_sample(model, np.zeros(1), 5000, np.random.default_rng(2), "gaussian")
        assert np.max(np.abs(x)) > math.sqrt(3.0)

    def test_rejects_unknown_base(self):
        model = np.ones(1)
        with pytest.raises(StructuralError):
            generate_sample(model, np.zeros(1), 5, np.random.default_rng(0), "cauchy")

    def test_rejects_mean_shape_mismatch(self):
        model = np.ones(2)
        with pytest.raises(StructuralError):
            generate_sample(model, np.zeros(3), 5, np.random.default_rng(0))

    def test_checks_the_population_diagonal(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SingularCovarianceError):
            generate_sample(np.array([1.0, 0.0]), np.zeros(2), 5, rng)
        with pytest.raises(StructuralError, match="not a vector"):
            generate_sample([[1], [1, 2]], np.zeros(2), 5, rng)  # ragged
        with pytest.raises(StructuralError, match="nonempty"):
            generate_sample(np.array([]), np.zeros(0), 5, rng)

    def test_rejects_out_of_the_wrong_shape(self):
        # too many columns would be filled whole, a wrong p would not broadcast
        for shape in ((3, 7), (4, 5)):
            with pytest.raises(StructuralError, match=r"out must have shape \(3, 5\)"):
                generate_sample(
                    np.ones(3), np.zeros(3), 5, np.random.default_rng(0), out=np.empty(shape)
                )

    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_at_least_one_observation(self, n):
        with pytest.raises(StructuralError, match="n must be >= 1"):
            generate_sample(np.ones(3), np.zeros(3), n, np.random.default_rng(0))

    def test_rejects_an_out_that_is_not_float64(self):
        out = np.empty((3, 5), dtype=np.float32)
        with pytest.raises(StructuralError, match="dtype float64"):
            generate_sample(np.ones(3), np.zeros(3), 5, np.random.default_rng(0), out=out)

    # base -> (E z^4, E z^8) of its standardised draws z: uniform on
    # [-sqrt3, sqrt3] has 9/5 and 3^4/9, the standard normal 3 and 105
    BASE_MOMENTS = {"uniform": (1.8, 9.0), "gaussian": (3.0, 105.0)}

    @pytest.mark.parametrize("base", list(BASE_MOMENTS))
    def test_standardised_draws_have_the_base_moments(self, base):
        # mean 0, variance 1 and the base's kurtosis, each within 5 Monte
        # Carlo SEs of the sample mean of z, z^2 and z^4 over 2e5 draws
        kurtosis, m8 = self.BASE_MOMENTS[base]
        diag, mean = np.array([1.0, 9.0]), np.array([0.5, -2.0])
        x = generate_sample(diag, mean, 100_000, np.random.default_rng(11), base)
        z = ((x - mean[:, None]) / np.sqrt(diag)[:, None]).ravel()
        for values, want, var in (
            (z, 0.0, 1.0), (z**2, 1.0, kurtosis - 1.0), (z**4, kurtosis, m8 - kurtosis**2)
        ):
            assert abs(values.mean() - want) < 5.0 * math.sqrt(var / z.size)

    @pytest.mark.parametrize("shift", [0.0, 0.75])
    @pytest.mark.parametrize("base", ["uniform", "gaussian"])
    def test_draw_into_out_has_the_sized_draws_bits(self, base, shift):
        # the reference is the sized numpy call, colored and shifted
        model = np.linspace(0.5, 30.0, 7)
        mean = shift * np.arange(-3.0, 4.0)
        rng = np.random.default_rng(9)
        if base == "uniform":
            u = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(7, 13))
        else:
            u = rng.standard_normal(size=(7, 13))
        want = u * np.sqrt(model)[:, None] + mean[:, None]
        buf = np.full((7, 13), np.nan)
        got = generate_sample(model, mean, 13, np.random.default_rng(9), base, out=buf[...])
        fresh = generate_sample(model, mean, 13, np.random.default_rng(9), base)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(fresh, want)
        np.testing.assert_array_equal(buf, want)
        assert buf.flags.writeable  # the frozen view leaves the buffer writable


class TestSeedDerivation:
    def test_contracts_are_frozen(self):
        assert trial_seed(5, 7, 1) == [5, 2, 7, 1]
        assert trial_seed(0, 0, 0) == [0, 2, 0, 0]
        assert model_seed(5) == [5, 1]

    def test_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("HDTEST_THREADS", "3")
        assert thread_count() == 3
        monkeypatch.setenv("HDTEST_THREADS", "0")
        assert thread_count() == 1
        monkeypatch.setenv("HDTEST_THREADS", "banana")
        with pytest.warns(UserWarning, match="HDTEST_THREADS"):
            assert thread_count() >= 1
        monkeypatch.delenv("HDTEST_THREADS")
        assert thread_count() >= 1

    def test_default_thread_count_is_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("HDTEST_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert thread_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity
        assert thread_count() == 8


class TestSimulationConfig:
    def test_detector_names_are_coerced(self):
        cfg = SimulationConfig(detectors=("lw", "cq10"), **SMALL)
        assert cfg.detectors == (DetectorKind.PROPOSED_LW, DetectorKind.CQ10)

    def test_rejects_unknown_detector(self):
        with pytest.raises(StructuralError):
            SimulationConfig(detectors=("nope",), **SMALL)

    def test_rejects_bad_fields(self):
        with pytest.raises(StructuralError):
            SimulationConfig(p=0)
        with pytest.raises(StructuralError):
            SimulationConfig(n1=1)
        with pytest.raises(StructuralError):
            SimulationConfig(trials=0)
        with pytest.raises(StructuralError):
            SimulationConfig(seed=-1)
        for radius in (-0.5, math.nan, math.inf):
            with pytest.raises(StructuralError):
                SimulationConfig(radius=radius)
        with pytest.raises(StructuralError):
            SimulationConfig(base_dist="cauchy")
        with pytest.raises(StructuralError):
            SimulationConfig(detectors=())
        with pytest.raises(StructuralError, match="repeated detector"):
            SimulationConfig(detectors=("lw", "lw", "cq10"))
        for names in (5, "lw"):
            with pytest.raises(StructuralError, match="sequence"):
                SimulationConfig(detectors=names)

    @pytest.mark.parametrize(
        "name,value,want",
        [
            ("seed", np.int64(3), 3),
            ("n1", np.int64(8), 8),
            ("seed", True, None),
            ("p", 6.0, None),
            ("trials", 2.0, None),
            ("cov_order", 2.5, None),
        ],
    )
    def test_integer_fields_are_python_ints(self, name, value, want):
        # want None: the value is no integer, and the error names the field
        if want is None:
            with pytest.raises(StructuralError, match=f"^{name} must be an integer"):
                SimulationConfig(**{name: value})
            return
        cfg = SimulationConfig(**{name: value})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == want
        json.dumps(cfg.as_dict())

    def test_as_dict_round_trips(self):
        cfg = SimulationConfig(**SMALL)
        d = cfg.as_dict()
        assert d["p"] == SMALL["p"] and d["detectors"][0] == "hotelling"
        again = SimulationConfig(**{**d, "detectors": tuple(d["detectors"])})
        assert again == cfg


class TestRunTrials:
    def test_small_run_is_complete_and_finite(self):
        cfg = SimulationConfig(**SMALL)
        table = run_trials(cfg)
        assert table.absent == {}
        assert table.present() == cfg.detectors
        for kind in cfg.detectors:
            assert table.h0[kind].shape == (cfg.trials,)
            assert table.h1[kind].shape == (cfg.trials,)
            assert np.all(np.isfinite(table.h0[kind]))
            assert np.all(np.isfinite(table.h1[kind]))
            assert not (table.h0[kind].flags.writeable or table.h1[kind].flags.writeable)

    def test_rerun_is_bit_identical(self):
        # each run forms its pairs in its own workspaces: none carries over
        for shape, dropped in SHAPES:
            cfg = SimulationConfig(**{**SMALL, **shape})
            a = run_trials(cfg)
            b = run_trials(cfg)
            assert tuple(a.absent) == tuple(b.absent) == dropped
            for kind in a.present():
                np.testing.assert_array_equal(a.h0[kind], b.h0[kind])
                np.testing.assert_array_equal(a.h1[kind], b.h1[kind])
            np.testing.assert_array_equal(a.diag, b.diag)

    def test_hotelling_dropped_when_p_exceeds_n(self, monkeypatch):
        cfg = SimulationConfig(p=24, n1=6, n2=6, trials=2, seed=1)
        table = run_trials(cfg)
        assert DetectorKind.HOTELLING in table.absent
        assert "singular" in table.absent[DetectorKind.HOTELLING]
        assert DetectorKind.HOTELLING not in table.h0
        for kind in table.present():
            assert np.all(np.isfinite(table.h0[kind]))
        assert DetectorKind.PROPOSED_LW in table.h0

        # alone, Hotelling rejects p > n before any pair is decomposed
        def no_eigh(m):
            raise AssertionError("spectral_decompose called for hotelling at p > n")

        monkeypatch.setattr(spectral, "spectral_decompose", no_eigh)
        table = run_trials(
            SimulationConfig(p=24, n1=6, n2=6, trials=2, seed=1, detectors=("hotelling",))
        )
        assert "singular" in table.absent[DetectorKind.HOTELLING]
        assert table.present() == ()

    def test_thread_count_does_not_change_results(self, monkeypatch):
        for shape, dropped in SHAPES:
            cfg = SimulationConfig(**{**SMALL, **shape})
            monkeypatch.setenv("HDTEST_THREADS", "1")
            serial = run_trials(cfg)
            monkeypatch.setenv("HDTEST_THREADS", "4")
            threaded = run_trials(cfg)
            assert tuple(serial.absent) == tuple(threaded.absent) == dropped
            for kind in serial.present():
                np.testing.assert_array_equal(serial.h0[kind], threaded.h0[kind])
                np.testing.assert_array_equal(serial.h1[kind], threaded.h1[kind])

    def test_a_kept_failure_holds_no_pair(self):
        # p = n: every trial's shrinkage fails, and the error null_z_samples
        # raises must not keep a pair (and its buffers) alive
        def pairs():
            gc.collect()
            return sum(isinstance(o, spectral.SamplePair) for o in gc.get_objects())

        before = pairs()
        cfg = SimulationConfig(p=10, n1=6, n2=6, trials=2, seed=1, detectors=("lw",))
        with pytest.raises(DomainError) as info:
            null_z_samples(cfg)
        assert pairs() == before
        del info

    def test_h1_scores_shift_upward(self):
        cfg = SimulationConfig(
            p=20, n1=30, n2=30, trials=40, seed=3, radius=3.0, detectors=("cq10",)
        )
        table = run_trials(cfg)
        k = DetectorKind.CQ10
        assert table.h1[k].mean() > table.h0[k].mean()

    def test_gram_side_forms_no_p_by_p_matrix(self, monkeypatch):
        """At p = 150 > n1 + n2 = 80 no pooled SCM is formed, every matrix
        handed to the eigensolver is the 80 x 80 Gram matrix, and the
        decompositions carry p x r eigenvector blocks, r = n = 78."""

        def no_scm(pair):
            raise AssertionError("pooled_scm called on the Gram side")

        monkeypatch.setattr(spectral, "pooled_scm", no_scm)
        solved, shapes = [], []

        def eigh(m, inner=spectral.spectral_decompose):
            solved.append(len(m))
            return inner(m)

        def decompose(pair, inner=spectral.decompose_pair):
            decomp = inner(pair)
            shapes.append(decomp.eigenvectors.shape)
            return decomp

        monkeypatch.setattr(spectral, "spectral_decompose", eigh)
        monkeypatch.setattr(spectral, "decompose_pair", decompose)
        cfg = SimulationConfig(p=150, n1=40, n2=40, cov_order=2, trials=3, seed=4)
        table = run_trials(cfg)
        assert set(table.absent) == {DetectorKind.HOTELLING}
        assert len(shapes) == 2 * cfg.trials
        assert set(shapes) == {(150, 78)}
        assert set(solved) == {80}

    @pytest.mark.parametrize(
        "name",
        ["hotelling_score", "lw_score", "bs96_score", "cq10_score", "lappw_score", "mahalanobis_score"],
    )
    def test_detectors_are_looked_up_at_call_time(self, name, monkeypatch):
        """A detector replaced in the detectors namespace after import is the
        one the engine calls, once per pair."""
        seen = []
        monkeypatch.setattr(detectors, name, _recording(getattr(detectors, name), seen))
        table = run_trials(SimulationConfig(**SMALL))
        assert table.absent == {}
        assert len(seen) == 2 * SMALL["trials"]

    @pytest.mark.parametrize(
        "kinds, scms, decomps",
        [
            (tuple(DetectorKind), 1, 1),
            (("bs96", "cq10", "oracle"), 1, 0),
            (("lappw", "lw"), 1, 1),
            (("cq10", "oracle"), 0, 0),
        ],
        ids=["all", "scm-only", "decomp", "neither"],
    )
    def test_each_pair_forms_scm_and_decomposition_at_most_once(
        self, kinds, scms, decomps, monkeypatch
    ):
        seen = {"pooled_scm": [], "decompose_pair": []}
        for name, calls in seen.items():
            monkeypatch.setattr(spectral, name, _recording(getattr(spectral, name), calls))
        cfg = SimulationConfig(detectors=kinds, **SMALL)
        run_trials(cfg)
        assert len(seen["pooled_scm"]) == scms * 2 * cfg.trials
        assert len(seen["decompose_pair"]) == decomps * 2 * cfg.trials

    def test_null_z_samples_consistent_with_run(self):
        cfg = SimulationConfig(**SMALL)
        z = null_z_samples(cfg)
        table = run_trials(cfg)
        np.testing.assert_array_equal(z, table.h0[DetectorKind.PROPOSED_LW])

    def test_null_z_samples_raises_the_precondition_error(self, monkeypatch):
        # p = n1 + n2 - 2 = 20: the shrinkage map rejects every trial, and
        # after the first failure no later trial is scored
        monkeypatch.setenv("HDTEST_THREADS", "1")
        seen = []
        monkeypatch.setattr(detectors, "lw_score", _recording(detectors.lw_score, seen))
        cfg = SimulationConfig(p=20, n1=11, n2=11, trials=50)
        with pytest.warns(UserWarning, match="truncated"):
            with pytest.raises(UnsupportedAspectRatioError, match="aspect ratio") as info:
                null_z_samples(cfg)
        assert type(info.value) is UnsupportedAspectRatioError
        assert len(seen) == 1

    @pytest.mark.parametrize("workers", ["1", "4"])
    @pytest.mark.parametrize("first_h", [0, 1], ids=["h0", "h1"])
    def test_first_failure_is_kept_at_any_worker_count(self, first_h, workers, monkeypatch):
        """cq10 fails from (trial k, hypothesis first_h) on, and its call at
        (k, 0) is slow, so with four workers later trials fail first: before
        trial k's failure (h0) or before trial k reaches hypothesis 1 (h1).
        The reported failure is still trial k's, and the other columns keep
        the bytes of an unpatched run."""
        cfg = SimulationConfig(p=8, n1=10, n2=12, trials=12, seed=5)
        reference = run_trials(cfg)
        k, current = 5, threading.local()

        def trial_rng(seed, t, h, inner=simulation._trial_rng):
            current.at = (t, h)
            return inner(seed, t, h)

        calls = []

        def cq10(pair, inner=detectors.cq10_score):
            calls.append(current.at)
            if current.at == (k, 0):
                time.sleep(0.2)
            if current.at >= (k, first_h):
                raise DomainError(f"failed at trial {current.at[0]}")
            return inner(pair)

        monkeypatch.setattr(simulation, "_trial_rng", trial_rng)
        monkeypatch.setattr(detectors, "cq10_score", cq10)
        monkeypatch.setenv("HDTEST_THREADS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = run_trials(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert table.absent == {DetectorKind.CQ10: f"failed at trial {k}"}
        assert table.present() == tuple(d for d in cfg.detectors if d != DetectorKind.CQ10)
        for kind in table.present():
            assert table.h0[kind].tobytes() == reference.h0[kind].tobytes()
            assert table.h1[kind].tobytes() == reference.h1[kind].tobytes()
        if workers == "1":
            assert len(calls) == 2 * k + 1 + first_h


@functools.cache
def wide_null_z(p: int) -> np.ndarray:
    """lw's null Z at p > n: n1 = n2 = 100, order 0, 300 trials, seed 0."""
    return null_z_samples(SimulationConfig(p=p, n1=100, n2=100, cov_order=0, trials=300, seed=0))


class TestNullZAbovePEqualsN:
    """lw's null Z above p = n, at c = p/n about 1.3 (p = 260) and 2 (p = 400).

    The N = 300 trials are independent, so the sample mean has standard
    error s/sqrt(N), and the sample variance s^2 has standard error
    sqrt((m4 - s^4 (N - 3)/(N - 1))/N), with m4 the fourth central moment:
    Z's kurtosis widens that band past a normal sample's sqrt(2/(N - 1)).
    Each band is three standard errors around the N(0, 1) value.
    """

    @pytest.mark.parametrize("p", [260, 400])
    def test_variance_is_within_three_standard_errors_of_1(self, p):
        z = wide_null_z(p)
        n, var = z.size, z.var(ddof=1)
        m4 = np.mean((z - z.mean()) ** 4)
        se = math.sqrt((m4 - var * var * (n - 3) / (n - 1)) / n)
        assert abs(var - 1.0) < 3.0 * se, f"variance {var:.4f}, SE {se:.4f}"

    @pytest.mark.parametrize(
        "p",
        [
            260,
            pytest.param(400, marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="lw centres T2 at p, and above p = n its null mean stays about 0.2",
            )),
        ],
    )
    def test_mean_is_within_three_standard_errors_of_0(self, p):
        z = wide_null_z(p)
        se = math.sqrt(z.var(ddof=1) / z.size)
        assert abs(z.mean()) < 3.0 * se, f"mean {z.mean():.4f}, SE {se:.4f}"


class TestPairScheduling:
    """The engine's unit of work is one (trial, hypothesis) pair."""

    def test_pairs_are_handed_out_in_trial_then_hypothesis_order(self, monkeypatch):
        monkeypatch.setenv("HDTEST_THREADS", "1")
        seen = []

        def trial_rng(seed, t, h, inner=simulation._trial_rng):
            seen.append((t, h))
            return inner(seed, t, h)

        monkeypatch.setattr(simulation, "_trial_rng", trial_rng)
        run_trials(SimulationConfig(**SMALL))
        assert seen == [(t, h) for t in range(SMALL["trials"]) for h in (0, 1)]

    def test_one_trial_runs_its_two_pairs_on_two_threads(self, monkeypatch):
        """Both pairs of the only trial must be inside cq10 at once: the
        barrier breaks, and the run raises, if one thread ran the whole trial."""
        monkeypatch.setenv("HDTEST_THREADS", "2")
        barrier = threading.Barrier(2, timeout=30)
        threads = set()

        def cq10(pair, inner=detectors.cq10_score):
            threads.add(threading.get_ident())
            barrier.wait()
            return inner(pair)

        monkeypatch.setattr(detectors, "cq10_score", cq10)
        cfg = SimulationConfig(p=8, n1=10, n2=12, trials=1, seed=5, detectors=("cq10",))
        assert simulation.worker_count(cfg.trials, simulation.SIMULATE_HYPOTHESES) == 2
        table = run_trials(cfg)
        assert len(threads) == 2
        assert table.absent == {}

    def test_each_worker_reuses_one_workspace(self, monkeypatch):
        """Every pair a worker draws has its x1 block in the same buffer, and
        the two workers' buffers differ.  The blocks are kept alive, so a
        fresh buffer per pair cannot land on a freed one's address."""
        monkeypatch.setenv("HDTEST_THREADS", "2")
        lock, kept, buffers = threading.Lock(), [], {}

        def cq10(pair, inner=detectors.cq10_score):
            with lock:
                kept.append(pair.x1)
                address = pair.x1.__array_interface__["data"][0]
                buffers.setdefault(threading.get_ident(), set()).add(address)
            return inner(pair)

        monkeypatch.setattr(detectors, "cq10_score", cq10)
        cfg = SimulationConfig(p=8, n1=10, n2=12, trials=20, seed=5, detectors=("cq10",))
        run_trials(cfg)
        assert len(kept) == 2 * cfg.trials
        assert all(len(b) == 1 for b in buffers.values())
        assert len(set().union(*buffers.values())) == len(buffers)

    def test_each_pair_is_taken_once_under_contention(self, monkeypatch):
        """Eight workers on a short switch interval: a pair taken twice, or
        lost, between the workers' loops shows in the pairs drawn."""
        monkeypatch.setenv("HDTEST_THREADS", "8")
        seen = []

        def trial_rng(seed, t, h, inner=simulation._trial_rng):
            seen.append((t, h))
            return inner(seed, t, h)

        monkeypatch.setattr(simulation, "_trial_rng", trial_rng)
        cfg = SimulationConfig(p=8, n1=10, n2=12, trials=150, seed=5, detectors=("cq10",))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.monotonic()
            run_trials(cfg)
            assert time.monotonic() - start < 60.0
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == [(t, h) for t in range(cfg.trials) for h in (0, 1)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "engine, detector",
        [(run_trials, "hotelling"), (null_z_samples, "lw")],
        ids=["run_trials", "null_z_samples"],
    )
    def test_an_unexpected_error_stops_the_engine(self, engine, detector, workers, monkeypatch):
        """A RuntimeError from the fifth detector call propagates, and once it
        is raised no worker starts more than one further pair: the other
        worker may have taken its next pair already, the raising one none."""
        monkeypatch.setenv("HDTEST_THREADS", workers)
        lock, raised = threading.Lock(), threading.Event()
        calls, late = [], []  # detector calls; the thread of each pair started after the raise
        name = f"{detector}_score"

        def score(pair, inner=getattr(detectors, name)):
            with lock:
                calls.append(None)
                if len(calls) == 5:
                    raised.set()
                    raise RuntimeError("not a precondition failure")
            return inner(pair)

        def trial_rng(seed, t, h, inner=simulation._trial_rng):
            if raised.is_set():
                late.append(threading.get_ident())
            return inner(seed, t, h)

        monkeypatch.setattr(detectors, name, score)
        monkeypatch.setattr(simulation, "_trial_rng", trial_rng)
        cfg = SimulationConfig(p=8, n1=10, n2=12, trials=40, seed=5, detectors=(detector,))
        with pytest.raises(RuntimeError, match="not a precondition"):
            engine(cfg)
        assert len(late) <= int(workers) - 1
        assert len(calls) <= 5 + 2 * (int(workers) - 1)

    @pytest.mark.parametrize(
        "threads, trials, simulate, null", [("3", 1, 2, 1), ("3", 2, 3, 2), ("1", 5, 1, 1)]
    )
    def test_worker_count_counts_pairs(self, threads, trials, simulate, null, monkeypatch):
        monkeypatch.setenv("HDTEST_THREADS", threads)
        assert simulation.worker_count(trials, simulation.SIMULATE_HYPOTHESES) == simulate
        assert simulation.worker_count(trials, simulation.NULL_HYPOTHESES) == null


def _openblas_or_skip():
    libs = simulation._find_openblas()
    if not libs:
        pytest.skip("no OpenBLAS with thread-count symbols is loaded")
    return libs


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS set to two threads (what it reads back), restored after."""
    libs = _openblas_or_skip()
    original = [lib.get() for lib in libs]
    for lib in libs:
        lib.set(2)
    try:
        yield {lib.name: lib.get() for lib in libs}
    finally:
        for lib, n in zip(libs, original):
            lib.set(n)


def _recording(fn, seen):
    """`fn` that first appends blas_threads() to `seen`."""

    def wrapped(*args, **kwargs):
        seen.append(blas_threads())
        return fn(*args, **kwargs)

    return wrapped


class TestBlasPin:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_held_at_one_during_run_and_restored_after(self, workers, blas_at_two, monkeypatch):
        monkeypatch.setenv("HDTEST_THREADS", workers)
        seen = []
        monkeypatch.setattr(detectors, "cq10_score", _recording(detectors.cq10_score, seen))
        run_trials(SimulationConfig(**SMALL))
        assert len(seen) == 2 * SMALL["trials"]
        assert all(counts == {name: 1 for name in blas_at_two} for counts in seen)
        assert blas_threads() == blas_at_two

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_restored_after_a_trial_raises(self, workers, blas_at_two, monkeypatch):
        monkeypatch.setenv("HDTEST_THREADS", workers)

        def boom(pair):
            raise RuntimeError("not a precondition failure")

        monkeypatch.setattr(detectors, "cq10_score", boom)
        with pytest.raises(RuntimeError, match="not a precondition"):
            run_trials(SimulationConfig(**SMALL))
        assert blas_threads() == blas_at_two

    def test_nested_hold_is_released_by_the_outermost_only(self, blas_at_two):
        with blas_pinned() as held:
            assert held == {name: 1 for name in blas_at_two}
            null_z_samples(SimulationConfig(**SMALL))
            assert blas_threads() == held
        assert blas_threads() == blas_at_two

    def test_concurrent_engines_stay_pinned(self, blas_at_two, monkeypatch):
        """More engines than cores, switching often: no engine may see the
        counts restored while another still runs."""
        monkeypatch.setenv("HDTEST_THREADS", "2")
        seen = []
        monkeypatch.setattr(detectors, "cq10_score", _recording(detectors.cq10_score, seen))
        cfg = SimulationConfig(p=6, n1=8, n2=8, trials=6, seed=2, detectors=("cq10",))
        engines = [threading.Thread(target=run_trials, args=(cfg,)) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in engines:
                t.start()
            for t in engines:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in engines)
        assert len(seen) == 6 * 2 * cfg.trials
        assert all(counts == {name: 1 for name in blas_at_two} for counts in seen)
        assert blas_threads() == blas_at_two

    def test_finds_numpy_openblas_under_a_path_with_a_space(self, tmp_path, monkeypatch):
        """A maps line's path is all of its sixth field: numpy's OpenBLAS,
        mapped from a directory whose name has a space, is still found."""
        want = _openblas_or_skip()
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = fh.readlines()
        real = next(
            line.split(maxsplit=5)[5].rstrip("\n") for line in lines
            if line.rstrip().endswith("/" + want[0].name)
        )
        link = tmp_path / "with space" / want[0].name
        link.parent.mkdir()
        link.symlink_to(real)  # dlopen of the link returns the loaded library
        maps = tmp_path / "maps"
        maps.write_text("".join(line.replace(real, str(link)) for line in lines))
        monkeypatch.setattr(simulation, "open", lambda _, **kw: open(maps, **kw), raising=False)
        found = simulation._find_openblas.__wrapped__()
        assert [lib.name for lib in found] == [want[0].name]
        assert found[0].get() == want[0].get()

    def test_no_library_found_still_scores(self, monkeypatch):
        cfg = SimulationConfig(**SMALL)
        pinned = run_trials(cfg)
        monkeypatch.setattr(simulation, "_find_openblas", lambda: ())
        with blas_pinned() as held:
            assert held == {}
        bare = run_trials(cfg)
        assert bare.absent == pinned.absent == {}
        for kind in cfg.detectors:
            np.testing.assert_array_equal(bare.h0[kind], pinned.h0[kind])
            np.testing.assert_array_equal(bare.h1[kind], pinned.h1[kind])

    def test_scores_do_not_depend_on_blas_threads(self, tmp_path):
        """Two fresh interpreters with different OPENBLAS_NUM_THREADS and
        HDTEST_THREADS must write the same scores, at p = 150 on both sides of
        n1 + n2: with 40 + 40 every detector reads the Gram-side decomposition,
        and with 80 + 80 the 150 x 150 eigh, whose bits move with the OpenBLAS
        thread count unless the engine holds it."""
        package_root = str(Path(hdtest.__file__).resolve().parents[1])
        for group in ("40", "80"):
            args = [
                "simulate", "--p", "150", "--n1", group, "--n2", group, "--cov-order", "2",
                "--detectors", "lw,bs96,lappw,oracle", "--trials", "4", "--seed", "1",
            ]
            digests = []
            for threads in ("1", "2"):
                out = tmp_path / f"n{group}-blas{threads}"
                env = dict(
                    os.environ,
                    PYTHONPATH=package_root,
                    OPENBLAS_NUM_THREADS=threads,
                    HDTEST_THREADS=threads,
                )
                proc = subprocess.run(
                    [sys.executable, "-m", "hdtest.cli", *args, "--out-dir", str(out)],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                digests.append(hashlib.sha256((out / "scores.csv").read_bytes()).hexdigest())
            assert digests[0] == digests[1], f"n1 = n2 = {group}"


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        assert curve.auc == 1.0

    def test_identical_scores_give_half(self):
        curve = roc_curve(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert curve.auc == pytest.approx(0.5)
        np.testing.assert_array_equal(curve.fpr, [0.0, 1.0])
        np.testing.assert_array_equal(curve.tpr, [0.0, 1.0])

    def test_interleaved_example(self):
        curve = roc_curve(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert curve.auc == pytest.approx(0.75)
        np.testing.assert_array_equal(curve.fpr, [0.0, 0.0, 0.5, 0.5, 1.0])
        np.testing.assert_array_equal(curve.tpr, [0.0, 0.5, 0.5, 1.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(
        h0=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12),
        h1=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12),
    )
    def test_auc_matches_brute_force_with_ties(self, h0, h1):
        h0 = np.array(h0, dtype=float)
        h1 = np.array(h1, dtype=float)
        curve = roc_curve(h0, h1)
        assert curve.auc == pytest.approx(auc_brute(h0, h1), abs=1e-12)
        assert np.all(np.diff(curve.fpr) >= 0.0)
        assert np.all(np.diff(curve.tpr) >= 0.0)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        h0 = rng.standard_normal(15)
        h1 = rng.standard_normal(10) + 0.5
        base = roc_curve(h0, h1)
        warped = roc_curve(np.tanh(h0), np.tanh(h1))
        np.testing.assert_array_equal(base.fpr, warped.fpr)
        np.testing.assert_array_equal(base.tpr, warped.tpr)
        assert base.auc == warped.auc

    def test_points_match_the_unique_thresholds_with_ties(self):
        rng = np.random.default_rng(4)
        samples = [
            (np.round(rng.standard_normal(40), 1), np.round(rng.standard_normal(60) + 0.5, 1)),
            (np.array([0.0, -0.0, 1.0, 1.0]), np.array([-0.0, 0.0, 1.0, 2.0])),
            (np.full(5, 2.5), np.full(3, 2.5)),
            (np.array([3.0]), np.array([-1.0])),
        ]
        for h0, h1 in samples:
            curve = roc_curve(h0, h1)
            fpr, tpr = roc_points_unique(h0, h1)
            assert curve.fpr.tobytes() == fpr.tobytes()
            assert curve.tpr.tobytes() == tpr.tobytes()

    def test_rejects_empty_or_non_finite(self):
        with pytest.raises(StructuralError):
            roc_curve(np.array([]), np.array([1.0]))
        with pytest.raises(StructuralError):
            roc_curve(np.array([np.nan]), np.array([1.0]))
        with pytest.raises(StructuralError):
            roc_curve(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(StructuralError):
            roc_curve(np.ones((2, 2)), np.ones(3))

    def test_curve_invariants_enforced(self):
        with pytest.raises(StructuralError):
            RocCurve(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(StructuralError):
            RocCurve(np.array([0.0, 0.6, 0.4, 1.0]), np.array([0.0, 0.5, 0.7, 1.0]))


class TestNormalityCheck:
    def test_standard_normal_sample(self):
        z = np.random.default_rng(0).standard_normal(100_000)
        s = normality_check(z)
        assert abs(s.mean) < 0.02
        assert s.variance == pytest.approx(1.0, abs=0.02)
        assert s.ks_statistic < 0.01

    def test_matches_scipy_kstest(self):
        z = np.random.default_rng(1).standard_normal(500) * 1.3 + 0.2
        s = normality_check(z)
        ref = stats.kstest(z, "norm").statistic
        assert s.ks_statistic == pytest.approx(float(ref), abs=1e-12)
        assert s.variance == pytest.approx(float(np.var(z, ddof=1)), rel=1e-12)

    def test_degenerate_sample(self):
        s = normality_check(np.zeros(10))
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.ks_statistic == pytest.approx(0.5)

    def test_rejects_bad_input(self):
        with pytest.raises(StructuralError):
            normality_check(np.array([1.0]))
        with pytest.raises(StructuralError):
            normality_check(np.array([1.0, np.inf]))


class TestCsvWriters:
    def test_scores_csv_round_trips(self, tmp_path):
        cfg = SimulationConfig(**SMALL)
        table = run_trials(cfg)
        path = tmp_path / "scores.csv"
        write_scores_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,hypothesis,detector,score"
        assert len(lines) == 1 + cfg.trials * 2 * len(cfg.detectors)
        # row order: trial-major, h0 block then h1, config detector order
        first = lines[1].split(",")
        assert first[:3] == ["0", "h0", "hotelling"]
        for line in lines[1:]:
            t, hyp, name, score = line.split(",")
            kind = DetectorKind(name)
            stored = (table.h0 if hyp == "h0" else table.h1)[kind][int(t)]
            assert float(score) == stored

    def test_roc_csv_round_trips(self, tmp_path):
        curve = roc_curve(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(got[:, 0], curve.fpr)
        np.testing.assert_array_equal(got[:, 1], curve.tpr)
