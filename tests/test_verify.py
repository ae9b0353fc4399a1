"""The self-verification battery itself: instance generation and reports."""

import ctypes
import json
import multiprocessing

import numpy as np
import pytest

from sparsekl import finite_oracle, gaussians, verify
from sparsekl.finite_oracle import (
    augmentation_gap,
    deterministic_union_kl,
    exact_posterior,
    extend_approx,
    noisy_copy_conditional,
    pushforward_check,
)
from sparsekl.gaussians import GaussianDist, expected_conditional_kl
from sparsekl.verify import (
    REGIMES,
    instance_record,
    quadrature_crosschecks,
    random_finite_instance,
    random_gaussian_pair,
    run_verification,
)


def test_instances_cover_all_regimes():
    seen = set()
    for seed in range(9):
        m, q = random_finite_instance(seed)
        d, z = set(m.data_idx), set(m.inducing_idx)
        if z == d:
            seen.add("equal")
        elif z < d:
            seen.add("subset")
        elif not (z & d):
            seen.add("disjoint")
    assert seen == set(REGIMES)


def test_instances_are_deterministic():
    m1, q1 = random_finite_instance(5)
    m2, q2 = random_finite_instance(5)
    np.testing.assert_array_equal(m1.X, m2.X)
    np.testing.assert_array_equal(q1.q_u.mean, q2.q_u.mean)
    assert m1.data_idx == m2.data_idx


def test_instance_sizes_stay_small():
    for seed in range(20):
        m, _ = random_finite_instance(seed)
        assert m.n_points <= 12
        assert len(m.data_idx) <= 6
        assert len(m.inducing_idx) <= 4


def test_instance_record_fields_and_pass():
    rec = instance_record(0)
    for key in (
        "instance_seed",
        "full_kl",
        "titsias_kl",
        "elbo_gap",
        "chain_conditional",
        "chain_marginal",
        "aug_gap",
        "push_diff",
        "pass",
    ):
        assert key in rec
    assert rec["pass"] is True
    assert rec["failed_checks"] == []


def test_quadrature_crosschecks_pass():
    out = quadrature_crosschecks(0)
    assert out["pass"] is True
    assert out["max_feature_point_error"] <= 1e-6
    assert out["max_feature_feature_error"] <= 1e-6
    assert out["max_gauss_lik_quadrature_error"] <= 1e-10


def test_quadrature_error_fields_are_python_floats():
    out = quadrature_crosschecks(0)
    for key in (
        "max_feature_point_error",
        "max_feature_feature_error",
        "max_gauss_lik_quadrature_error",
    ):
        assert type(out[key]) is float


def test_run_verification_small():
    report = run_verification(seed=0, n_instances=6)
    assert report["all_pass"] is True
    assert len(report["instances"]) == 6
    # report must serialize cleanly for the CLI
    json.dumps(report)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_parallel_battery_equals_sequential(n, monkeypatch):
    # n=1 and 2 hit the cap of one worker per instance; with one chunk per
    # worker, n=7 splits into chunks of uneven length on 2 or 3 CPUs
    monkeypatch.setattr(verify, "CHUNKS_PER_WORKER", 1)
    seed = 3
    report = run_verification(seed, n)
    assert not multiprocessing.active_children()
    assert report["instances"] == [
        instance_record(seed + i, REGIMES[i % len(REGIMES)]) for i in range(n)
    ]
    assert report["quadrature"] == quadrature_crosschecks(seed + 777_777)


class FakeOpenBlas:
    """Stands in for ``ctypes.CDLL``: records each thread-count call."""

    calls = []

    def __init__(self, path, symbols):
        self.path, self.symbols = path, symbols

    def __getattr__(self, symbol):
        if symbol not in self.symbols:
            raise AttributeError(symbol)

        def set_threads(n):
            assert set_threads.argtypes == [ctypes.c_int] and set_threads.restype is None
            FakeOpenBlas.calls.append((self.path.rsplit("/", 1)[-1], symbol, n))

        return set_threads


def pin_with_fakes(monkeypatch, symbols):
    FakeOpenBlas.calls = []
    monkeypatch.setattr(verify.glob, "glob", lambda pattern: [pattern.replace("*", "X")])
    monkeypatch.setattr(verify.ctypes, "CDLL", lambda path: FakeOpenBlas(path, symbols))
    verify._one_blas_thread()
    return FakeOpenBlas.calls


BOTH_SYMBOLS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")


def test_workers_pin_both_openblas_copies_to_one_thread(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert pin_with_fakes(monkeypatch, BOTH_SYMBOLS) == [
        ("libscipy_openblas64_X.so", "scipy_openblas_set_num_threads64_", 1),
        ("libscipy_openblasX.so", "scipy_openblas_set_num_threads", 1),
    ]
    # a library without the symbol is left alone, and nothing is raised
    assert pin_with_fakes(monkeypatch, BOTH_SYMBOLS[1:]) == [
        ("libscipy_openblasX.so", "scipy_openblas_set_num_threads", 1),
    ]
    assert pin_with_fakes(monkeypatch, ()) == []


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_workers_keep_a_thread_count_the_user_set(monkeypatch, var):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv(var, "2")
    assert pin_with_fakes(monkeypatch, BOTH_SYMBOLS) == []


def test_regime_forcing():
    m, _ = random_finite_instance(3, regime="equal")
    assert set(m.data_idx) == set(m.inducing_idx)
    m, _ = random_finite_instance(3, regime="disjoint")
    assert not (set(m.data_idx) & set(m.inducing_idx))
    m, _ = random_finite_instance(3, regime="subset")
    assert set(m.inducing_idx) < set(m.data_idx)


def _instance_maps(seed, n):
    """The selection and averaging maps ``instance_record`` draws."""
    rng = np.random.default_rng(seed + 10_000_019)
    dim = int(rng.integers(2, 9))
    random_gaussian_pair(rng, dim)
    rng.integers(1, dim)
    sel = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
    selection = np.zeros((sel.size, n))
    selection[np.arange(sel.size), sel] = 1.0
    return selection, np.full((1, n), 1.0 / n)


@pytest.mark.parametrize("seed", range(6))
def test_instance_record_matches_standalone_routes(seed):
    # seeds 0-5 cover every regime twice; each record field built from
    # shared objects must equal the public call made from scratch
    assert {REGIMES[s % len(REGIMES)] for s in range(6)} == set(REGIMES)
    rec = instance_record(seed)
    m, q = random_finite_instance(seed)
    matched = noisy_copy_conditional(m)
    mismatched = noisy_copy_conditional(m, cov_scale=2.0)
    assert rec["aug_matched_gap"] == pytest.approx(
        augmentation_gap(m, q, matched).gap, abs=1e-12
    )
    assert rec["aug_gap"] == pytest.approx(augmentation_gap(m, q, mismatched).gap, abs=1e-12)
    assert rec["aug_gap_closed_form"] == pytest.approx(
        expected_conditional_kl(mismatched, matched, extend_approx(m, q)), abs=1e-12
    )
    push_diff = union_residual = 0.0
    for A in _instance_maps(seed, m.n_points):
        push_diff = max(push_diff, pushforward_check(extend_approx(m, q), A).max_diff)
        union = deterministic_union_kl(extend_approx(m, q), exact_posterior(m), A)
        union_residual = max(union_residual, abs(union["kl_union"] - union["kl_X"]))
    assert rec["push_diff"] == pytest.approx(push_diff, abs=1e-12)
    assert rec["union_residual"] == pytest.approx(union_residual, abs=1e-12)


def test_instance_record_factors_each_oracle_matrix_once(monkeypatch):
    # the full route's q_X and p_X serve every check; each deterministic
    # map is factorized by one SVD and never pseudo-inverted
    calls = {"exact_posterior": 0, "extend_approx": 0, "svd": 0, "pinv": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("exact_posterior", "extend_approx"):
        wrapper = counting(name, getattr(finite_oracle, name))
        monkeypatch.setattr(finite_oracle, name, wrapper)
    for name in ("svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for seed in range(3):
        calls.update(dict.fromkeys(calls, 0))
        assert instance_record(seed)["pass"] is True
        assert calls == {"exact_posterior": 1, "extend_approx": 1, "svd": 2, "pinv": 0}


@pytest.mark.parametrize("seed, factorizations", [(0, 30), (1, 30), (2, 29)])
def test_instance_record_builds_no_throwaway_gaussians(monkeypatch, seed, factorizations):
    # 22 validated Gaussians: no joint is built only to be permuted and no
    # marginal only to be extended.  The chain rule's conditionals reuse the
    # factors of its marginals; seed 2 is an "equal" instance, whose union
    # D u Z needs no extension and so one factorization fewer.
    counts = {"GaussianDist": 0, "cholesky": 0}
    real_post_init, real_cholesky = GaussianDist.__post_init__, gaussians.cholesky

    def post_init(self):
        counts["GaussianDist"] += 1
        real_post_init(self)

    def cholesky(A):
        counts["cholesky"] += 1
        return real_cholesky(A)

    monkeypatch.setattr(GaussianDist, "__post_init__", post_init)
    monkeypatch.setattr(gaussians, "cholesky", cholesky)
    assert instance_record(seed)["pass"] is True
    assert counts == {"GaussianDist": 22, "cholesky": factorizations}
