"""Randomized verification battery over the finite-dimensional oracle.

Generates seeded, well-conditioned model instances and checks every
identity the sparse construction relies on: the three-way equivalence
of the divergence, the chain-rule split, the augmentation gap with its
closed form, and the deterministic pushforward.  A report row per
instance makes failures reproducible from the seed alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from .finite_oracle import (
    FiniteModel,
    augmented_report,
    check_finite_equivalence,
    deterministic_map_report,
    kl_chain_rule_decompose,
    noisy_copy_conditional,
)
from .gaussians import (
    GaussianDist,
    expected_conditional_kl,
    joint_from_marginal_and_conditional,
    mvn_kl,
)
from .interdomain import (
    GaussianWindowFeature,
    feature_feature_cov,
    feature_feature_cov_quadrature,
    feature_point_cov,
    feature_point_cov_quadrature,
)
from .kernels import Kernel, prior_at
from .svgp import GaussianNoise, gauss_hermite_expectation

__all__ = [
    "random_finite_instance",
    "random_gaussian_pair",
    "instance_record",
    "quadrature_crosschecks",
    "run_verification",
    "REGIMES",
]

REGIMES = ("disjoint", "subset", "equal")

EQUIVALENCE_RTOL = 1e-8
IDENTITY_ATOL = 1e-9
MIN_COUNTEREXAMPLE_GAP = 0.01
QUAD_ATOL = 1e-6
GH_GAUSSIAN_ATOL = 1e-10
# chunks of instances per worker: enough to even out uneven instance and
# worker speeds, few enough that sending them costs little
CHUNKS_PER_WORKER = 8


def random_finite_instance(seed: int, regime: str = None):
    """A seeded, well-conditioned model with an arbitrary approximation q(u),
    a Gaussian over its inducing points.

    Points are spaced at least 1.2 lengthscales apart so the prior Gram
    matrix stays far from singular; the identities under test are exact
    in real arithmetic, and conditioning should not blur them.
    ``regime`` controls how the inducing set meets the data set.
    """
    rng = np.random.default_rng(seed)
    if regime is None:
        regime = REGIMES[seed % len(REGIMES)]
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    n = int(rng.integers(6, 13))
    ell = float(rng.uniform(0.5, 1.5))
    gaps = rng.uniform(1.2 * ell, 2.5 * ell, size=n - 1)
    X = np.concatenate([[0.0], np.cumsum(gaps)])[:, None]
    kernel = Kernel(
        variance=float(rng.uniform(0.3, 2.0)),
        lengthscales=np.array([ell]),
        mean_const=float(rng.uniform(-1.0, 1.0)),
    )
    noise_var = float(rng.uniform(0.1, 1.0))
    perm = rng.permutation(n)
    if regime == "disjoint":
        nz = int(rng.integers(1, 5))
        nd = int(rng.integers(1, min(6, n - nz) + 1))
        data_idx = tuple(perm[:nd])
        inducing_idx = tuple(perm[nd : nd + nz])
    elif regime == "subset":
        nd = int(rng.integers(2, 7))
        nz = int(rng.integers(1, min(4, nd - 1) + 1))
        data_idx = tuple(perm[:nd])
        inducing_idx = tuple(rng.choice(perm[:nd], size=nz, replace=False))
    else:
        nd = int(rng.integers(1, 5))
        data_idx = tuple(perm[:nd])
        inducing_idx = data_idx
    prior = prior_at(kernel, X)
    f = prior.mean + prior.chol @ rng.standard_normal(n)
    Y = f[list(data_idx)] + np.sqrt(noise_var) * rng.standard_normal(len(data_idx))
    model = FiniteModel(X, data_idx, inducing_idx, prior, Y, noise_var, kernel)
    nz = len(inducing_idx)
    scale = float(np.sqrt(kernel.variance))
    q_mean = prior.mean[list(inducing_idx)] + 0.5 * scale * rng.standard_normal(nz)
    W = 0.4 * scale * rng.standard_normal((nz, nz))
    q_cov = W @ W.T + 0.3 * kernel.variance * np.eye(nz)
    return model, GaussianDist(q_mean, q_cov)


def random_gaussian_pair(rng, dim: int):
    """Two full-rank Gaussians of the same dimension, eigenvalues >= 1."""

    def draw():
        mean = rng.standard_normal(dim)
        W = rng.standard_normal((dim, dim))
        cov = W @ W.T + (1.0 + rng.uniform()) * np.eye(dim)
        return GaussianDist(mean, cov)

    return draw(), draw()


def instance_record(seed: int) -> dict:
    """Run the full identity battery on one seeded instance, in the seed's regime."""
    model, approx = random_finite_instance(seed)
    rng = np.random.default_rng(seed + 10_000_019)

    equiv = check_finite_equivalence(model, approx)

    dim = int(rng.integers(2, 9))
    joint_q, joint_p = random_gaussian_pair(rng, dim)
    split = int(rng.integers(1, dim))
    u_idx = np.arange(split)
    v_idx = np.arange(split, dim)
    decomp = kl_chain_rule_decompose(joint_q, joint_p, u_idx, v_idx)
    chain_residual = abs(decomp.total - mvn_kl(joint_q, joint_p))

    # The full route's approximation, posterior and divergence over X
    # serve every check below; the matched conditional is also the
    # posterior side's.
    q_X, p_X, kl_X = equiv.q_X, equiv.p_X, equiv.full
    matched = noisy_copy_conditional(model)
    mismatched = noisy_copy_conditional(model, cov_scale=2.0)
    p_union = joint_from_marginal_and_conditional(p_X, matched)
    matched_report = augmented_report(q_X, p_union, kl_X, matched)
    mismatch_report = augmented_report(q_X, p_union, kl_X, mismatched)
    closed_form_gap = expected_conditional_kl(mismatched, matched, q_X)

    n = model.n_points
    sel = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
    selection = np.zeros((sel.size, n))
    selection[np.arange(sel.size), sel] = 1.0
    averaging = np.full((1, n), 1.0 / n)
    push_diff = 0.0
    union_residual = 0.0
    for A in (selection, averaging):
        report = deterministic_map_report(q_X, p_X, A)
        push_diff = max(push_diff, report.push_diff)
        union_residual = max(union_residual, abs(report.kl_union - kl_X))

    equiv_tol = EQUIVALENCE_RTOL * (1.0 + abs(equiv.full))
    checks = {
        "equivalence": equiv.max_abs_diff <= equiv_tol,
        "chain_rule": chain_residual <= IDENTITY_ATOL,
        "augmentation_matched": abs(matched_report.gap) <= IDENTITY_ATOL,
        "augmentation_gap_positive": mismatch_report.gap > MIN_COUNTEREXAMPLE_GAP,
        "augmentation_closed_form": abs(mismatch_report.gap - closed_form_gap)
        <= IDENTITY_ATOL,
        "pushforward": push_diff <= IDENTITY_ATOL,
        "deterministic_union": union_residual <= IDENTITY_ATOL,
    }
    return {
        "instance_seed": int(seed),
        "regime": REGIMES[seed % len(REGIMES)],
        "full_kl": equiv.full,
        "titsias_kl": equiv.titsias,
        "elbo_gap": equiv.elbo_gap,
        "max_equivalence_diff": equiv.max_abs_diff,
        "chain_conditional": decomp.conditional_term,
        "chain_marginal": decomp.marginal_term,
        "chain_residual": chain_residual,
        "aug_gap": mismatch_report.gap,
        "aug_gap_closed_form": closed_form_gap,
        "aug_matched_gap": matched_report.gap,
        "push_diff": push_diff,
        "union_residual": union_residual,
        "pass": all(checks.values()),
        "failed_checks": sorted(k for k, ok in checks.items() if not ok),
    }


def quadrature_crosschecks(seed: int) -> dict:
    """Closed forms against brute-force quadrature, 12 random draws each.

    Window-feature covariances against adaptive Gauss-Legendre, and the
    Gaussian expected log likelihood against Gauss-Hermite.
    """
    rng = np.random.default_rng(seed)
    max_fpc = 0.0
    max_ffc = 0.0
    for _ in range(12):
        d = int(rng.integers(1, 3))
        kernel = Kernel(
            variance=float(rng.uniform(0.3, 2.0)),
            lengthscales=rng.uniform(0.3, 1.5, size=d),
        )
        w1 = GaussianWindowFeature(
            rng.uniform(-1, 1, size=d), rng.uniform(0.1, 0.8, size=d)
        )
        w2 = GaussianWindowFeature(
            rng.uniform(-1, 1, size=d), rng.uniform(0.1, 0.8, size=d)
        )
        x = rng.uniform(-1.5, 1.5, size=d)
        closed = feature_point_cov(w1, kernel, x[None, :])[0]
        quad = feature_point_cov_quadrature(w1, kernel, x)
        max_fpc = max(max_fpc, abs(closed - quad))
        closed2 = feature_feature_cov(w1, w2, kernel)
        quad2 = feature_feature_cov_quadrature(w1, w2, kernel)
        max_ffc = max(max_ffc, abs(closed2 - quad2))
    max_gh = 0.0
    lik = GaussianNoise(float(rng.uniform(0.05, 0.5)))
    for _ in range(12):
        mu = rng.uniform(-3, 3, size=4)
        var = rng.uniform(0.01, 4.0, size=4)
        y = rng.uniform(-3, 3, size=4)
        closed = lik.variational_expectations(mu, var, y)
        quad = gauss_hermite_expectation(
            lambda f: lik.log_density(f, y[:, None]), mu, var
        )
        max_gh = max(max_gh, float(np.max(np.abs(closed - quad))))
    return {
        "max_feature_point_error": float(max_fpc),
        "max_feature_feature_error": max_ffc,
        "max_gauss_lik_quadrature_error": max_gh,
        "pass": max_fpc <= QUAD_ATOL
        and max_ffc <= QUAD_ATOL
        and max_gh <= GH_GAUSSIAN_ATOL,
    }


def _instance(seed):
    return instance_record(seed)


def _quadrature(seed):
    return quadrature_crosschecks(seed)


def _one_blas_thread():
    """Pool initializer: numpy's and scipy's OpenBLAS on one thread, unless set by the user."""
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        for package, pattern, symbol in (
            (np, "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
            (scipy, "scipy.libs/libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
        ):
            for path in glob.glob(os.path.join(os.path.dirname(package.__path__[0]), pattern)):
                with contextlib.suppress(OSError, AttributeError):
                    set_threads = getattr(ctypes.CDLL(path), symbol)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    set_threads(1)


def run_verification(seed: int = 0, n_instances: int = 100) -> dict:
    """The whole battery; ``all_pass`` gates the CLI exit status.

    The instances are independent, so they run in a pool of forked
    workers, one per available CPU, and come back in seed order; the
    quadrature cross-checks go first and run beside them.  Workers reach
    ``instance_record`` and ``quadrature_crosschecks`` through this
    module's names as bound when the pool forks, so a rebinding made
    before the call reaches them.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be positive, got {n_instances}")
    workers = min(len(os.sched_getaffinity(0)), n_instances)
    # fork, not the platform default: forkserver and spawn re-import this
    # package in each worker and would lose those rebindings.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread) as pool:
        quad_future = pool.submit(_quadrature, seed + 777_777)
        instances = list(
            pool.map(
                _instance,
                range(seed, seed + n_instances),
                chunksize=max(1, n_instances // (CHUNKS_PER_WORKER * workers)),
            )
        )
        quad = quad_future.result()
    all_pass = all(r["pass"] for r in instances) and quad["pass"]
    return {
        "seed": int(seed),
        "n_instances": int(n_instances),
        "all_pass": bool(all_pass),
        "max_equivalence_diff": max(r["max_equivalence_diff"] for r in instances),
        "max_chain_residual": max(r["chain_residual"] for r in instances),
        "max_matched_aug_gap": max(abs(r["aug_matched_gap"]) for r in instances),
        "min_counterexample_gap": min(r["aug_gap"] for r in instances),
        "max_push_diff": max(r["push_diff"] for r in instances),
        "max_union_residual": max(r["union_residual"] for r in instances),
        "quadrature": quad,
        "instances": instances,
    }
