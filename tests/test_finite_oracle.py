"""Brute-force world: every identity checked against independent routes.

Oracles used here: grid-quadrature Bayes posteriors, Monte Carlo
evidence estimates, and hand-computed conjugate formulas.  The sparse
bounds and KL identities are then tested against the exact finite
answers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from sparsekl.finite_oracle import (
    ApproxPosterior,
    FiniteModel,
    augmentation_gap,
    check_finite_equivalence,
    collapsed_bound_dense,
    deterministic_union_kl,
    exact_posterior,
    extend_approx,
    full_kl,
    kl_chain_rule_decompose,
    log_marginal_likelihood,
    noisy_copy_conditional,
    pushforward_check,
    titsias_kl,
)
from sparsekl.gaussians import (
    GaussianDist,
    conditional_from_joint,
    mvn_kl,
    mvn_marginal,
)
from sparsekl.interdomain import PointFeature
from sparsekl.kernels import Kernel
from sparsekl.svgp import collapsed_bound
from sparsekl.verify import (
    EQUIVALENCE_RTOL,
    REGIMES,
    random_finite_instance,
    random_gaussian_pair,
)

# log evidence of one observation y=0 under prior N(0,1) and unit noise:
# log N(0; 0, 2)
CONJUGATE_LOGZ = -1.2655121234846454


def conjugate_model(y=0.0):
    k = Kernel(variance=1.0, lengthscales=1.0)
    return FiniteModel.from_kernel(
        k, [0.0], data_idx=[0], inducing_idx=[0], Y=[y], noise_var=1.0
    )


class TestExactPosterior:
    def test_conjugate_single_point(self):
        # prior N(0,1), noise 1, y=1: posterior N(1/2, 1/2)
        post = exact_posterior(conjugate_model(y=1.0))
        assert post.mean[0] == pytest.approx(0.5, abs=1e-14)
        assert post.cov[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_against_grid_bayes_oracle(self):
        # brute-force posterior moments by quadrature over a dense f grid
        rng = np.random.default_rng(0)
        k = Kernel(variance=1.3, lengthscales=0.9, mean_const=0.4)
        X = np.array([0.0, 1.1, 2.3])
        m = FiniteModel.from_kernel(
            k, X, data_idx=[0, 2], inducing_idx=[1], Y=[1.2, -0.3], noise_var=0.5
        )
        post = exact_posterior(m)

        prior = m.prior
        sds = np.sqrt(np.diag(prior.cov))
        axes = [
            np.linspace(mu - 6.0 * s, mu + 6.0 * s, 65)
            for mu, s in zip(prior.mean, sds)
        ]
        grid = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        alpha = solve_triangular(prior.chol, (grid - prior.mean).T, lower=True)
        log_prior = -0.5 * np.sum(alpha * alpha, axis=0)
        resid = grid[:, [0, 2]] - np.array([1.2, -0.3])
        log_lik = -0.5 * np.sum(resid * resid, axis=1) / 0.5
        w = np.exp(log_prior + log_lik - np.max(log_prior + log_lik))
        w /= np.sum(w)
        mean_grid = w @ grid
        centered = grid - mean_grid
        cov_grid = (w[:, None] * centered).T @ centered
        np.testing.assert_allclose(post.mean, mean_grid, atol=2e-6)
        np.testing.assert_allclose(post.cov, cov_grid, atol=2e-5)

    def test_posterior_mean_interpolates_toward_data(self):
        rng = np.random.default_rng(1)
        m, _ = random_finite_instance(3, regime="subset")
        post = exact_posterior(m)
        # conditioning reduces marginal variance everywhere
        assert np.all(np.diag(post.cov) <= np.diag(m.prior.cov) + 1e-12)


class TestLogMarginalLikelihood:
    def test_conjugate_value(self):
        assert log_marginal_likelihood(conjugate_model()) == pytest.approx(
            CONJUGATE_LOGZ, abs=1e-14
        )

    def test_monte_carlo_oracle(self):
        # log Z = log E_prior[ prod_i N(y_i | f_i, noise) ]
        m, _ = random_finite_instance(7, regime="disjoint")
        exact = log_marginal_likelihood(m)
        rng = np.random.default_rng(123)
        n = 2_000_000
        data = np.asarray(m.data_idx, dtype=int)
        prior_d = mvn_marginal(m.prior, data)
        f = prior_d.mean + rng.standard_normal((n, data.size)) @ prior_d.chol.T
        resid = f - m.Y
        logw = np.sum(
            -0.5 * resid * resid / m.noise_var
            - 0.5 * math.log(2 * math.pi * m.noise_var),
            axis=1,
        )
        mc = logsumexp(logw) - math.log(n)
        shifted = np.exp(logw - logw.max())
        se = np.std(shifted) / (np.mean(shifted) * math.sqrt(n))
        assert abs(mc - exact) <= 3.0 * se


class TestThreeWayEquivalence:
    def test_all_regimes_small_sweep(self):
        for seed in range(30):
            m, q = random_finite_instance(seed)
            rep = check_finite_equivalence(m, q)
            tol = 1e-8 * (1.0 + abs(rep.full))
            assert rep.max_abs_diff <= tol, (seed, rep)

    def test_routes_are_plain_floats(self):
        m, q = random_finite_instance(0)
        rep = check_finite_equivalence(m, q)
        assert rep.full >= 0.0 and rep.titsias >= 0.0

    def test_union_route_matches_full_without_kernel(self):
        # the two KL routes work on any explicit prior, kernel or not
        rng = np.random.default_rng(5)
        W = rng.standard_normal((5, 5))
        prior = GaussianDist(rng.standard_normal(5), W @ W.T + 2.0 * np.eye(5))
        m = FiniteModel(
            np.arange(5.0), (0, 3), (4, 1), prior, rng.standard_normal(2), 0.4
        )
        q_cov = np.array([[0.7, 0.2], [0.2, 0.9]])
        q = ApproxPosterior(GaussianDist(np.array([0.3, -0.5]), q_cov))
        assert titsias_kl(m, q) == pytest.approx(full_kl(m, q), rel=1e-9, abs=1e-11)

    def test_kernel_required_for_bound_route(self):
        rng = np.random.default_rng(6)
        prior = GaussianDist(np.zeros(3), np.eye(3))
        m = FiniteModel(np.arange(3.0), (0,), (1,), prior, [0.1], 1.0)
        q = ApproxPosterior(GaussianDist([0.0], [[1.0]]))
        with pytest.raises(ValueError, match="kernel"):
            check_finite_equivalence(m, q)


class TestCollapsedBoundRoutes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.sampled_from(REGIMES))
    def test_whitened_bound_matches_dense_oracle(self, seed, regime):
        m, _ = random_finite_instance(seed, regime)
        z = np.asarray(m.inducing_idx, dtype=int)
        data = np.asarray(m.data_idx, dtype=int)
        feats = tuple(PointFeature(loc) for loc in m.X[z])
        dense = collapsed_bound_dense(m)
        sparse = collapsed_bound(feats, m.kernel, m.X[data], m.Y, m.noise_var)
        assert sparse == pytest.approx(dense, rel=EQUIVALENCE_RTOL)
        if regime == "equal":
            # inducing set = data set: Qff = K_DD, so the bound is the evidence
            assert dense == pytest.approx(log_marginal_likelihood(m), rel=EQUIVALENCE_RTOL)


class TestExtension:
    def test_marginal_on_inducing_block_is_q(self):
        m, q = random_finite_instance(11, regime="disjoint")
        ext = extend_approx(m, q)
        got = mvn_marginal(ext, list(m.inducing_idx))
        np.testing.assert_allclose(got.mean, q.q_u.mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got.cov, q.q_u.cov, rtol=1e-10, atol=1e-12)

    def test_conditional_beyond_inducing_is_prior(self):
        m, q = random_finite_instance(12, regime="disjoint")
        ext = extend_approx(m, q)
        z = list(m.inducing_idx)
        rest = [i for i in range(m.n_points) if i not in z]
        cond_ext = conditional_from_joint(ext, rest, z)
        cond_prior = conditional_from_joint(m.prior, rest, z)
        np.testing.assert_allclose(
            cond_ext.weights, cond_prior.weights, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            cond_ext.offset, cond_prior.offset, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(cond_ext.cov, cond_prior.cov, rtol=1e-7, atol=1e-9)

    def test_unordered_inducing_set_handled(self):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((4, 4))
        prior = GaussianDist(rng.standard_normal(4), W @ W.T + 2.0 * np.eye(4))
        q_u = GaussianDist(
            rng.standard_normal(4), np.diag(rng.uniform(0.5, 1.5, size=4))
        )
        m = FiniteModel(
            np.arange(4.0), (0,), (2, 0, 3, 1), prior, [0.0], 1.0
        )
        ext = extend_approx(m, ApproxPosterior(q_u))
        # coordinate i of the extension is component of q at the position
        # where i appears in the inducing tuple
        for pos, idx in enumerate(m.inducing_idx):
            assert ext.mean[idx] == q_u.mean[pos]
            assert ext.cov[idx, idx] == q_u.cov[pos, pos]


class TestDataSetVsIndexSet:
    def test_marginal_kl_on_data_matches_full_when_inducing_in_data(self):
        # with Z inside D the divergence is carried entirely by the data
        # marginals
        for seed in range(10):
            m, q = random_finite_instance(seed, regime="subset")
            ext = extend_approx(m, q)
            post = exact_posterior(m)
            d = list(m.data_idx)
            kl_d = mvn_kl(mvn_marginal(ext, d), mvn_marginal(post, d))
            assert kl_d == pytest.approx(full_kl(m, q), rel=1e-8, abs=1e-9)

    def test_marginal_kl_on_data_strictly_below_full_otherwise(self):
        # disjoint Z: information in the inducing block is invisible to
        # the data marginals, so the data-set KL undercounts
        m, q = random_finite_instance(2, regime="disjoint")
        ext = extend_approx(m, q)
        post = exact_posterior(m)
        d = list(m.data_idx)
        kl_d = mvn_kl(mvn_marginal(ext, d), mvn_marginal(post, d))
        kl_full = full_kl(m, q)
        assert kl_d <= kl_full + 1e-12
        assert kl_full - kl_d > 1e-6


class TestChainRule:
    def test_sum_reproduces_joint_kl(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            dim = int(rng.integers(2, 9))
            q, p = random_gaussian_pair(rng, dim)
            cut = int(rng.integers(1, dim))
            perm = rng.permutation(dim)
            u_idx, v_idx = perm[:cut], perm[cut:]
            dec = kl_chain_rule_decompose(q, p, u_idx, v_idx)
            direct = mvn_kl(q, p)
            assert dec.total == pytest.approx(direct, abs=1e-9 * (1 + abs(direct)))
            assert dec.conditional_term >= 0.0
            assert dec.marginal_term >= 0.0

    def test_independent_blocks_have_zero_conditional_term(self):
        # block-diagonal case: conditionals agree iff the U blocks agree
        cov_u = np.array([[1.0]])
        q = GaussianDist([0.0, 1.0], np.diag([1.0, 2.0]))
        p = GaussianDist([0.0, 0.0], np.diag([1.0, 1.0]))
        dec = kl_chain_rule_decompose(q, p, [0], [1])
        assert dec.conditional_term == pytest.approx(0.0, abs=1e-14)
        assert dec.marginal_term == pytest.approx(
            mvn_kl(GaussianDist([1.0], [[2.0]]), GaussianDist([0.0], [[1.0]])),
            rel=1e-12,
        )

    def test_partition_validation(self):
        q = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="partition"):
            kl_chain_rule_decompose(q, q, [0], [1])
        with pytest.raises(ValueError, match="partition"):
            kl_chain_rule_decompose(q, q, [0, 1], [1, 2])


class TestAugmentation:
    def test_matched_conditionals_leave_kl_unchanged(self):
        for seed in range(10):
            m, q = random_finite_instance(seed)
            cond = noisy_copy_conditional(m)
            rep = augmentation_gap(m, q, cond, cond)
            assert abs(rep.gap) <= 1e-9 * (1 + abs(rep.kl_X))
            assert rep.kl_union == pytest.approx(
                rep.kl_X, abs=1e-9 * (1 + abs(rep.kl_X))
            )

    def test_doubled_covariance_counterexample(self):
        # same mean map, doubled conditional covariance: the fiber KL is
        # constant, |Z| (1 - ln 2) / 2, and the marginals on X still agree
        for seed in (0, 4, 8):
            m, q = random_finite_instance(seed)
            nz = len(m.inducing_idx)
            matched = noisy_copy_conditional(m)
            doubled = noisy_copy_conditional(m, cov_scale=2.0)
            rep = augmentation_gap(m, q, doubled, matched)
            expected = nz * (1.0 - math.log(2.0)) / 2.0
            assert rep.gap == pytest.approx(expected, abs=1e-9)
            assert rep.gap > 0.01

    def test_gap_is_never_negative(self):
        rng = np.random.default_rng(30)
        for seed in range(8):
            m, q = random_finite_instance(seed)
            scale = float(rng.uniform(0.3, 3.0))
            rep = augmentation_gap(m, q, noisy_copy_conditional(m, scale))
            assert rep.gap >= -1e-10


class TestPushforward:
    def test_selection_map(self):
        m, q = random_finite_instance(40)
        q_X = extend_approx(m, q)
        n = m.n_points
        sel = np.zeros((2, n))
        sel[0, 0] = 1.0
        sel[1, n - 1] = 1.0
        rep = pushforward_check(q_X, sel)
        assert rep.max_diff <= 1e-9

    def test_averaging_map(self):
        m, q = random_finite_instance(41)
        q_X = extend_approx(m, q)
        avg = np.full((1, m.n_points), 1.0 / m.n_points)
        rep = pushforward_check(q_X, avg)
        assert rep.max_diff <= 1e-9
        expected_mean = float(np.mean(q_X.mean))
        assert rep.pushforward.mean[0] == pytest.approx(expected_mean, rel=1e-12)

    def test_random_full_rank_maps(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            a = int(rng.integers(1, n))
            q_X, _ = random_gaussian_pair(rng, n)
            A = rng.standard_normal((a, n))
            rep = pushforward_check(q_X, A)
            assert rep.max_diff <= 1e-9

    def test_rank_deficient_map_rejected(self):
        q_X = GaussianDist(np.zeros(3), np.eye(3))
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="rank"):
            pushforward_check(q_X, A)
        with pytest.raises(ValueError, match="rank"):
            pushforward_check(q_X, np.zeros((1, 3)))

    def test_more_rows_than_columns_rejected(self):
        q_X = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="rows"):
            pushforward_check(q_X, np.eye(3)[:, :2].T.T)


class TestDeterministicUnion:
    def test_union_kl_equals_base_kl(self):
        rng = np.random.default_rng(50)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            a = int(rng.integers(1, n))
            q_X, p_X = random_gaussian_pair(rng, n)
            A = rng.standard_normal((a, n))
            out = deterministic_union_kl(q_X, p_X, A)
            assert out["kl_union"] == pytest.approx(
                out["kl_X"], abs=1e-9 * (1 + abs(out["kl_X"]))
            )

    def test_square_invertible_map(self):
        rng = np.random.default_rng(51)
        q_X, p_X = random_gaussian_pair(rng, 4)
        A = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        out = deterministic_union_kl(q_X, p_X, A)
        assert out["kl_union"] == pytest.approx(out["kl_X"], rel=1e-9)

    def test_grid_functional_weight_row(self):
        # a counting-measure approximation of a window feature is just a
        # weight row; the union identity holds for it like any other map
        rng = np.random.default_rng(52)
        q_X, p_X = random_gaussian_pair(rng, 30)
        grid = np.linspace(-3.0, 3.0, 30)
        w = np.exp(-0.5 * ((grid - 0.3) / 0.5) ** 2)
        w = (w / np.sum(w))[None, :]
        out = deterministic_union_kl(q_X, p_X, w)
        assert out["kl_union"] == pytest.approx(
            out["kl_X"], abs=1e-9 * (1 + abs(out["kl_X"]))
        )


class TestModelValidation:
    def test_bad_indices(self):
        prior = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="duplicates"):
            FiniteModel(np.arange(3.0), (0, 0), (1,), prior, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="out of range"):
            FiniteModel(np.arange(3.0), (5,), (1,), prior, [0.0], 1.0)
        with pytest.raises(ValueError, match="nonempty"):
            FiniteModel(np.arange(3.0), (), (1,), prior, [], 1.0)

    def test_bad_shapes_and_noise(self):
        prior = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="observations"):
            FiniteModel(np.arange(3.0), (0, 1), (2,), prior, [0.0], 1.0)
        with pytest.raises(ValueError, match="noise_var"):
            FiniteModel(np.arange(3.0), (0,), (1,), prior, [0.0], 0.0)
        with pytest.raises(ValueError, match="prior"):
            FiniteModel(np.arange(4.0), (0,), (1,), prior, [0.0], 1.0)
