"""Variational state, likelihoods, bound, and collapsed solution.

Quadrature expectations are checked against Monte Carlo with a million
shared draws; the bound is checked against the exact evidence from the
finite world.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln, log_ndtr

from sparsekl.finite_oracle import (
    FiniteModel,
    exact_posterior,
    log_marginal_likelihood,
)
from sparsekl.gaussians import GaussianDist, _chol_with_fallback
from sparsekl.interdomain import GaussianWindowFeature, PointFeature
from sparsekl.kernels import Kernel, kernel_matrix
from sparsekl.svgp import (
    BernoulliProbit,
    GaussianNoise,
    PoissonCounts,
    SVGPState,
    collapsed_bound,
    collapsed_optimal_q,
    elbo,
    expected_log_lik,
    gauss_hermite_expectation,
    likelihood_from_dict,
    likelihood_to_dict,
    load_checkpoint,
    predictive_marginals,
    save_checkpoint,
    to_checkpoint_dict,
)


def make_state(seed=0, n_features=3, likelihood=None, kernel=None):
    rng = np.random.default_rng(seed)
    kernel = kernel or Kernel(variance=1.2, lengthscales=0.8, mean_const=0.1)
    Z = np.sort(rng.uniform(0.0, 4.0, size=n_features))
    W = 0.3 * rng.standard_normal((n_features, n_features))
    cov = W @ W.T + 0.5 * np.eye(n_features)
    L = np.linalg.cholesky(cov)
    return SVGPState(
        features=tuple(PointFeature([z]) for z in Z),
        q_mean=rng.standard_normal(n_features),
        q_chol=L,
        kernel=kernel,
        likelihood=likelihood,
    )


class TestGaussHermite:
    def test_polynomial_moments_exact(self):
        # GH integrates polynomials exactly: E[f^2] = mu^2 + var
        mu, var = 0.7, 1.9
        val = gauss_hermite_expectation(lambda f: f * f, np.array([mu]), np.array([var]))
        assert val[0] == pytest.approx(mu * mu + var, rel=1e-13)

    def test_lognormal_mean(self):
        # E[exp(f)] = exp(mu + var/2)
        mu, var = 0.2, 0.5
        val = gauss_hermite_expectation(np.exp, np.array([mu]), np.array([var]))
        assert val[0] == pytest.approx(math.exp(mu + var / 2), rel=1e-10)

    def test_batched_evaluation(self):
        mus = np.array([-1.0, 0.0, 2.0])
        vars_ = np.array([0.3, 1.0, 2.5])
        vals = gauss_hermite_expectation(lambda f: f, mus, vars_)
        np.testing.assert_allclose(vals, mus, atol=1e-12)


class TestLikelihoods:
    def test_gaussian_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(1)
        lik = GaussianNoise(0.35)
        mu = rng.standard_normal(6)
        var = rng.uniform(0.05, 2.0, size=6)
        y = rng.standard_normal(6)
        closed = lik.variational_expectations(mu, var, y)
        quad = gauss_hermite_expectation(
            lambda f: lik.log_density(f, y[:, None]), mu, var
        )
        np.testing.assert_allclose(closed, quad, atol=1e-10)

    def test_bernoulli_probit_monte_carlo(self):
        rng = np.random.default_rng(2)
        lik = BernoulliProbit()
        n = 1_000_000
        z = rng.standard_normal(n)
        for mu, var, y in [(-0.5, 0.8, 1.0), (1.2, 2.0, -1.0), (0.0, 0.4, 1.0)]:
            f = mu + math.sqrt(var) * z
            draws = log_ndtr(y * f)
            mc, se = np.mean(draws), np.std(draws) / math.sqrt(n)
            quad = lik.variational_expectations(
                np.array([mu]), np.array([var]), np.array([y])
            )[0]
            assert abs(quad - mc) <= 3.0 * se

    def test_bernoulli_saturates_when_certain(self):
        lik = BernoulliProbit()
        val = lik.variational_expectations(
            np.array([10.0]), np.array([0.1]), np.array([1.0])
        )[0]
        assert -1e-10 < val <= 0.0

    def test_bernoulli_rejects_bad_labels(self):
        lik = BernoulliProbit()
        with pytest.raises(ValueError, match="\\+1"):
            lik.validate_targets(np.array([0.0, 1.0]))

    def test_poisson_quadrature_matches_closed_form(self):
        # with a log link the expectation is available in closed form:
        # y (mu + log step) - step exp(mu + var/2) - log y!
        rng = np.random.default_rng(3)
        lik = PoissonCounts(bin_width=0.7)
        for _ in range(10):
            mu = float(rng.uniform(-1.5, 1.5))
            var = float(rng.uniform(0.05, 2.0))
            y = float(rng.integers(0, 6))
            quad = lik.variational_expectations(
                np.array([mu]), np.array([var]), np.array([y])
            )[0]
            closed = (
                y * (mu + math.log(0.7))
                - 0.7 * math.exp(mu + var / 2)
                - gammaln(y + 1)
            )
            assert quad == pytest.approx(closed, rel=1e-8, abs=1e-8)

    def test_poisson_monte_carlo(self):
        rng = np.random.default_rng(4)
        lik = PoissonCounts()
        n = 1_000_000
        z = rng.standard_normal(n)
        mu, var, y = 0.4, 1.1, 2.0
        f = mu + math.sqrt(var) * z
        draws = y * f - np.exp(f) - gammaln(y + 1)
        mc, se = np.mean(draws), np.std(draws) / math.sqrt(n)
        quad = lik.variational_expectations(
            np.array([mu]), np.array([var]), np.array([y])
        )[0]
        assert abs(quad - mc) <= 3.0 * se

    def test_poisson_rejects_bad_counts(self):
        lik = PoissonCounts()
        with pytest.raises(ValueError, match="counts"):
            lik.validate_targets(np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="counts"):
            lik.validate_targets(np.array([1.5]))

    def test_quadrature_order_is_converged(self):
        # doubling the order barely moves the value: below 1e-6 relative
        # for moderate variances, below 2e-4 out to var = 10
        lik = BernoulliProbit()
        for mu in (-5.0, -1.0, 0.0, 2.0, 5.0):
            for var in (0.1, 1.0, 2.0, 5.0, 10.0):
                a = lik.variational_expectations(
                    np.array([mu]), np.array([var]), np.array([1.0]), quad_order=20
                )[0]
                b = lik.variational_expectations(
                    np.array([mu]), np.array([var]), np.array([1.0]), quad_order=40
                )[0]
                budget = 1e-6 if var <= 2.0 else 2e-4
                assert abs(a - b) <= budget * (1.0 + abs(b))

    def test_serialization_roundtrip(self):
        for lik in (GaussianNoise(0.3), BernoulliProbit(), PoissonCounts(0.25)):
            back = likelihood_from_dict(likelihood_to_dict(lik))
            assert type(back) is type(lik)
        with pytest.raises(ValueError, match="unknown likelihood"):
            likelihood_from_dict({"kind": "cauchy"})


class TestState:
    def test_validation(self):
        k = Kernel(variance=1.0, lengthscales=1.0)
        feats = (PointFeature([0.0]), PointFeature([1.0]))
        good_chol = np.array([[1.0, 0.0], [0.3, 0.8]])
        SVGPState(feats, np.zeros(2), good_chol, k)
        with pytest.raises(ValueError, match="lower"):
            SVGPState(feats, np.zeros(2), np.array([[1.0, 0.2], [0.3, 0.8]]), k)
        with pytest.raises(ValueError, match="diagonal"):
            SVGPState(feats, np.zeros(2), np.array([[1.0, 0.0], [0.3, -0.8]]), k)
        with pytest.raises(ValueError, match="at least one"):
            SVGPState((), np.zeros(0), np.zeros((0, 0)), k)
        with pytest.raises(ValueError, match="q_mean"):
            SVGPState(feats, np.zeros(3), good_chol, k)

    def test_q_dist_and_prior(self):
        state = make_state(0)
        q = state.q_dist()
        np.testing.assert_allclose(
            q.cov, state.q_chol @ state.q_chol.T, rtol=1e-14
        )
        prior = state.prior_dist()
        assert prior.dim == len(state.features)


class TestPredictive:
    def test_prior_q_reproduces_prior_predictions(self):
        # with q equal to the prior over u, predictions are the prior
        rng = np.random.default_rng(7)
        k = Kernel(variance=1.5, lengthscales=0.9, mean_const=-0.3)
        Z = np.array([0.0, 1.0, 2.5])
        Kuu = kernel_matrix(k, Z, Z)
        state = SVGPState(
            features=tuple(PointFeature([z]) for z in Z),
            q_mean=np.full(3, -0.3),
            q_chol=np.linalg.cholesky(Kuu + 1e-12 * np.eye(3)),
            kernel=k,
        )
        Xs = rng.uniform(-1.0, 3.5, size=8)
        mean, var = predictive_marginals(state, Xs)
        np.testing.assert_allclose(mean, -0.3, atol=1e-9)
        np.testing.assert_allclose(var, 1.5, atol=1e-7)

    def test_at_feature_locations_recovers_q(self):
        state = make_state(8)
        locs = np.array([f.location for f in state.features])
        mean, var = predictive_marginals(state, locs)
        np.testing.assert_allclose(mean, state.q_mean, rtol=1e-9, atol=1e-10)
        q_cov = state.q_chol @ state.q_chol.T
        np.testing.assert_allclose(var, np.diag(q_cov), rtol=1e-7, atol=1e-9)

    def test_variances_nonnegative(self):
        state = make_state(9, n_features=5)
        _, var = predictive_marginals(state, np.linspace(-5, 9, 50))
        assert np.all(var >= 0.0)

    def test_window_features_accepted(self):
        k = Kernel(variance=1.0, lengthscales=1.0)
        state = SVGPState(
            features=(
                GaussianWindowFeature(center=[0.0], widths=[0.5]),
                PointFeature([1.0]),
            ),
            q_mean=np.array([0.2, -0.1]),
            q_chol=np.array([[0.9, 0.0], [0.1, 0.7]]),
            kernel=k,
        )
        mean, var = predictive_marginals(state, np.array([0.5]))
        assert np.isfinite(mean).all() and np.isfinite(var).all()


class TestBound:
    def test_elbo_is_loglik_minus_kl(self):
        rng = np.random.default_rng(10)
        state = make_state(10, likelihood=GaussianNoise(0.4))
        X = rng.uniform(0, 4, size=12)
        Y = rng.standard_normal(12)
        mean, var = predictive_marginals(state, X)
        from sparsekl.gaussians import mvn_kl

        expected = expected_log_lik(state, X, Y) - mvn_kl(
            state.q_dist(), state.prior_dist()
        )
        assert elbo(state, X, Y) == pytest.approx(expected, rel=1e-12)

    def test_elbo_never_exceeds_evidence(self):
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            k = Kernel(
                variance=float(rng.uniform(0.5, 1.5)),
                lengthscales=float(rng.uniform(0.6, 1.4)),
            )
            X = np.cumsum(rng.uniform(1.0, 2.0, size=6))
            Y = rng.standard_normal(6)
            noise = float(rng.uniform(0.2, 0.8))
            m = FiniteModel.from_kernel(
                k, X, data_idx=range(6), inducing_idx=[0, 3], Y=Y, noise_var=noise
            )
            state = SVGPState(
                features=(PointFeature([X[0]]), PointFeature([X[3]])),
                q_mean=rng.standard_normal(2),
                q_chol=np.array([[0.8, 0.0], [0.2, 0.6]]),
                kernel=k,
                likelihood=GaussianNoise(noise),
            )
            assert elbo(state, X, Y) <= log_marginal_likelihood(m) + 1e-9

    def test_full_inducing_exact_q_recovers_evidence(self):
        # Z = X and q set to the exact posterior: the bound is tight
        rng = np.random.default_rng(11)
        k = Kernel(variance=1.1, lengthscales=1.0, mean_const=0.2)
        X = np.cumsum(rng.uniform(1.2, 2.0, size=5))
        Y = rng.standard_normal(5)
        m = FiniteModel.from_kernel(
            k, X, data_idx=range(5), inducing_idx=range(5), Y=Y, noise_var=0.3
        )
        post = exact_posterior(m)
        state = SVGPState(
            features=tuple(PointFeature([x]) for x in X),
            q_mean=post.mean,
            q_chol=np.linalg.cholesky(post.cov),
            kernel=k,
            likelihood=GaussianNoise(0.3),
        )
        logz = log_marginal_likelihood(m)
        assert elbo(state, X, Y) == pytest.approx(logz, abs=1e-8 * (1 + abs(logz)))


class TestCollapsed:
    def _instance(self, seed, n=8, m_ind=3):
        rng = np.random.default_rng(seed)
        k = Kernel(
            variance=float(rng.uniform(0.5, 2.0)),
            lengthscales=float(rng.uniform(0.6, 1.4)),
            mean_const=float(rng.uniform(-0.5, 0.5)),
        )
        X = np.cumsum(rng.uniform(1.2, 2.0, size=n))
        Y = rng.standard_normal(n) + k.mean_const
        noise = float(rng.uniform(0.2, 0.8))
        feats = tuple(PointFeature([x]) for x in X[:m_ind])
        return k, X, Y, noise, feats

    @staticmethod
    def _state_at(q_u, feats, k, noise):
        return SVGPState(
            features=feats,
            q_mean=q_u.mean,
            q_chol=np.linalg.cholesky(q_u.cov),
            kernel=k,
            likelihood=GaussianNoise(noise),
        )

    def test_optimal_q_attains_collapsed_bound(self):
        for seed in range(10):
            k, X, Y, noise, feats = self._instance(seed)
            q_u = collapsed_optimal_q(feats, k, X, Y, noise)
            direct = elbo(self._state_at(q_u, feats, k, noise), X, Y)
            bound = collapsed_bound(feats, k, X, Y, noise)
            assert direct == pytest.approx(bound, abs=1e-8 * (1 + abs(bound)))

    def test_collapsed_dominates_other_q(self):
        rng = np.random.default_rng(33)
        k, X, Y, noise, feats = self._instance(5)
        best = collapsed_bound(feats, k, X, Y, noise)
        opt = self._state_at(collapsed_optimal_q(feats, k, X, Y, noise), feats, k, noise)
        for _ in range(10):
            jiggle = np.tril(0.1 * rng.standard_normal((len(feats),) * 2), -1)
            perturbed = SVGPState(
                features=feats,
                q_mean=opt.q_mean + 0.3 * rng.standard_normal(len(feats)),
                q_chol=opt.q_chol + jiggle,
                kernel=k,
                likelihood=GaussianNoise(noise),
            )
            assert elbo(perturbed, X, Y) <= best + 1e-10

    def test_full_inducing_collapsed_equals_evidence(self):
        k, X, Y, noise, _ = self._instance(7)
        feats = tuple(PointFeature([x]) for x in X)
        m = FiniteModel.from_kernel(
            k, X, data_idx=range(len(X)), inducing_idx=range(len(X)), Y=Y,
            noise_var=noise,
        )
        logz = log_marginal_likelihood(m)
        assert collapsed_bound(feats, k, X, Y, noise) == pytest.approx(
            logz, abs=1e-8 * (1 + abs(logz))
        )


    def test_optimal_q_attains_bound_under_ill_conditioned_Kuu(self):
        # 20 features on [0, 1] at l=0.3: cond(Kuu) ~ 1e17, so Kuu needs jitter
        rng = np.random.default_rng(0)
        k = Kernel(variance=1.0, lengthscales=0.3)
        X = np.sort(rng.uniform(0.0, 1.0, 1000))
        Y = np.sin(6.0 * X) + 0.3 * rng.standard_normal(1000)
        feats = tuple(PointFeature([z]) for z in np.linspace(0.0, 1.0, 20))
        q_u = collapsed_optimal_q(feats, k, X, Y, 0.1)
        state = SVGPState(
            features=feats,
            q_mean=q_u.mean,
            q_chol=_chol_with_fallback(q_u.cov)[0],
            kernel=k,
            likelihood=GaussianNoise(0.1),
        )
        bound = collapsed_bound(feats, k, X, Y, 0.1)
        assert abs(elbo(state, X, Y) - bound) <= 1e-3

    def test_memory_is_linear_in_n(self):
        rng = np.random.default_rng(1)
        k = Kernel(variance=1.0, lengthscales=0.1)
        X = rng.uniform(0.0, 1.0, 4000)
        Y = np.sin(6.0 * X) + 0.3 * rng.standard_normal(4000)
        feats = tuple(PointFeature([z]) for z in np.linspace(0.0, 1.0, 20))
        tracemalloc.start()
        try:
            collapsed_bound(feats, k, X, Y, 0.1)
            collapsed_optimal_q(feats, k, X, Y, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4000 x 4000 float64 matrix alone is 122 MiB
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("fn", [collapsed_bound, collapsed_optimal_q])
    def test_bad_inputs_raise_named_errors(self, fn):
        k, X, Y, noise, feats = self._instance(0, n=10)
        with pytest.raises(ValueError, match="10 inputs but 9 targets"):
            fn(feats, k, X, Y[:9], noise)
        Y_nan = Y.copy()
        Y_nan[4] = np.nan
        with pytest.raises(ValueError, match="targets must be finite"):
            fn(feats, k, X, Y_nan, noise)
        with pytest.raises(ValueError, match="noise_var must be positive"):
            fn(feats, k, X, Y, 0.0)


class TestCheckpoint:
    def test_roundtrip_is_bit_faithful(self, tmp_path):
        state = make_state(12, likelihood=PoissonCounts(0.5))
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.q_mean, state.q_mean)
        np.testing.assert_array_equal(back.q_chol, state.q_chol)
        assert back.kernel.variance == state.kernel.variance
        np.testing.assert_array_equal(
            back.kernel.lengthscales, state.kernel.lengthscales
        )
        assert back.kernel.mean_const == state.kernel.mean_const
        assert isinstance(back.likelihood, PoissonCounts)
        assert back.likelihood.bin_width == 0.5
        for f_old, f_new in zip(state.features, back.features):
            np.testing.assert_array_equal(f_old.location, f_new.location)

    def test_elbo_identical_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        state = make_state(13, likelihood=GaussianNoise(0.3))
        X = rng.uniform(0, 4, size=10)
        Y = rng.standard_normal(10)
        before = elbo(state, X, Y)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        after = elbo(load_checkpoint(path), X, Y)
        assert before == after

    def test_rejects_unknown_keys(self):
        state = make_state(14)
        d = to_checkpoint_dict(state)
        d["surprise"] = 1
        from sparsekl.svgp import from_checkpoint_dict

        with pytest.raises(ValueError, match="keys"):
            from_checkpoint_dict(d)

    def test_file_is_json(self, tmp_path):
        state = make_state(15)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"features", "q_mean", "q_chol", "kernel", "likelihood"}
