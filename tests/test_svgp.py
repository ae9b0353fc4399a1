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
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, log_ndtr

from sparsekl.finite_oracle import (
    FiniteModel,
    exact_posterior,
    log_marginal_likelihood,
)
from sparsekl.gaussians import (
    GaussianDist,
    NotPositiveDefiniteError,
    cholesky,
    mvn_kl,
    solve_triangular,
)
from sparsekl.interdomain import GaussianWindowFeature, PointFeature, assemble_Kuu
from sparsekl.kernels import Kernel, kernel_matrix
from sparsekl.svgp import (
    BernoulliProbit,
    GaussianNoise,
    PoissonCounts,
    SVGPState,
    WhitenedState,
    collapsed_bound,
    collapsed_bound_and_grad,
    collapsed_optimal_q,
    elbo,
    gauss_hermite_expectation,
    likelihood_from_dict,
    likelihood_to_dict,
    load_checkpoint,
    predictive_marginals,
    save_checkpoint,
    to_checkpoint_dict,
    _solve_t,
    _WhitenedPass,
)
from sparsekl.verify import EQUIVALENCE_RTOL


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

    @pytest.mark.parametrize("make", [GaussianNoise, PoissonCounts])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_parameter_outside_the_positive_reals_is_rejected(self, make, value):
        with pytest.raises(ValueError, match="must be positive"):
            make(value)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_poisson_rejects_non_finite_counts(self, bad):
        with pytest.raises(ValueError, match="counts must be finite"):
            PoissonCounts().validate_targets([1.0, bad])

    def test_quadrature_rejects_a_nan_variance(self):
        with pytest.raises(ValueError, match="NaN"):
            gauss_hermite_expectation(np.sin, [0.0, 1.0], [math.nan, 1.0])


def _likelihood_case(kind, rng, n):
    """A likelihood and targets of its kind for ``n`` points."""
    if kind == "gaussian":
        return GaussianNoise(0.37), rng.standard_normal(n)
    if kind == "probit":
        return BernoulliProbit(), np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    return PoissonCounts(0.7), rng.poisson(2.0, n).astype(float)


class TestMoments:
    """``moments`` against its value part and central differences of it."""

    STEP = 1e-5

    @pytest.mark.parametrize("kind", ["gaussian", "probit", "poisson"])
    @pytest.mark.parametrize("seed", range(3))
    def test_values_and_derivatives(self, kind, seed):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-3.0, 3.0, 40)
        var = rng.uniform(0.05, 3.0, 40)
        lik, y = _likelihood_case(kind, rng, 40)
        values, d_mu, d_var, d_params = lik.moments(mu, var, y)
        assert values.tobytes() == lik.variational_expectations(mu, var, y).tobytes()
        h, expect = self.STEP, lik.variational_expectations
        fd_mu = (expect(mu + h, var, y) - expect(mu - h, var, y)) / (2 * h)
        fd_var = (expect(mu, var + h, y) - expect(mu, var - h, y)) / (2 * h)
        np.testing.assert_allclose(d_mu, fd_mu, rtol=1e-7, atol=1e-8)
        np.testing.assert_allclose(d_var, fd_var, rtol=1e-7, atol=1e-8)
        if kind == "gaussian":
            nv = lik.noise_var
            fd_noise = (
                math.fsum(GaussianNoise(nv + h).variational_expectations(mu, var, y))
                - math.fsum(GaussianNoise(nv - h).variational_expectations(mu, var, y))
            ) / (2 * h)
            assert d_params["noise_var"] == pytest.approx(fd_noise, rel=1e-7)
        else:
            assert d_params == {}

    @pytest.mark.parametrize("kind", ["probit", "poisson"])
    def test_quadrature_reports_zero_variance_derivative_at_zero_variance(self, kind):
        rng = np.random.default_rng(9)
        lik, y = _likelihood_case(kind, rng, 10)
        mu = rng.uniform(-2.0, 2.0, 10)
        _, _, d_var, _ = lik.moments(mu, np.zeros(10), y)
        assert (d_var == 0.0).all()

    def test_checkpoint_with_nan_noise_does_not_load(self, tmp_path):
        # json accepts NaN; a state built from it would give elbo nan
        record = to_checkpoint_dict(make_state(16, likelihood=GaussianNoise(0.3)))
        record["likelihood"]["noise_var"] = math.nan
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        with pytest.raises(ValueError, match="noise_var must be positive"):
            load_checkpoint(path)

    def test_serialization_roundtrip(self):
        for lik in (GaussianNoise(0.3), BernoulliProbit(), PoissonCounts(0.25)):
            back = likelihood_from_dict(likelihood_to_dict(lik))
            assert type(back) is type(lik)
        with pytest.raises(ValueError, match="unknown likelihood"):
            likelihood_from_dict({"kind": "cauchy"})

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"noise_var": 0.1}, "must be a dict with a 'kind'"),
            ({"kind": "gaussian", "noise_var": 0.1, "extra": 1}, "malformed gaussian"),
            ({"kind": "gaussian"}, "malformed gaussian"),
            ({"kind": "bernoulli", "bin_width": 1.0}, "malformed bernoulli"),
            ({"kind": "poisson", "bin_width": 1.0, "extra": 1}, "malformed poisson"),
            ({"kind": "gaussian", "noise_var": None}, "malformed gaussian"),
            ({"kind": "poisson", "bin_width": None}, "malformed poisson"),
        ],
        ids=[
            "no-kind", "gaussian-extra", "gaussian-no-noise", "bernoulli-extra", "poisson-extra",
            "gaussian-null-noise", "poisson-null-bin-width",
        ],
    )
    def test_malformed_record_is_rejected(self, record, message):
        with pytest.raises(ValueError, match=message):
            likelihood_from_dict(record)


class TestPublicMomentChecks:
    """The public moment routines reject what the fit's own pass never produces:
    a NaN or negative variance, means and variances of different shapes, and
    targets that the likelihood rejects or that do not match the means."""

    @pytest.mark.parametrize(
        "lik, mu, var, y, message",
        [
            (BernoulliProbit(), [0.0], [math.nan], [1.0], "must not be NaN"),
            (PoissonCounts(), [0.0], [math.nan], [1.0], "must not be NaN"),
            (GaussianNoise(0.1), [0.0], [-1.0], [1.0], "must be nonnegative"),
            (GaussianNoise(0.1), [0.0, 1.0], [1.0], [1.0, 2.0], r"mu shape \(2,\) != var shape \(1,\)"),
            (GaussianNoise(0.1), [0.0, 1.0], [1.0, 1.0], [1.0], r"y shape \(1,\) != mu shape \(2,\)"),
            (BernoulliProbit(), [0.0, 1.0], [1.0, 1.0], [1.0], r"y shape \(1,\) != mu shape \(2,\)"),
            (PoissonCounts(1.0), [0.0, 1.0], [1.0, 1.0], [1.0], r"y shape \(1,\) != mu shape \(2,\)"),
            (BernoulliProbit(), [0.0], [1.0], [0.5], "labels must be -1 or"),
            (PoissonCounts(1.0), [0.0], [1.0], [-1.0], "counts must be finite nonnegative"),
            (GaussianNoise(0.1), [0.0], [1.0], [math.nan], "targets must be finite"),
        ],
        ids=[
            "probit-nan",
            "poisson-nan",
            "gaussian-negative",
            "gaussian-shapes",
            "gaussian-target-length",
            "probit-target-length",
            "poisson-target-length",
            "probit-label",
            "poisson-negative-count",
            "gaussian-nan-target",
        ],
    )
    def test_variational_expectations_reject(self, lik, mu, var, y, message):
        with pytest.raises(ValueError, match=message):
            lik.variational_expectations(mu, var, y)


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

    def test_every_entry_above_the_diagonal_is_checked(self):
        k = Kernel(variance=1.0, lengthscales=1.0)
        feats = tuple(PointFeature([float(z)]) for z in range(4))
        chol = np.tril(np.full((4, 4), 0.5)) + np.eye(4)
        SVGPState(feats, np.zeros(4), chol, k)
        for i, j in zip(*np.triu_indices(4, 1)):
            for value in (1e-300, -2.0, np.nan):
                bad = chol.copy()
                bad[i, j] = value
                with pytest.raises(ValueError, match="lower triangular"):
                    SVGPState(feats, np.zeros(4), bad, k)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["q_mean", "q_chol"])
    def test_non_finite_q_is_named(self, field, value):
        k = Kernel(variance=1.0, lengthscales=1.0)
        feats = (PointFeature([0.0]), PointFeature([1.0]))
        q = {"q_mean": np.zeros(2), "q_chol": np.array([[1.0, 0.0], [0.3, 0.8]])}
        q[field][-1] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SVGPState(feats, q["q_mean"], q["q_chol"], k)

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
        # the dense route through the prior the pass factors, Kuu at the
        # fixed jitter: at the features themselves Kfu is Kuu unjittered
        prior = state.prior_dist()
        Kfu = kernel_matrix(state.kernel, locs, locs)
        W = np.linalg.solve(prior.cov, Kfu.T).T
        q_cov = state.q_chol @ state.q_chol.T
        expected_mean = prior.mean + W @ (state.q_mean - prior.mean)
        expected_var = state.kernel.variance - np.diag(W @ Kfu.T) + np.diag(W @ q_cov @ W.T)
        np.testing.assert_allclose(mean, expected_mean, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(var, expected_var, rtol=1e-7, atol=1e-9)

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


class TestSolveT:
    """``_solve_t``: ``Luu^-T B`` column by column, NaN where ``B`` is not finite."""

    @staticmethod
    def factor(M, seed):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((M, M))
        return cholesky(W @ W.T + M * np.eye(M)), rng

    def test_finite_columns_equal_the_solve_and_the_others_are_nan(self):
        L, rng = self.factor(5, 0)
        B = rng.standard_normal((5, 7))
        B[2, 1], B[0, 4], B[3, 4], B[4, 6] = np.inf, np.nan, -np.inf, np.nan
        before = B.copy()
        out = _solve_t(L, B)
        finite = np.array([True, False, True, True, False, True, False])
        assert np.isnan(out[:, ~finite]).all()
        expected = solve_triangular(L, np.where(finite, B, 0.0), lower=True, trans=1)
        np.testing.assert_array_equal(out[:, finite], expected[:, finite])
        np.testing.assert_array_equal(B, before)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_all_finite_equals_the_solve_bit_for_bit(self, transposed):
        # the reverse pass also hands it a transposed, F-ordered product
        L, rng = self.factor(6, 1)
        B = rng.standard_normal((6, 6))
        B = B.T if transposed else B
        np.testing.assert_array_equal(_solve_t(L, B), solve_triangular(L, B, lower=True, trans=1))


class TestWhitenedKL:
    """The KL taken from the shared factor of Kuu against the dense route."""

    @staticmethod
    def whitened_kl(state):
        return _WhitenedPass.at_state(state, np.zeros((0, state.kernel.input_dim))).kl

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.booleans())
    def test_matches_mvn_kl(self, seed, window):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(1, 8))
        k = Kernel(
            variance=rng.uniform(0.5, 2.0),
            lengthscales=rng.uniform(0.3, 1.0),
            mean_const=rng.normal(),
        )
        Z = np.sort(rng.uniform(0.0, 4.0, M))
        if window:
            feats = [GaussianWindowFeature([z], [rng.uniform(0.05, 0.5)]) for z in Z]
        else:
            feats = [PointFeature([z]) for z in Z]
        W = 0.4 * rng.standard_normal((M, M))
        state = SVGPState(
            features=feats,
            q_mean=rng.standard_normal(M),
            q_chol=np.linalg.cholesky(W @ W.T + rng.uniform(0.1, 1.0) * np.eye(M)),
            kernel=k,
        )
        expected = mvn_kl(state.q_dist(), state.prior_dist())
        assert self.whitened_kl(state) == pytest.approx(expected, rel=EQUIVALENCE_RTOL)

    def test_matches_mvn_kl_when_Kuu_needs_jitter(self):
        # a repeated feature makes Kuu singular
        k = Kernel(variance=1.0, lengthscales=0.3)
        feats = [PointFeature([z]) for z in (0.0, 0.2, 0.2, 0.5, 0.9)]
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(assemble_Kuu(feats, k))
        state = SVGPState(
            features=feats,
            q_mean=np.array([0.1, -0.3, 0.2, 0.4, 0.0]),
            q_chol=np.diag([0.5, 0.4, 0.6, 0.3, 0.7]),
            kernel=k,
        )
        expected = mvn_kl(state.q_dist(), state.prior_dist())
        assert self.whitened_kl(state) == pytest.approx(expected, rel=EQUIVALENCE_RTOL)


class TestBound:
    def test_elbo_is_loglik_minus_kl(self):
        rng = np.random.default_rng(10)
        state = make_state(10, likelihood=GaussianNoise(0.4))
        X = rng.uniform(0, 4, size=12)
        Y = rng.standard_normal(12)
        mean, var = predictive_marginals(state, X)
        from sparsekl.gaussians import mvn_kl

        data = math.fsum(state.likelihood.variational_expectations(mean, var, Y))
        expected = data - mvn_kl(state.q_dist(), state.prior_dist())
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

    def test_optimal_q_attains_collapsed_bound(self):
        for seed in range(10):
            k, X, Y, noise, feats = self._instance(seed)
            direct = elbo(collapsed_optimal_q(feats, k, X, Y, noise).to_state(), X, Y)
            bound = collapsed_bound(feats, k, X, Y, noise)
            assert direct == pytest.approx(bound, abs=1e-8 * (1 + abs(bound)))

    def test_optimal_q_is_a_lower_triangular_whitened_state(self, monkeypatch):
        # as collapsed_optimal_q returns it and as the collapsed pass receives it
        halves = []
        real = _WhitenedPass.__init__
        monkeypatch.setattr(
            _WhitenedPass, "__init__", lambda self, f, a, h: halves.append(h) or real(self, f, a, h)
        )
        for seed in range(5):
            k, X, Y, noise, feats = self._instance(seed)
            q = collapsed_optimal_q(feats, k, X, Y, noise)
            assert isinstance(q, WhitenedState)
            halves.append(q.half)
            collapsed_bound_and_grad(q, X, Y)
        assert len(halves) == 10
        for half in halves:
            assert (np.triu(half, 1) == 0.0).all() and (half.diagonal() > 0.0).all()

    def test_collapsed_dominates_other_q(self):
        rng = np.random.default_rng(33)
        k, X, Y, noise, feats = self._instance(5)
        best = collapsed_bound(feats, k, X, Y, noise)
        opt = collapsed_optimal_q(feats, k, X, Y, noise).to_state()
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
        state = collapsed_optimal_q(feats, k, X, Y, 0.1).to_state()
        bound = collapsed_bound(feats, k, X, Y, 0.1)
        assert abs(elbo(state, X, Y) - bound) <= 1e-8 * (1 + abs(bound))

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

    def test_elbo_needs_a_likelihood(self):
        k, X, Y, _, feats = self._instance(0, n=10)
        M = len(feats)
        state = SVGPState(feats, np.zeros(M), np.eye(M), k)
        with pytest.raises(ValueError, match="no likelihood given and the state carries none"):
            elbo(state, X, Y)

    def test_bound_and_grad_needs_gaussian_noise(self):
        k, X, Y, _, feats = self._instance(0, n=10)
        M = len(feats)
        state = SVGPState(feats, np.zeros(M), np.eye(M), k, BernoulliProbit())
        with pytest.raises(ValueError, match="needs Gaussian noise"):
            collapsed_bound_and_grad(state, X, np.sign(Y))


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

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda d: d["kernel"].pop("mean_const"), "malformed kernel record"),
            (lambda d: d["kernel"].update(shape=3.0), "malformed kernel record"),
            (lambda d: d["kernel"].update(variance=None), "malformed kernel record"),
            (lambda d: d.update(features=None), "malformed features record"),
        ],
        ids=["missing", "extra", "null-variance", "null-features"],
    )
    def test_rejects_malformed_kernel_record(self, change, message):
        from sparsekl.svgp import from_checkpoint_dict

        d = to_checkpoint_dict(make_state(14))
        change(d)
        with pytest.raises(ValueError, match=message):
            from_checkpoint_dict(d)

    def test_nan_token_in_checkpoint_is_rejected(self, tmp_path):
        # Python's json reads a bare NaN token, so the state has to reject it
        d = to_checkpoint_dict(make_state(16))
        d["q_mean"][0] = math.nan
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert "NaN" in path.read_text(encoding="utf-8")
        with pytest.raises(ValueError, match="q_mean must be finite"):
            load_checkpoint(path)

    def test_file_is_json(self, tmp_path):
        state = make_state(15)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"features", "q_mean", "q_chol", "kernel", "likelihood"}
