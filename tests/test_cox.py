"""Point-process objective and thinning sampler.

The integral term is checked against quadrature refinement and against
a binned Poisson-counts model on the same grid; the sampler against the
analytic mean count and event distribution.
"""

import math

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from sparsekl import cox
from sparsekl.cox import (
    CoxModel,
    cox_elbo,
    cox_elbo_and_grad,
    cox_elbo_terms,
    expected_log_rate,
    expected_rate,
    fitted_intensity,
    legendre_grid,
    sample_inhomogeneous_pp,
)
from sparsekl.gaussians import mvn_kl
from sparsekl.interdomain import PointFeature
from sparsekl.kernels import Kernel
from sparsekl.svgp import PoissonCounts, SVGPState, elbo, predictive_marginals


def tiny_state(mean_level=0.0, n_features=4, seed=0, spread=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    k = Kernel(variance=0.6, lengthscales=0.4, mean_const=mean_level)
    Z = np.linspace(spread[0] + 0.1, spread[1] - 0.1, n_features)
    W = 0.2 * rng.standard_normal((n_features, n_features))
    cov = W @ W.T + 0.3 * np.eye(n_features)
    return SVGPState(
        features=tuple(PointFeature([z]) for z in Z),
        q_mean=mean_level + 0.3 * rng.standard_normal(n_features),
        q_chol=np.linalg.cholesky(cov),
        kernel=k,
    )


def degenerate_state(level, n_features=3, domain=(0.0, 1.0)):
    # nearly deterministic q pinned at a constant latent level
    k = Kernel(variance=1.0, lengthscales=10.0, mean_const=level)
    Z = np.linspace(domain[0], domain[1], n_features + 2)[1:-1]
    return SVGPState(
        features=tuple(PointFeature([z]) for z in Z),
        q_mean=np.full(n_features, level),
        q_chol=1e-10 * np.eye(n_features),
        kernel=k,
    )


class TestLegendreGrid:
    def test_weights_integrate_constants(self):
        pts, w = legendre_grid([0.0], [2.5], (30,))
        assert np.sum(w) == pytest.approx(2.5, rel=1e-13)
        assert pts.shape == (30, 1)

    def test_polynomial_exactness_2d(self):
        pts, w = legendre_grid([0.0, -1.0], [1.0, 1.0], (8, 8))
        # integral of x^2 y^4 over [0,1] x [-1,1] = (1/3) (2/5)
        val = np.sum(w * pts[:, 0] ** 2 * pts[:, 1] ** 4)
        assert val == pytest.approx(2.0 / 15.0, rel=1e-12)


class TestLinks:
    def test_exp_moments(self):
        mu, var = 0.3, 1.4
        assert expected_rate("exp", np.array([mu]), np.array([var]))[0] == pytest.approx(
            math.exp(mu + var / 2), rel=1e-13
        )
        assert expected_log_rate("exp", np.array([mu]), np.array([var]))[0] == mu

    def test_square_mean_rate(self):
        # E[f^2] = mu^2 + var: at (1, 2) the value is 3
        assert expected_rate("square", np.array([1.0]), np.array([2.0]))[0] == pytest.approx(
            3.0, rel=1e-14
        )

    def test_square_log_rate_monte_carlo_away_from_zero(self):
        # with negligible mass near f = 0 Monte Carlo checks the value directly
        rng = np.random.default_rng(0)
        n = 1_000_000
        z = rng.standard_normal(n)
        for mu, var in [(4.0, 0.25), (-3.0, 0.3), (2.0, 0.1)]:
            f = mu + math.sqrt(var) * z
            draws = np.maximum(np.log(np.maximum(f * f, 1e-300)), -30.0)
            mc, se = np.mean(draws), np.std(draws) / math.sqrt(n)
            quad = expected_log_rate("square", np.array([mu]), np.array([var]))[0]
            assert abs(quad - mc) <= 3.0 * se + 1e-10

    def test_square_log_rate_near_zero_stays_sane(self):
        # mass near f = 0, where log f^2 is singular: the value stays finite
        # and below the Jensen bound
        for mu, var in [(0.0, 0.5), (0.3, 1.0), (-0.1, 0.2)]:
            val = expected_log_rate("square", np.array([mu]), np.array([var]))[0]
            assert -30.0 <= val <= math.log(mu * mu + var)

    @pytest.mark.parametrize("mu", [0.0, 1e-300, -1e-300, 1e-170, 0.5, -3.0])
    def test_square_log_rate_at_zero_variance_is_log_mu_squared(self, mu):
        # f = mu surely: log mu^2, -inf at mu = 0, never NaN in a value or slope
        value = expected_log_rate("square", mu, 0.0)
        assert value == (pytest.approx(2.0 * math.log(abs(mu)), rel=1e-15) if mu else -math.inf)
        with np.errstate(divide="ignore"):
            moments = cox._square_log_moments(np.array([mu]), np.array([0.0]))
        assert not np.isnan(moments).any()

    @staticmethod
    def poisson_series(lam):
        """``sum_j Poisson(j; lam) psi(j + 1/2)`` and ``sum_j Poisson(j; lam) / (j + 1/2)``,
        the value and slope in ``lam`` of ``E[log f^2] - log(2 var)``; the weights come
        by recursion from the mode and are normalized by their sum."""
        mode = int(lam)
        j = np.arange(int(mode + 40.0 * math.sqrt(lam) + 40.0))
        with np.errstate(divide="ignore"):  # log 0 at lam = 0: all weight on j = 0
            log_p = np.concatenate([[0.0], np.cumsum(np.log(lam) - np.log(j[1:]))])
        p = np.exp(log_p - log_p[mode])
        total = math.fsum(p)
        return math.fsum(p * digamma(j + 0.5)) / total, math.fsum(p / (j + 0.5)) / total

    @pytest.mark.parametrize("lam", [0.0, 1e-8, 0.3, 2.0, 30.0, 63.9, 64.0, 64.1, 500.0, 1e4])
    def test_square_log_moments_match_the_poisson_series(self, lam):
        # with lam = mu^2 / (2 var), f^2 / var is noncentral chi-square with one degree of
        # freedom: E[log f^2] = log(2 var) + S(lam), and S'(lam) gives both derivatives
        series, slope = self.poisson_series(lam)
        for var in (0.1, 1.0, 7.0):
            mu = math.sqrt(2.0 * var * lam) * np.array([1.0, -1.0])
            value, d_mu, d_var = cox._log_rate_moments("square", mu, np.full(2, var))
            np.testing.assert_allclose(value, math.log(2.0 * var) + series, rtol=0, atol=1e-12)
            np.testing.assert_allclose(d_mu, mu / var * slope, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(d_var, (1.0 - lam * slope) / var, rtol=1e-12, atol=1e-12)

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="link"):
            expected_rate("cube", np.array([0.0]), np.array([1.0]))


class TestPublicLinkMomentChecks:
    """The public link moments reject a NaN or negative variance, which the fit's
    own pass never produces."""

    def test_expected_log_rate_rejects_a_nan_variance(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            expected_log_rate("exp", [0.0], [math.nan])

    def test_expected_rate_rejects_a_negative_variance(self):
        # the square link would give E[f^2] = -1, a negative rate
        with pytest.raises(ValueError, match="must be nonnegative"):
            expected_rate("square", [0.0], [-1.0])


class TestCoxModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="volume|upper"):
            CoxModel([0.0], [0.0], np.zeros((0, 1)))
        with pytest.raises(ValueError, match="inside"):
            CoxModel([0.0], [1.0], [[2.0]])
        with pytest.raises(ValueError, match="link"):
            CoxModel([0.0], [1.0], [[0.5]], link="cauchy")
        with pytest.raises(ValueError, match="dimension|shape"):
            CoxModel([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], np.zeros((0, 3)))
        with pytest.raises(ValueError, match="order"):
            CoxModel([0.0], [1.0], [[0.5]], quad_orders=(1,))
        # a fractional order is rejected, not truncated to a coarser grid
        with pytest.raises(ValueError, match="integer quadrature order"):
            CoxModel([0.0], [1.0], [[0.5]], quad_orders=(2.7,))

    def test_empty_events_allowed(self):
        m = CoxModel([0.0], [1.0], [])
        assert m.n_events == 0
        state = tiny_state()
        terms = cox_elbo_terms(state, m)
        assert terms.event_term == 0.0
        assert terms.integral_term > 0.0

    def test_grid_is_built_once_per_model(self, monkeypatch):
        calls = []
        original = cox.legendre_grid

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cox, "legendre_grid", counting)
        model = CoxModel([0.0], [1.0], [[0.2], [0.7]], quad_orders=(12,))
        state = tiny_state()
        first = cox_elbo(state, model)
        assert cox_elbo(state, model) == first
        cox_elbo_and_grad(state, model)
        cox_elbo_terms(state, model)
        assert len(calls) == 1
        pts, wts = model.grid
        assert not pts.flags.writeable and not wts.flags.writeable
        CoxModel([0.0], [1.0], [[0.5]]).grid
        assert len(calls) == 2

    def test_default_quad_orders(self):
        assert CoxModel([0.0], [1.0], []).quad_orders == (50,)
        m2 = CoxModel([0.0, 0.0], [1.0, 1.0], np.zeros((0, 2)))
        assert m2.quad_orders == (20, 20)


class TestCoxObjective:
    def test_terms_assemble_to_elbo(self):
        state = tiny_state(seed=1)
        model = CoxModel([0.0], [1.0], [[0.2], [0.5], [0.9]])
        t = cox_elbo_terms(state, model)
        assert cox_elbo(state, model) == t.kl_term * -1.0 + t.event_term - t.integral_term

    def test_degenerate_constant_rate(self):
        # latent pinned at log(c): event term n log c, integral c * vol
        c = 7.0
        state = degenerate_state(math.log(c), domain=(0.0, 2.0))
        events = [[0.3], [0.8], [1.1], [1.9]]
        model = CoxModel([0.0], [2.0], events)
        t = cox_elbo_terms(state, model)
        assert t.event_term == pytest.approx(4 * math.log(c), rel=1e-6)
        assert t.integral_term == pytest.approx(2.0 * c, rel=1e-6)

    def test_event_permutation_invariance_exact(self):
        state = tiny_state(seed=2)
        events = np.array([[0.11], [0.42], [0.73], [0.55], [0.91], [0.27]])
        rng = np.random.default_rng(3)
        base = cox_elbo(state, CoxModel([0.0], [1.0], events))
        for _ in range(5):
            shuffled = events[rng.permutation(len(events))]
            assert cox_elbo(state, CoxModel([0.0], [1.0], shuffled)) == base

    def test_quadrature_refinement_stable(self):
        state = tiny_state(seed=4)
        events = [[0.2], [0.6]]
        e1 = cox_elbo(state, CoxModel([0.0], [1.0], events, quad_orders=(50,)))
        e2 = cox_elbo(state, CoxModel([0.0], [1.0], events, quad_orders=(100,)))
        assert abs(e1 - e2) <= 1e-6 * (1.0 + abs(e1))

    def test_2d_objective_finite(self):
        rng = np.random.default_rng(5)
        k = Kernel(variance=0.5, lengthscales=[0.4, 0.4], mean_const=0.2)
        Z = np.stack(
            [g.ravel() for g in np.meshgrid(*[np.linspace(0.2, 0.8, 3)] * 2)], axis=1
        )
        M = Z.shape[0]
        state = SVGPState(
            features=tuple(PointFeature(z) for z in Z),
            q_mean=0.2 + 0.1 * rng.standard_normal(M),
            q_chol=np.linalg.cholesky(0.2 * np.eye(M)),
            kernel=k,
        )
        events = rng.uniform(0.1, 0.9, size=(12, 2))
        model = CoxModel([0.0, 0.0], [1.0, 1.0], events)
        assert np.isfinite(cox_elbo(state, model))

    def test_square_link_objective(self):
        state = tiny_state(mean_level=2.0, seed=6)
        model = CoxModel([0.0], [1.0], [[0.4], [0.7]], link="square")
        t = cox_elbo_terms(state, model)
        assert np.isfinite(t.event_term) and t.integral_term > 0.0

    def test_matches_binned_poisson_in_fine_limit(self):
        # a Poisson-counts likelihood on a fine uniform grid approaches
        # the continuous objective once the binning correction
        # sum_b [log(y_b! ) + y_b log(width)] is added back
        state = tiny_state(mean_level=1.0, seed=7)
        events = np.array([[0.23], [0.24], [0.55], [0.86]])
        model = CoxModel([0.0], [1.0], events, quad_orders=(200,))
        continuous = cox_elbo(state, model)

        def binned(n_bins):
            edges = np.linspace(0.0, 1.0, n_bins + 1)
            centers = 0.5 * (edges[:-1] + edges[1:])
            width = 1.0 / n_bins
            counts = np.histogram(events[:, 0], bins=edges)[0].astype(float)
            lik = PoissonCounts(bin_width=width)
            mu, var = predictive_marginals(state, centers)
            val = float(np.sum(lik.variational_expectations(mu, var, counts)))
            val -= mvn_kl(state.q_dist(), state.prior_dist())
            correction = float(
                np.sum(gammaln(counts + 1.0)) - np.sum(counts) * math.log(width)
            )
            return val + correction

        err_coarse = abs(binned(50) - continuous)
        err_fine = abs(binned(400) - continuous)
        assert err_fine < err_coarse
        assert err_fine <= 5e-4 * (1.0 + abs(continuous))

    @pytest.mark.parametrize("link", ["exp", "square"])
    def test_one_expected_rate_per_evaluation(self, monkeypatch, link):
        # the integral term's rate at the grid nodes also gives its gradient; the
        # pass computes it unchecked, without the public expected_rate
        calls = []
        original = cox._rate_moments

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cox, "_rate_moments", counting)
        monkeypatch.setattr(cox, "expected_rate", lambda *args: pytest.fail("checked expected_rate called"))
        state = tiny_state(mean_level=1.0, seed=8)
        model = CoxModel([0.0], [1.0], [[0.3], [0.6]], link=link, quad_orders=(12,))
        value, _ = cox_elbo_and_grad(state, model)
        assert len(calls) == 1
        assert value == cox_elbo(state, model)

    def test_dimension_mismatch_rejected(self):
        state = tiny_state()
        model = CoxModel([0.0, 0.0], [1.0, 1.0], np.zeros((0, 2)))
        with pytest.raises(ValueError):
            cox_elbo(state, model)


class TestCoxMoments:
    """``CoxModel.moments`` against the link moments and central differences of them."""

    @staticmethod
    def rows(link, mu, var, model):
        # E[log rho] at the events, -w E[rho] at the grid nodes
        ne = model.n_events
        return np.concatenate([
            expected_log_rate(link, mu[:ne], var[:ne]),
            -model.grid[1] * expected_rate(link, mu[ne:], var[ne:]),
        ])

    @pytest.mark.parametrize("link", cox.LINKS)
    @pytest.mark.parametrize("seed", range(3))
    def test_values_and_derivatives(self, link, seed):
        rng = np.random.default_rng(seed)
        model = CoxModel([0.0], [1.0], rng.uniform(0.0, 1.0, (6, 1)), link=link, quad_orders=(9,))
        n = model.points.shape[0]
        mu = rng.uniform(-1.0, 1.0, n)
        var = rng.uniform(0.2, 1.0, n)
        if link == "square":
            # event means near 0, where E[log f^2] is most curved
            mu[: model.n_events] = rng.uniform(-0.05, 0.05, model.n_events)
        values, d_mu, d_var, d_params = model.moments(mu, var)
        assert values.tobytes() == self.rows(link, mu, var, model).tobytes()
        assert d_params == {}
        h = 1e-6
        fd_mu = (self.rows(link, mu + h, var, model) - self.rows(link, mu - h, var, model)) / (2 * h)
        fd_var = (self.rows(link, mu, var + h, model) - self.rows(link, mu, var - h, model)) / (2 * h)
        np.testing.assert_allclose(d_mu, fd_mu, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(d_var, fd_var, rtol=1e-6, atol=1e-7)

    def test_square_log_moment_at_zero_variance_is_its_limit(self):
        # E[log f^2] -> log mu^2 as var -> 0, with slopes 2 / mu and -1 / mu^2
        model = CoxModel([0.0], [1.0], [[0.2], [0.7]], link="square", quad_orders=(5,))
        n = model.points.shape[0]
        mu = np.linspace(-1.0, 1.0, n)
        values, d_mu, d_var, _ = model.moments(mu, np.zeros(n))
        ev = mu[: model.n_events]
        np.testing.assert_allclose(values[: model.n_events], np.log(ev * ev), rtol=1e-15)
        np.testing.assert_allclose(d_mu[: model.n_events], 2.0 / ev, rtol=1e-15)
        np.testing.assert_allclose(d_var[: model.n_events], -1.0 / (ev * ev), rtol=1e-15)


class TestFittedIntensity:
    def test_matches_expected_rate_of_predictive(self):
        state = tiny_state(seed=8)
        model = CoxModel([0.0], [1.0], [[0.5]])
        Xs = np.linspace(0.0, 1.0, 7)
        mu, var = predictive_marginals(state, Xs)
        np.testing.assert_allclose(
            fitted_intensity(state, model, Xs), expected_rate("exp", mu, var), rtol=1e-13
        )


class TestSampler:
    def test_same_seed_reproduces(self):
        lam = lambda x: 50.0 * (1.0 + np.sin(2 * np.pi * x[:, 0]))
        a = sample_inhomogeneous_pp(lam, 101.0, [0.0], [1.0], seed=7)
        b = sample_inhomogeneous_pp(lam, 101.0, [0.0], [1.0], seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_inhomogeneous_pp(lam, 101.0, [0.0], [1.0], seed=8)
        assert a.shape != c.shape or not np.array_equal(a, c)

    def test_mean_count_matches_intensity_integral(self):
        # constant intensity: counts are Poisson(c * volume)
        c, vol = 40.0, 1.5
        lam = lambda x: np.full(x.shape[0], c)
        counts = [
            sample_inhomogeneous_pp(lam, c + 1.0, [0.0], [1.5], seed=s).shape[0]
            for s in range(300)
        ]
        mean_expected = c * vol
        se = math.sqrt(mean_expected / 300)
        assert abs(np.mean(counts) - mean_expected) <= 4.0 * se

    def test_positions_follow_normalized_intensity(self):
        # pooled draws against the analytic location distribution
        lam = lambda x: 60.0 * (1.0 + np.sin(2 * np.pi * x[:, 0]))
        pooled = np.concatenate(
            [
                sample_inhomogeneous_pp(lam, 121.0, [0.0], [1.0], seed=s)[:, 0]
                for s in range(60)
            ]
        )
        # P(X <= t) = t + (1 - cos(2 pi t)) / (2 pi)
        grid = np.linspace(0.05, 0.95, 19)
        emp = np.array([(pooled <= t).mean() for t in grid])
        cdf = grid + (1.0 - np.cos(2 * np.pi * grid)) / (2 * np.pi)
        assert np.max(np.abs(emp - cdf)) <= 0.02

    def test_bound_violation_names_location(self):
        lam = lambda x: 10.0 + x[:, 0]
        with pytest.raises(ValueError) as err:
            sample_inhomogeneous_pp(lam, 10.2, [0.0], [1.0], seed=0)
        assert "exceeded at grid point" in str(err.value)
        assert "11.0" in str(err.value)

    def test_2d_events_inside_domain(self):
        lam = lambda x: np.full(x.shape[0], 30.0)
        ev = sample_inhomogeneous_pp(lam, 31.0, [0.0, -1.0], [2.0, 1.0], seed=3)
        assert ev.shape[1] == 2
        assert np.all(ev[:, 0] >= 0.0) and np.all(ev[:, 0] <= 2.0)
        assert np.all(ev[:, 1] >= -1.0) and np.all(ev[:, 1] <= 1.0)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (
            lambda: CoxModel(lower=[0.0, 0.0], upper=[1.0], events=[]),
            "domain bounds must be equal-length vectors",
        ),
        (lambda: expected_log_rate("cubic", [0.0], [1.0]), "unknown link 'cubic'"),
        (
            lambda: sample_inhomogeneous_pp(lambda p: np.ones(len(p)), 2.0, [1.0], [0.0], seed=0),
            "domain bounds must satisfy lower < upper",
        ),
        (
            lambda: sample_inhomogeneous_pp(lambda p: np.ones(len(p)), 0.0, [0.0], [1.0], seed=0),
            "upper_bound must be positive",
        ),
        (
            lambda: sample_inhomogeneous_pp(lambda p: -np.ones(len(p)), 2.0, [0.0], [1.0], seed=0),
            "intensity must be finite and nonnegative",
        ),
    ],
    ids=["ragged-domain", "unknown-log-link", "reversed-domain", "zero-bound", "negative-intensity"],
)
def test_caller_input_is_rejected(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
