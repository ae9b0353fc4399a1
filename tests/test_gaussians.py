"""Cholesky, KL, and conditioning checks against independent oracles.

Closed forms are verified against Monte Carlo estimates, brute-force
grid quadrature, and scipy's own density implementations, with every
random sweep seeded.
"""

import ast
import math
import pathlib
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal, norm

import sparsekl
from sparsekl import gaussians
from sparsekl.gaussians import (
    AffineConditional,
    GaussianDist,
    NotPositiveDefiniteError,
    cholesky_jittered,
    conditional_from_joint,
    expected_conditional_kl,
    joint_from_marginal_and_conditional,
    mvn_condition,
    mvn_kl,
    mvn_logpdf,
    mvn_marginal,
)
from sparsekl.verify import EQUIVALENCE_RTOL, random_gaussian_pair

# standard normal log density at zero
LOGPDF_STD_AT_ZERO = -0.9189385332046727


def random_spd(rng, dim, floor=0.5):
    W = rng.standard_normal((dim, dim))
    return W @ W.T + floor * np.eye(dim)


def random_gaussian(rng, dim, floor=0.5):
    return GaussianDist(rng.standard_normal(dim), random_spd(rng, dim, floor))


class TestCholeskyJittered:
    def test_identity_uses_base_jitter(self):
        L, jitter = cholesky_jittered(np.eye(3))
        assert jitter == pytest.approx(1e-10)
        np.testing.assert_allclose(L, np.eye(3), atol=1e-10)

    def test_reconstruction_includes_jitter(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_spd(rng, 5)
            L, jitter = cholesky_jittered(A)
            np.testing.assert_allclose(
                L @ L.T, A + jitter * np.eye(5), rtol=1e-10, atol=1e-12
            )

    def test_well_conditioned_needs_tiny_jitter(self):
        # condition number well under 1e8: jitter must stay below
        # 1e-6 * mean(diag)
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = random_spd(rng, 8, floor=1.0)
            _, jitter = cholesky_jittered(A)
            assert jitter <= 1e-6 * np.mean(np.diag(A))

    def test_singular_psd_succeeds_at_fixed_jitter(self):
        A = np.ones((4, 4))  # rank one
        L, jitter = cholesky_jittered(A)
        assert jitter == 1e-10 * 1.0
        np.testing.assert_allclose(L @ L.T, A + jitter * np.eye(4), rtol=1e-9)

    def test_indefinite_fails_at_fixed_jitter(self):
        A = np.array([[1.0, 3.0], [3.0, 1.0]])  # eigenvalues 4 and -2
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_jittered(A)
        assert err.value.jitter == 1e-10 * 1.0
        assert "not positive definite" in str(err.value)

    def test_needing_more_than_fixed_jitter_is_named_failure(self, monkeypatch):
        # one attempt at 1e-10 mean(diag); a larger jitter would factor a
        # different matrix, so it is never tried
        A = np.diag([1.0, 1.0, -1e-8])
        calls = []
        plain = gaussians.cholesky
        monkeypatch.setattr(gaussians, "cholesky", lambda B: calls.append(B) or plain(B))
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_jittered(A)
        assert err.value.jitter == 1e-10 * np.mean(np.diag(A))
        assert len(calls) == 1

    def test_error_survives_pickle_round_trip(self):
        err = NotPositiveDefiniteError("Kuu is not positive definite", 1e-3)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is NotPositiveDefiniteError
        assert str(back) == str(err)
        assert back.jitter == 1e-3

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_jittered(-np.eye(3))

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            cholesky_jittered(A)

    @pytest.mark.parametrize(
        "A", [np.full((2, 2), np.nan), np.diag([np.inf, 1.0])], ids=["nan", "inf"]
    )
    def test_non_finite_input_rejected_before_jitter(self, monkeypatch, A):
        # a NaN matrix used to come back as a NaN factor with jitter nan, and
        # an inf entry reached the factorization before failing
        calls = []
        monkeypatch.setattr(gaussians, "cholesky", lambda A: calls.append(A))
        with pytest.raises(NotPositiveDefiniteError, match="non-finite") as err:
            cholesky_jittered(A)
        assert err.value.jitter == 0.0
        assert calls == []


class TestGaussianDist:
    def test_cached_factor_reproduces_cov(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_gaussian(rng, 6)
            np.testing.assert_allclose(
                p.chol @ p.chol.T,
                p.cov,
                rtol=1e-10,
                atol=1e-12,
            )

    def test_singular_covariance_is_a_named_failure(self):
        # PSD but singular: a jittered factor would describe another model
        p = GaussianDist(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError) as err:
            p.chol
        assert err.value.jitter == 0.0


def asymmetric(rel, scale=3.0):
    """2 x 2 covariance with max |A| = scale and max |A - A^T| = rel * scale."""
    return np.array([[scale, 0.0], [rel * scale, scale]])


def not_symmetric(what, rel, tol, scale=3.0):
    return f"{what} is not symmetric: max |A - A^T| = {rel * scale:.3e} exceeds {tol:.1e} relative"


NAN, INF = float("nan"), float("inf")
NOT_FINITE = "mean and covariance must be finite"
COND_W, COND_B = np.ones((2, 3)), np.zeros(2)

# (constructor, arguments, the ValueError message it raises)
VALIDATION_REJECTS = {
    "asymmetry-above-1e-12": (
        GaussianDist, (np.zeros(2), asymmetric(1.01e-12)),
        not_symmetric("covariance", 1.01e-12, 1e-12),
    ),
    "asymmetry-above-1e-10": (
        GaussianDist, (np.zeros(2), asymmetric(1.01e-10)),
        not_symmetric("covariance", 1.01e-10, 1e-12),
    ),
    "nan-cov": (GaussianDist, (np.zeros(2), [[1.0, NAN], [NAN, 1.0]]), NOT_FINITE),
    "inf-cov": (GaussianDist, (np.zeros(2), [[INF, 0.0], [0.0, 1.0]]), NOT_FINITE),
    "nan-mean": (GaussianDist, ([0.0, NAN], np.eye(2)), NOT_FINITE),
    "nan-and-asymmetry": (GaussianDist, (np.zeros(2), [[1.0, NAN], [0.5, 1.0]]), NOT_FINITE),
    "2d-mean": (
        GaussianDist, (np.zeros((1, 2)), np.eye(2)), "mean must be a vector, got shape (1, 2)"
    ),
    "non-square-cov": (
        GaussianDist, (np.zeros(2), np.zeros((2, 3))), "covariance must be square, got shape (2, 3)"
    ),
    "dimension-mismatch": (
        GaussianDist, (np.zeros(3), np.eye(2)), "mean has dimension 3 but covariance is 2x2"
    ),
    "conditional-asymmetry-above-1e-10": (
        AffineConditional, (COND_W, COND_B, asymmetric(1.01e-10)),
        not_symmetric("conditional covariance", 1.01e-10, 1e-10),
    ),
    "conditional-non-square-cov": (
        AffineConditional, (COND_W, COND_B, np.zeros((2, 3))),
        "conditional covariance must be square, got shape (2, 3)",
    ),
    "conditional-dimension-mismatch": (
        AffineConditional, (COND_W, np.zeros(3), np.eye(2)),
        "inconsistent conditional shapes: weights (2, 3), offset (3,), cov (2, 2)",
    ),
}

VALIDATION_ACCEPTS = {
    "asymmetry-below-1e-12": (GaussianDist, (np.zeros(2), asymmetric(0.99e-12))),
    "0d-mean": (GaussianDist, (1.5, [[2.0]])),
    "0x0-cov": (GaussianDist, (np.zeros(0), np.zeros((0, 0)))),
    "conditional-asymmetry-below-1e-10": (
        AffineConditional, (COND_W, COND_B, asymmetric(0.99e-10))
    ),
    "conditional-asymmetry-above-1e-12": (
        AffineConditional, (COND_W, COND_B, asymmetric(1.01e-12))
    ),
}


class TestValidationContract:
    """Each rejected input and its message, and the edge cases that pass."""

    @pytest.mark.parametrize("case", VALIDATION_REJECTS)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rejects_with_message(self, case):
        cls, args, message = VALIDATION_REJECTS[case]
        with pytest.raises(ValueError) as err:
            cls(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("case", VALIDATION_ACCEPTS)
    def test_accepts_and_symmetrizes(self, case):
        cls, args = VALIDATION_ACCEPTS[case]
        cov = np.asarray(args[-1], dtype=float)
        built = cls(*args)
        np.testing.assert_array_equal(built.cov, 0.5 * (cov + cov.T))
        assert built.cov.shape == cov.shape


class TestKL:
    def test_identical_is_zero(self):
        p = GaussianDist(np.zeros(3), np.eye(3))
        assert mvn_kl(p, p) == 0.0

    def test_univariate_closed_form(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        q = GaussianDist([1.0], [[1.0]])
        p = GaussianDist([0.0], [[1.0]])
        assert mvn_kl(q, p) == pytest.approx(0.5, abs=1e-12)

    def test_scale_only_closed_form(self):
        # KL(N(0,s) || N(0,1)) = (s - 1 - log s) / 2
        for s in (0.25, 0.5, 2.0, 4.0):
            q = GaussianDist([0.0], [[s]])
            p = GaussianDist([0.0], [[1.0]])
            assert mvn_kl(q, p) == pytest.approx((s - 1 - math.log(s)) / 2, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            assert mvn_kl(random_gaussian(rng, dim), random_gaussian(rng, dim)) >= 0.0

    def test_invariant_under_shared_affine_map(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            q = random_gaussian(rng, dim)
            p = random_gaussian(rng, dim)
            T = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
            b = rng.standard_normal(dim)
            qt = GaussianDist(T @ q.mean + b, T @ q.cov @ T.T)
            pt = GaussianDist(T @ p.mean + b, T @ p.cov @ T.T)
            assert mvn_kl(qt, pt) == pytest.approx(mvn_kl(q, p), rel=1e-9, abs=1e-10)

    def test_monte_carlo_oracle(self):
        # KL(q||p) = E_q[log q - log p], estimated from a million draws
        rng = np.random.default_rng(5)
        for trial in range(3):
            dim = 3
            q = random_gaussian(rng, dim)
            p = random_gaussian(rng, dim)
            n = 1_000_000
            z = rng.standard_normal((n, dim))
            x = q.mean + z @ q.chol.T

            def batch_logpdf(dist, pts):
                alpha = solve_triangular(dist.chol, (pts - dist.mean).T, lower=True)
                return (
                    -0.5 * (dim * math.log(2 * math.pi) + np.sum(alpha * alpha, axis=0))
                    - dist.half_log_det()
                )

            vals = batch_logpdf(q, x) - batch_logpdf(p, x)
            se = np.std(vals) / math.sqrt(n)
            assert abs(np.mean(vals) - mvn_kl(q, p)) <= 3.0 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mvn_kl(GaussianDist(np.zeros(2), np.eye(2)), GaussianDist(np.zeros(3), np.eye(3)))


class TestLogpdf:
    def test_standard_normal_at_zero(self):
        p = GaussianDist([0.0], [[1.0]])
        assert mvn_logpdf(p, [0.0]) == pytest.approx(LOGPDF_STD_AT_ZERO, abs=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            p = random_gaussian(rng, dim)
            x = rng.standard_normal(dim)
            expected = multivariate_normal(p.mean, p.cov).logpdf(x)
            assert mvn_logpdf(p, x) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_univariate_against_scipy_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mu, sd, x = rng.standard_normal(), rng.uniform(0.2, 3.0), rng.standard_normal()
            p = GaussianDist([mu], [[sd * sd]])
            assert mvn_logpdf(p, [x]) == pytest.approx(
                norm.logpdf(x, mu, sd), rel=1e-12, abs=1e-12
            )

    def test_normalization_by_grid_quadrature(self):
        rng = np.random.default_rng(8)
        p = random_gaussian(rng, 3, floor=1.0)
        sds = np.sqrt(np.diag(p.cov))
        axes = [
            np.linspace(m - 6.5 * s, m + 6.5 * s, 61) for m, s in zip(p.mean, sds)
        ]
        cell = np.prod([a[1] - a[0] for a in axes])
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        alpha = solve_triangular(p.chol, (grid - p.mean).T, lower=True)
        logpdf = (
            -0.5 * (3 * math.log(2 * math.pi) + np.sum(alpha * alpha, axis=0))
            - p.half_log_det()
        )
        total = np.sum(np.exp(logpdf)) * cell
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mvn_logpdf(GaussianDist(np.zeros(2), np.eye(2)), [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_rejected(self, bad):
        # the one public route that hands a caller's array straight to a solve
        with pytest.raises(ValueError, match="must be finite"):
            mvn_logpdf(GaussianDist(np.zeros(2), np.eye(2)), [0.0, bad])


class TestMarginalCondition:
    def test_bivariate_conditioning_closed_form(self):
        # N(0, [[1, r], [r, 1]]) given x2 = 1 is N(r, 1 - r^2)
        r = 0.5
        joint = GaussianDist(np.zeros(2), np.array([[1.0, r], [r, 1.0]]))
        cond = mvn_condition(joint, [1], [1.0])
        assert cond.mean[0] == pytest.approx(0.5, abs=1e-14)
        assert cond.cov[0, 0] == pytest.approx(0.75, abs=1e-14)

    def test_marginal_orders_follow_indices(self):
        rng = np.random.default_rng(9)
        p = random_gaussian(rng, 5)
        m = mvn_marginal(p, [3, 1])
        np.testing.assert_array_equal(m.mean, p.mean[[3, 1]])
        np.testing.assert_array_equal(m.cov, p.cov[np.ix_([3, 1], [3, 1])])

    def test_condition_then_marginalize_consistency(self):
        # conditioning the full joint then marginalizing equals
        # marginalizing first and conditioning the smaller joint
        rng = np.random.default_rng(10)
        for _ in range(20):
            joint = random_gaussian(rng, 6)
            obs_idx = [1, 4]
            obs_val = rng.standard_normal(2)
            target = [0, 3]  # positions 0 and 2 of the kept coordinates [0,2,3,5]
            big = mvn_condition(joint, obs_idx, obs_val)
            direct = mvn_marginal(big, [0, 2])
            small_joint = mvn_marginal(joint, [0, 3, 1, 4])
            small = mvn_condition(small_joint, [2, 3], obs_val)
            np.testing.assert_allclose(direct.mean, small.mean, rtol=1e-9, atol=1e-11)
            np.testing.assert_allclose(direct.cov, small.cov, rtol=1e-9, atol=1e-11)

    def test_index_validation(self):
        joint = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="out of range"):
            mvn_condition(joint, [3], [0.0])
        with pytest.raises(ValueError, match="all coordinates"):
            mvn_condition(joint, [0, 1, 2], np.zeros(3))
        with pytest.raises(ValueError, match="duplicates"):
            mvn_marginal(joint, [0, 0])


class TestAffineConditional:
    @pytest.mark.parametrize("field", ["weights", "offset", "cov"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_is_named(self, field, value):
        parts = {"weights": np.ones((2, 3)), "offset": np.zeros(2), "cov": np.eye(2)}
        parts[field][-1] = value
        with pytest.raises(ValueError, match=f"conditional {field} must be finite"):
            AffineConditional(**parts)

    def test_joint_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            joint = random_gaussian(rng, 5)
            u_idx, v_idx = [0, 2], [1, 3, 4]
            cond = conditional_from_joint(joint, u_idx, v_idx)
            marg = mvn_marginal(joint, v_idx)
            rebuilt = joint_from_marginal_and_conditional(marg, cond)
            # rebuilt ordering is (v, u)
            perm = np.argsort(np.array(v_idx + u_idx))
            np.testing.assert_allclose(
                rebuilt.mean[perm], joint.mean, rtol=1e-9, atol=1e-11
            )
            np.testing.assert_allclose(
                rebuilt.cov[np.ix_(perm, perm)], joint.cov, rtol=1e-8, atol=1e-10
            )

    def test_conditional_matches_condition_at_point(self):
        rng = np.random.default_rng(12)
        joint = random_gaussian(rng, 4)
        cond = conditional_from_joint(joint, [0, 1], [2, 3])
        v = rng.standard_normal(2)
        at = cond.at(v)
        direct = mvn_condition(joint, [2, 3], v)
        np.testing.assert_allclose(at.mean, direct.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(at.cov, direct.cov, rtol=1e-10, atol=1e-12)

    def test_expected_kl_monte_carlo_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            k, dv = 2, 3
            q_cond = AffineConditional(
                rng.standard_normal((k, dv)), rng.standard_normal(k), random_spd(rng, k)
            )
            p_cond = AffineConditional(
                rng.standard_normal((k, dv)), rng.standard_normal(k), random_spd(rng, k)
            )
            over = random_gaussian(rng, dv)
            closed = expected_conditional_kl(q_cond, p_cond, over)
            n = 20_000
            vs = over.mean + rng.standard_normal((n, dv)) @ over.chol.T
            vals = np.array([mvn_kl(q_cond.at(v), p_cond.at(v)) for v in vs])
            se = np.std(vals) / math.sqrt(vals.size)
            assert abs(np.mean(vals) - closed) <= 3.0 * se + 1e-12

    def test_matched_conditionals_give_zero(self):
        rng = np.random.default_rng(14)
        cond = AffineConditional(
            rng.standard_normal((2, 3)), rng.standard_normal(2), random_spd(rng, 2)
        )
        over = random_gaussian(rng, 3)
        assert expected_conditional_kl(cond, cond, over) == 0.0

    def test_shape_validation(self):
        cond = AffineConditional(np.ones((2, 3)), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            expected_conditional_kl(cond, cond, GaussianDist(np.zeros(2), np.eye(2)))
        with pytest.raises(ValueError, match="shapes"):
            AffineConditional(np.ones((2, 3)), np.zeros(3), np.eye(2))


def dense_kl(mq, Sq, mp, Sp):
    """KL(N(mq, Sq) || N(mp, Sp)) from dense solves and log determinants."""
    d = mq - mp
    _, logdet_p = np.linalg.slogdet(Sp)
    _, logdet_q = np.linalg.slogdet(Sq)
    return 0.5 * (
        np.trace(np.linalg.solve(Sp, Sq))
        + d @ np.linalg.solve(Sp, d)
        - mq.shape[0]
        + logdet_p
        - logdet_q
    )


MEAN_SCALES = st.sampled_from([0.0, 1e-3, 1.0, 30.0])


class TestStackedSolvesAgainstDenseReference:
    """The stacked single-solve KL forms against np.linalg.solve/slogdet."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 9), scale=MEAN_SCALES)
    @example(seed=0, dim=1, scale=1.0)
    def test_mvn_kl(self, seed, dim, scale):
        q, p = random_gaussian_pair(np.random.default_rng(seed), dim)
        q = GaussianDist(scale * q.mean, q.cov)
        p = GaussianDist(-scale * p.mean, p.cov)
        expected = dense_kl(q.mean, q.cov, p.mean, p.cov)
        assert abs(mvn_kl(q, p) - expected) <= EQUIVALENCE_RTOL * (1.0 + abs(expected))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        out_dim=st.integers(1, 9),
        in_dim=st.integers(1, 9),
        scale=MEAN_SCALES,
    )
    @example(seed=0, out_dim=1, in_dim=3, scale=1.0)
    @example(seed=1, out_dim=1, in_dim=1, scale=30.0)
    def test_expected_conditional_kl(self, seed, out_dim, in_dim, scale):
        # Both joints over (v, x) share the marginal of v, so their KL is
        # exactly the expected conditional KL.
        rng = np.random.default_rng(seed)
        over, _ = random_gaussian_pair(rng, in_dim)
        over = GaussianDist(scale * over.mean, over.cov)
        conds = []
        for _ in range(2):
            _, noise = random_gaussian_pair(rng, out_dim)
            conds.append(
                AffineConditional(
                    rng.standard_normal((out_dim, in_dim)),
                    scale * rng.standard_normal(out_dim),
                    noise.cov,
                )
            )
        joints = []
        S = over.cov
        for c in conds:
            W = c.weights
            mean = np.concatenate([over.mean, W @ over.mean + c.offset])
            cov = np.block([[S, S @ W.T], [W @ S, W @ S @ W.T + c.cov]])
            joints.append((mean, cov))
        expected = dense_kl(*joints[0], *joints[1])
        got = expected_conditional_kl(conds[0], conds[1], over)
        assert abs(got - expected) <= EQUIVALENCE_RTOL * (1.0 + abs(expected))


ORDERS = st.sampled_from(["C", "F"])


def triangular_factor(rng, dim, lower, order):
    """A well-conditioned triangular factor in the requested memory order."""
    L = np.linalg.cholesky(random_spd(rng, dim, floor=1.0))
    return np.asarray(L if lower else L.T, order=order)


def right_hand_side(rng, dim, columns):
    return rng.standard_normal(dim) if columns == 0 else rng.standard_normal((dim, columns))


def assert_equivalent(got, expected):
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= EQUIVALENCE_RTOL * (1.0 + np.abs(expected)))


class TestLapackKernelsAgainstScipy:
    """The direct LAPACK kernels against the scipy and numpy wrappers they replace.

    ``columns`` 0 draws a 1-D right-hand side.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(0, 9),
        columns=st.integers(0, 4),
        lower=st.booleans(),
        trans=st.sampled_from([0, 1]),
        order=ORDERS,
    )
    @example(seed=0, dim=0, columns=0, lower=True, trans=0, order="C")
    @example(seed=1, dim=9, columns=3, lower=False, trans=1, order="F")
    def test_solve_triangular(self, seed, dim, columns, lower, trans, order):
        rng = np.random.default_rng(seed)
        L = triangular_factor(rng, dim, lower, order)
        B = right_hand_side(rng, dim, columns)
        expected = scipy.linalg.solve_triangular(L, B, lower=lower, trans=trans)
        assert_equivalent(gaussians.solve_triangular(L, B, lower=lower, trans=trans), expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(0, 9),
        columns=st.integers(0, 4),
        order=ORDERS,
    )
    @example(seed=0, dim=0, columns=2, order="C")
    @example(seed=1, dim=9, columns=0, order="C")
    def test_cho_solve(self, seed, dim, columns, order):
        rng = np.random.default_rng(seed)
        L = triangular_factor(rng, dim, True, order)
        B = right_hand_side(rng, dim, columns)
        expected = scipy.linalg.cho_solve((L, True), B)
        assert_equivalent(gaussians.cho_solve(L, B), expected)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 9), order=ORDERS)
    @example(seed=0, dim=0, order="C")
    def test_cholesky(self, seed, dim, order):
        A = np.asarray(random_spd(np.random.default_rng(seed), dim), order=order)
        assert_equivalent(gaussians.cholesky(A), np.linalg.cholesky(A))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda L, B: gaussians.solve_triangular(L, B, lower=True),
            lambda L, B: gaussians.solve_triangular(L, B, lower=True, trans=1),
            lambda L, B: gaussians.solve_triangular(L, np.asfortranarray(B), lower=True),
            lambda L, B: gaussians.solve_triangular(L, np.asfortranarray(B), lower=True, trans=1),
            lambda L, B: gaussians.cho_solve(L, B),
        ],
        ids=["dtrsm", "dtrsm-trans", "dtrtrs", "dtrtrs-trans", "cho_solve"],
    )
    def test_non_finite_stays_in_its_column(self, bad, solve):
        # no value scan, as in cholesky: a NaN or inf (an overflowed link in a
        # fit) comes back non-finite in its own column, not as an error, and
        # every other column is the all-finite solve bit for bit
        rng = np.random.default_rng(0)
        L = np.linalg.cholesky(random_spd(rng, 6))
        B = rng.standard_normal((6, 5))
        expected = solve(L, B)
        B[2, 1] = bad
        got = solve(L, B)
        assert not np.isfinite(got[:, 1]).all()
        np.testing.assert_array_equal(np.delete(got, 1, axis=1), np.delete(expected, 1, axis=1))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_diagonal_raises_linalg_error(self, order):
        L = np.asarray(np.tril(np.ones((3, 3))) - np.diag([0.0, 1.0, 0.0]), order=order)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            gaussians.solve_triangular(L, np.ones(3), lower=True)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            gaussians.cho_solve(L, np.ones(3))

    def test_not_positive_definite_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            gaussians.cholesky(np.array([[1.0, 3.0], [3.0, 1.0]]))

    def test_shape_mismatch_raises_value_error(self):
        with pytest.raises(ValueError, match="incompatible"):
            gaussians.solve_triangular(np.eye(3), np.ones(2), lower=True)
        with pytest.raises(ValueError, match="square"):
            gaussians.cho_solve(np.ones((2, 3)), np.ones(2))

    def test_cholesky_passes_nan_through(self):
        # no finiteness check, as in np.linalg.cholesky: a NaN probe in a fit
        # must reach the optimizer as a non-finite value, not an error
        L = gaussians.cholesky(np.full((2, 2), np.nan))
        assert np.isnan(L[1, 1]) and L[0, 1] == 0.0


class TestSolveTriangularLayouts:
    """A 2-D C-ordered right-hand side is solved from the right by ``dtrsm``
    without a layout copy; every other one by ``dtrtrs``.  Both routes give
    one answer and one error."""

    @staticmethod
    def record_routes(monkeypatch):
        routes = []

        def recorded(name):
            real = getattr(gaussians, name)

            def call(*args, **kwargs):
                routes.append(name)
                return real(*args, **kwargs)

            return call

        for name in ("dtrtrs", "dtrsm"):
            monkeypatch.setattr(gaussians, name, recorded(name))
        return routes

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 12),
        columns=st.integers(2, 40),
        lower=st.booleans(),
        trans=st.sampled_from([0, 1]),
        order=ORDERS,
    )
    @example(seed=0, dim=20, columns=4000, lower=True, trans=0, order="F")
    @example(seed=1, dim=20, columns=4000, lower=True, trans=1, order="C")
    def test_c_and_f_ordered_rhs_agree(self, seed, dim, columns, lower, trans, order):
        rng = np.random.default_rng(seed)
        L = triangular_factor(rng, dim, lower, order)
        B = rng.standard_normal((dim, columns))
        got = gaussians.solve_triangular(L, B, lower=lower, trans=trans)
        expected = gaussians.solve_triangular(L, np.asfortranarray(B), lower=lower, trans=trans)
        assert got.flags.c_contiguous and expected.flags.f_contiguous
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "shape, order, route",
        [
            ((5,), "C", "dtrtrs"),
            ((5, 1), "C", "dtrtrs"),
            ((5, 3), "F", "dtrtrs"),
            ((5, 3), "C", "dtrsm"),
        ],
        ids=["vector", "single-column", "fortran", "c-ordered"],
    )
    @pytest.mark.parametrize("factor_order", ["C", "F"])
    def test_route_is_chosen_by_layout(self, monkeypatch, shape, order, route, factor_order):
        rng = np.random.default_rng(2)
        L = triangular_factor(rng, 5, True, factor_order)
        B = np.asarray(rng.standard_normal(shape), order=order)
        routes = self.record_routes(monkeypatch)
        x = gaussians.solve_triangular(L, B, lower=True)
        assert routes == [route]
        assert x.shape == B.shape
        np.testing.assert_allclose(x, scipy.linalg.solve_triangular(L, B, lower=True), rtol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_every_route_raises_the_same_errors(self, order, lower, trans):
        L = np.tril(np.ones((4, 4))) - np.diag([0.0, 0.0, 1.0, 0.0])
        L = np.asarray(L if lower else L.T, order=order)
        messages = set()
        for B in (np.ones((4, 3)), np.asfortranarray(np.ones((4, 3))), np.ones(4)):
            with pytest.raises(np.linalg.LinAlgError) as err:
                gaussians.solve_triangular(L, B, lower=lower, trans=trans)
            messages.add(str(err.value))
        assert messages == {"singular matrix: resolution failed at diagonal 2"}


WRAPPERS = {"cholesky", "solve_triangular", "cho_solve"}


def wrapper_uses(source, filename="<source>"):
    """Lines of ``source`` that reach a factorization or solve around the kernels:
    ``from scipy.linalg import ...`` (or ``numpy.linalg``) of a wrapper name, or
    an attribute such as ``np.linalg.cholesky``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[:2] in (["scipy", "linalg"], ["numpy", "linalg"]) and any(
                alias.name in WRAPPERS for alias in node.names
            ):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in WRAPPERS:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if name == "linalg":
                found.append(node.lineno)
    return found


def test_factorizations_and_solves_go_through_the_kernels():
    offenders = [
        f"{path}:{line}"
        for path in sorted(pathlib.Path(sparsekl.__file__).parent.glob("*.py"))
        for line in wrapper_uses(path.read_text(encoding="utf-8"), str(path))
    ]
    assert offenders == [], "use sparsekl.gaussians' LAPACK kernels: " + ", ".join(offenders)


def test_wrapper_scan_finds_each_route():
    source = "\n".join(
        [
            "from scipy.linalg import cho_solve",
            "from scipy.linalg.lapack import dpotrf",
            "import numpy as np",
            "L = np.linalg.cholesky(A)",
            "x = scipy.linalg.solve_triangular(L, b)",
            "from numpy.linalg import cholesky",
            "y = gaussians.cholesky(A)",
        ]
    )
    assert sorted(wrapper_uses(source)) == [1, 4, 5, 6]


def _joint(dim):
    return GaussianDist(np.zeros(dim), np.eye(dim) + 0.5)


def _conditional(out_dim, in_dim):
    return AffineConditional(np.ones((out_dim, in_dim)), np.zeros(out_dim), np.eye(out_dim))


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: mvn_condition(_joint(3), [0], [1.0, 2.0]), "1 observed indices but 2 values"),
        (lambda: conditional_from_joint(_joint(3), [0, 1], [1]), "index sets overlap"),
        (
            lambda: expected_conditional_kl(_conditional(1, 2), _conditional(2, 2), _joint(2)),
            "conditional shape mismatch",
        ),
        (
            lambda: joint_from_marginal_and_conditional(_joint(3), _conditional(1, 2)),
            "conditional expects input dimension 2, marginal has 3",
        ),
    ],
    ids=["value-count", "overlapping-blocks", "conditional-shapes", "marginal-dimension"],
)
def test_caller_input_is_rejected(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_cholesky_jittered_of_an_empty_matrix_is_empty():
    L, jitter = cholesky_jittered(np.zeros((0, 0)))
    assert L.shape == (0, 0) and jitter == 0.0
