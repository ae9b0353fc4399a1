"""Sparse variational Gaussian process state, bounds, and likelihoods.

The variational family places a free Gaussian over a finite vector of
inducing features and extends it with the prior conditional.  The
training objective is

    elbo = sum_i E_q[log p(y_i | f_i)] - KL(q(u) || p(u)),

which for Gaussian noise also has a collapsed form with the optimal
q(u) substituted analytically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln, log_ndtr

from .gaussians import GaussianDist, _chol_with_fallback, mvn_kl
from .interdomain import (
    assemble_Kuf,
    assemble_Kuu,
    feature_from_dict,
    feature_prior_mean,
    feature_to_dict,
)
from .kernels import Kernel, as_points

__all__ = [
    "GaussianNoise",
    "BernoulliProbit",
    "PoissonCounts",
    "likelihood_to_dict",
    "likelihood_from_dict",
    "SVGPState",
    "gauss_hermite_expectation",
    "predictive_marginals",
    "expected_log_lik",
    "elbo",
    "collapsed_optimal_q",
    "collapsed_bound",
    "to_checkpoint_dict",
    "from_checkpoint_dict",
    "save_checkpoint",
    "load_checkpoint",
]

DEFAULT_QUAD_ORDER = 20


@lru_cache(maxsize=8)
def _gh_nodes(order):
    return np.polynomial.hermite.hermgauss(order)


def gauss_hermite_expectation(fn, mu, var, order=DEFAULT_QUAD_ORDER):
    """``E[fn(f)]`` under ``f ~ N(mu, var)``, elementwise over the inputs.

    Uses Gauss-Hermite nodes in the physicists' convention, so the
    evaluation points are ``mu + sqrt(2 var) * x`` and the weights are
    normalized by ``1/sqrt(pi)``.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    if mu.shape != var.shape:
        raise ValueError(f"mu shape {mu.shape} != var shape {var.shape}")
    if np.any(var < 0):
        raise ValueError("variances must be nonnegative")
    x, w = _gh_nodes(order)
    f_nodes = fn(mu[:, None] + np.sqrt(2.0 * var)[:, None] * x[None, :])
    return (f_nodes @ w) / np.sqrt(np.pi)


@dataclass(frozen=True)
class GaussianNoise:
    """Homoskedastic Gaussian observation noise."""

    noise_var: float

    def __post_init__(self):
        if self.noise_var <= 0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")
        object.__setattr__(self, "noise_var", float(self.noise_var))

    def validate_targets(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")
        return y

    def log_density(self, f, y):
        return -0.5 * (
            math.log(2.0 * math.pi * self.noise_var) + (y - f) ** 2 / self.noise_var
        )

    def variational_expectations(self, mu, var, y, quad_order=DEFAULT_QUAD_ORDER):
        """Closed form: quadrature is never needed for Gaussian noise."""
        return -0.5 * (
            math.log(2.0 * math.pi * self.noise_var)
            + ((y - mu) ** 2 + var) / self.noise_var
        )


@dataclass(frozen=True)
class BernoulliProbit:
    """Binary labels in {-1, +1} through a probit link."""

    def validate_targets(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all(np.isin(y, (-1.0, 1.0))):
            bad = y[~np.isin(y, (-1.0, 1.0))][:5]
            raise ValueError(f"labels must be -1 or +1, got values like {bad.tolist()}")
        return y

    def log_density(self, f, y):
        return log_ndtr(y * f)

    def variational_expectations(self, mu, var, y, quad_order=DEFAULT_QUAD_ORDER):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return gauss_hermite_expectation(
            lambda f: log_ndtr(y[:, None] * f), mu, var, quad_order
        )


@dataclass(frozen=True)
class PoissonCounts:
    """Poisson counts with an exponential link and a fixed bin width.

    The rate over a bin is ``bin_width * exp(f)``.
    """

    bin_width: float = 1.0

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        object.__setattr__(self, "bin_width", float(self.bin_width))

    def validate_targets(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("counts must be nonnegative integers")
        return y

    def log_density(self, f, y):
        return y * (f + math.log(self.bin_width)) - self.bin_width * np.exp(f) - gammaln(y + 1.0)

    def variational_expectations(self, mu, var, y, quad_order=DEFAULT_QUAD_ORDER):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return gauss_hermite_expectation(
            lambda f: self.log_density(f, y[:, None]), mu, var, quad_order
        )


def likelihood_to_dict(lik) -> dict:
    if isinstance(lik, GaussianNoise):
        return {"kind": "gaussian", "noise_var": lik.noise_var}
    if isinstance(lik, BernoulliProbit):
        return {"kind": "bernoulli"}
    if isinstance(lik, PoissonCounts):
        return {"kind": "poisson", "bin_width": lik.bin_width}
    raise TypeError(f"unknown likelihood type {type(lik).__name__}")


def likelihood_from_dict(record: dict):
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError(f"likelihood record must be a dict with a 'kind': {record!r}")
    kind = record["kind"]
    if kind == "gaussian":
        extra = set(record) - {"kind", "noise_var"}
        if extra or "noise_var" not in record:
            raise ValueError(f"malformed gaussian likelihood record: {record!r}")
        return GaussianNoise(float(record["noise_var"]))
    if kind == "bernoulli":
        if set(record) - {"kind"}:
            raise ValueError(f"malformed bernoulli likelihood record: {record!r}")
        return BernoulliProbit()
    if kind == "poisson":
        extra = set(record) - {"kind", "bin_width"}
        if extra:
            raise ValueError(f"malformed poisson likelihood record: {record!r}")
        return PoissonCounts(float(record.get("bin_width", 1.0)))
    raise ValueError(f"unknown likelihood kind {kind!r}")


@dataclass(frozen=True)
class SVGPState:
    """Variational state: inducing features plus a free Gaussian over them.

    ``q_chol`` is the lower-triangular factor of the variational
    covariance, with strictly positive diagonal.  The likelihood record
    travels with the state so a checkpoint restores a runnable model.
    """

    features: tuple
    q_mean: np.ndarray
    q_chol: np.ndarray
    kernel: Kernel
    likelihood: object = None

    def __post_init__(self):
        features = tuple(self.features)
        if len(features) == 0:
            raise ValueError("need at least one inducing feature")
        q_mean = np.atleast_1d(np.asarray(self.q_mean, dtype=float))
        q_chol = np.asarray(self.q_chol, dtype=float)
        M = len(features)
        if q_mean.shape != (M,):
            raise ValueError(
                f"q_mean has shape {q_mean.shape}, expected ({M},) for {M} features"
            )
        if q_chol.shape != (M, M):
            raise ValueError(
                f"q_chol has shape {q_chol.shape}, expected ({M}, {M})"
            )
        if np.any(np.triu(q_chol, 1) != 0.0):
            raise ValueError("q_chol must be lower triangular")
        if np.any(np.diag(q_chol) <= 0):
            raise ValueError("q_chol must have a strictly positive diagonal")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "q_mean", q_mean)
        object.__setattr__(self, "q_chol", q_chol)

    @property
    def num_inducing(self) -> int:
        return len(self.features)

    def q_dist(self) -> GaussianDist:
        return GaussianDist(self.q_mean, self.q_chol @ self.q_chol.T)

    def prior_dist(self) -> GaussianDist:
        return GaussianDist(
            feature_prior_mean(self.features, self.kernel),
            assemble_Kuu(self.features, self.kernel),
        )


def predictive_marginals(state: SVGPState, Xstar):
    """Marginal predictive means and variances of the latent function.

    Means and variances come from extending q(u) with the prior
    conditional:

        mean = m + Kfu Kuu^-1 (q_mean - m_u)
        var  = kff - diag(Kfu Kuu^-1 Kuf) + diag(Kfu Kuu^-1 S Kuu^-1 Kuf)

    computed through the Cholesky factor of Kuu.  Fails with the jitter
    cap in the error if the feature covariance cannot be factorized.
    """
    Xstar = as_points(Xstar, state.kernel.input_dim)
    Kuu = assemble_Kuu(state.features, state.kernel)
    Luu, _ = _chol_with_fallback(Kuu)
    Kuf = assemble_Kuf(state.features, state.kernel, Xstar)
    A = solve_triangular(Luu, Kuf, lower=True)
    prior_mean_u = feature_prior_mean(state.features, state.kernel)
    alpha = solve_triangular(Luu, state.q_mean - prior_mean_u, lower=True)
    mean = state.kernel.mean_const + A.T @ alpha
    W = solve_triangular(Luu.T, A, lower=False)
    T = state.q_chol.T @ W
    kss = np.full(Xstar.shape[0], state.kernel.variance)
    var = kss - np.sum(A * A, axis=0) + np.sum(T * T, axis=0)
    return mean, np.maximum(var, 0.0)


def _resolve_likelihood(state: SVGPState, lik):
    lik = lik if lik is not None else state.likelihood
    if lik is None:
        raise ValueError("no likelihood given and the state carries none")
    return lik


def expected_log_lik(state: SVGPState, X, Y, lik=None, quad_order=DEFAULT_QUAD_ORDER):
    """Sum over data of ``E_q[log p(y_i | f_i)]``.

    Summed with exact accumulation so the result does not depend on the
    ordering of the data.
    """
    lik = _resolve_likelihood(state, lik)
    X = as_points(X, state.kernel.input_dim)
    Y = lik.validate_targets(Y)
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs but {Y.shape[0]} targets")
    mu, var = predictive_marginals(state, X)
    values = lik.variational_expectations(mu, var, Y, quad_order)
    return math.fsum(np.asarray(values, dtype=float))


def elbo(state: SVGPState, X, Y, lik=None, quad_order=DEFAULT_QUAD_ORDER) -> float:
    """Evidence lower bound: expected log likelihood minus KL(q(u) || p(u))."""
    ell = expected_log_lik(state, X, Y, lik, quad_order)
    return ell - mvn_kl(state.q_dist(), state.prior_dist())


def _collapsed_factors(features, kernel: Kernel, X, Y, noise_var: float):
    """Validated inputs and the whitened factors both collapsed routines share.

    With ``Luu`` the (jittered) Cholesky factor of Kuu, the same one
    :func:`predictive_marginals` and the KL term use:

        A  = Luu^-1 Kuf                      (M x n)
        LB = chol(I + A A^T / noise_var)     (M x M)
        c  = LB^-1 A r / noise_var,          r = Y - m_X

    Returns ``(r, Luu, A, LB, c)``.  Nothing larger than M x n is formed.
    """
    noise = GaussianNoise(noise_var)
    X = as_points(X, kernel.input_dim)
    Y = noise.validate_targets(Y)
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs but {Y.shape[0]} targets")
    Luu, _ = _chol_with_fallback(assemble_Kuu(features, kernel))
    A = solve_triangular(Luu, assemble_Kuf(features, kernel, X), lower=True)
    LB = np.linalg.cholesky(np.eye(A.shape[0]) + (A @ A.T) / noise.noise_var)
    r = Y - kernel.mean_const
    c = solve_triangular(LB, A @ r, lower=True) / noise.noise_var
    return r, Luu, A, LB, c


def collapsed_optimal_q(features, kernel: Kernel, X, Y, noise_var: float) -> GaussianDist:
    """Optimal q(u) for Gaussian noise, in closed form.

    With B = Kuu + Kuf Kfu / noise_var = Luu LB LB^T Luu^T (see
    :func:`_collapsed_factors`):

        S_opt = Kuu B^-1 Kuu = Luu LB^-T LB^-1 Luu^T
        m_opt = m_u + Kuu B^-1 Kuf (Y - m_X) / noise_var = m_u + Luu LB^-T c

    Built on the same factor of Kuu as :func:`collapsed_bound` and
    :func:`elbo`, so the elbo at this q equals the collapsed bound even
    when Kuu needs jitter.  O(n M^2) time, O(n M) memory.
    """
    _, Luu, _, LB, c = _collapsed_factors(features, kernel, X, Y, noise_var)
    half = solve_triangular(LB, Luu.T, lower=True)
    m_opt = feature_prior_mean(features, kernel) + Luu @ solve_triangular(
        LB.T, c, lower=False
    )
    return GaussianDist(m_opt, half.T @ half)


def collapsed_bound(features, kernel: Kernel, X, Y, noise_var: float) -> float:
    """Collapsed bound for Gaussian noise.

        log N(Y | m_X, Qff + noise_var I) - tr(Kff - Qff) / (2 noise_var)

    with ``Qff = Kfu Kuu^-1 Kuf = A^T A``.  Equals the elbo at the optimal
    q(u), and the exact log marginal likelihood when the features
    interpolate the data exactly.  Evaluated in the whitened factors of
    :func:`_collapsed_factors` by Woodbury and the matrix determinant
    lemma:

        -1/2 (n log(2 pi noise_var) + 2 sum log diag LB
              + r^T r / noise_var - c^T c)
        - (n kff - ||A||_F^2) / (2 noise_var)

    O(n M^2) time, O(n M) memory; no n x n matrix is formed.
    """
    r, _, A, LB, c = _collapsed_factors(features, kernel, X, Y, noise_var)
    n = r.shape[0]
    fit = -0.5 * (
        n * math.log(2.0 * math.pi * noise_var)
        + 2.0 * float(np.sum(np.log(np.diag(LB))))
        + float(r @ r) / noise_var
        - float(c @ c)
    )
    trace_term = (n * kernel.variance - float(np.sum(A * A))) / (2.0 * noise_var)
    return fit - trace_term


def to_checkpoint_dict(state: SVGPState) -> dict:
    return {
        "features": [feature_to_dict(g) for g in state.features],
        "q_mean": state.q_mean.tolist(),
        "q_chol": state.q_chol.tolist(),
        "kernel": {
            "variance": state.kernel.variance,
            "lengthscales": state.kernel.lengthscales.tolist(),
            "mean_const": state.kernel.mean_const,
        },
        "likelihood": None
        if state.likelihood is None
        else likelihood_to_dict(state.likelihood),
    }


def from_checkpoint_dict(record: dict) -> SVGPState:
    expected = {"features", "q_mean", "q_chol", "kernel", "likelihood"}
    if not isinstance(record, dict) or set(record) != expected:
        raise ValueError(
            f"checkpoint record must have exactly the keys {sorted(expected)}, "
            f"got {sorted(record) if isinstance(record, dict) else type(record).__name__}"
        )
    kern = record["kernel"]
    if not isinstance(kern, dict) or set(kern) != {"variance", "lengthscales", "mean_const"}:
        raise ValueError(f"malformed kernel record: {kern!r}")
    kernel = Kernel(
        float(kern["variance"]),
        np.asarray(kern["lengthscales"], dtype=float),
        float(kern["mean_const"]),
    )
    lik = record["likelihood"]
    return SVGPState(
        features=tuple(feature_from_dict(g) for g in record["features"]),
        q_mean=np.asarray(record["q_mean"], dtype=float),
        q_chol=np.asarray(record["q_chol"], dtype=float),
        kernel=kernel,
        likelihood=None if lik is None else likelihood_from_dict(lik),
    )


def save_checkpoint(state: SVGPState, path):
    """Write the state as JSON; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(to_checkpoint_dict(state), fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> SVGPState:
    with open(path, "r", encoding="utf-8") as fh:
        return from_checkpoint_dict(json.load(fh))
