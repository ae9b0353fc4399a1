"""Sparse variational Gaussian process state, bounds, and likelihoods.

The variational family places a free Gaussian over a finite vector of
inducing features and extends it with the prior conditional.  The
training objective is

    elbo = sum_i E_q[log p(y_i | f_i)] - KL(q(u) || p(u)),

which for Gaussian noise also has a collapsed form with the optimal
q(u) substituted analytically.  The data term enters only through the
one-dimensional expectations: each likelihood's ``moments(mu, var, y)``
gives them and their derivatives in mean and variance from one
evaluation of its integrand, and the reverse pass takes those
derivatives back to q, the kernel and the features.  Every objective is
one pass with one data term, a likelihood or a Cox model
(:class:`sparsekl.cox.CoxModel`): its value is the data term's ``total``
of its per-row values, minus the KL.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, log_ndtr

from .gaussians import (
    LOG_2PI,
    GaussianDist,
    NotPositiveDefiniteError,
    cholesky,
    cholesky_jittered,
    solve_triangular,
)
from .interdomain import (
    _stack,
    assemble_Kuf,
    assemble_Kuu,
    assemble_vjp,
    feature_from_dict,
    feature_to_dict,
)
from .kernels import Kernel, as_points, is_json_number, write_json

__all__ = [
    "GaussianNoise",
    "BernoulliProbit",
    "PoissonCounts",
    "likelihood_to_dict",
    "likelihood_from_dict",
    "SVGPState",
    "WhitenedState",
    "gauss_hermite_expectation",
    "predictive_marginals",
    "elbo",
    "elbo_and_grad",
    "collapsed_optimal_q",
    "collapsed_bound",
    "collapsed_bound_and_grad",
    "to_checkpoint_dict",
    "from_checkpoint_dict",
    "save_checkpoint",
    "load_checkpoint",
]

@lru_cache(maxsize=1)
def _gh_nodes():
    """The one Gauss-Hermite rule, 20 nodes, built on first use: it costs 0.8 MB of peak RSS."""
    return np.polynomial.hermite.hermgauss(20)


@lru_cache(maxsize=8)
def _triangle(M):
    """Read-only ``(strictly lower index pair, diagonal index pair, lower
    triangle mask)`` of an M x M matrix, built once per size."""
    parts = (*np.tril_indices(M, -1), *np.diag_indices(M), np.tri(M, dtype=bool))
    for part in parts:
        part.flags.writeable = False
    return parts[:2], parts[2:4], parts[4]


def gauss_hermite_expectation(fn, mu, var):
    """``E[fn(f)]`` under ``f ~ N(mu, var)``, elementwise over the inputs.

    Uses Gauss-Hermite nodes in the physicists' convention, so the
    evaluation points are ``mu + sqrt(2 var) * x`` and the weights are
    normalized by ``1/sqrt(pi)``: the value part of :func:`_gauss_hermite`.
    """
    mu, var, shape = _checked_moments_input(mu, var)
    return _gauss_hermite(lambda f: (fn(f), np.zeros_like(f)), mu, var)[0].reshape(shape)


def _checked_moments_input(mu, var):
    """The input rule of the public moment routines: ``mu`` and ``var`` of one shape,
    with no NaN and no negative variance, flattened to float vectors for the private
    cores, and that shape, which each routine gives its values, as numpy's elementwise
    functions do.  The fit's own pass skips it, so a NaN variance from an overflowed
    pass reaches the optimizer."""
    mu, var = np.asarray(mu, dtype=float), np.asarray(var, dtype=float)
    if mu.shape != var.shape:
        raise ValueError(f"mu shape {mu.shape} != var shape {var.shape}")
    if np.isnan(var).any():
        raise ValueError("variances must not be NaN")
    if (var < 0).any():
        raise ValueError("variances must be nonnegative")
    return mu.ravel(), var.ravel(), mu.shape


def _gauss_hermite(fn, mu, var):
    """``(E[g(f)], d/dmu, d/dvar)`` of the Gauss-Hermite sum under ``f ~ N(mu, var)``,
    elementwise, where ``fn`` maps the nodes to ``(g, dg/df)`` in one evaluation.

    A node moves by ``x / sqrt(2 var)`` per unit of ``var``; at ``var = 0``
    the variance derivative is reported as 0.  ``mu`` and ``var`` are float
    vectors.  Unchecked: a NaN variance (from an overflowed pass) gives NaN,
    which the optimizer names at a probe.
    """
    x, w = _gh_nodes()
    root = np.sqrt(2.0 * var)
    g, dg = fn(mu[:, None] + root[:, None] * x[None, :])
    d_root = (dg @ (w * x)) / np.sqrt(np.pi)
    d_var = np.divide(d_root, root, out=np.zeros_like(d_root), where=root > 0)
    return (g @ w) / np.sqrt(np.pi), (dg @ w) / np.sqrt(np.pi), d_var


class _DataTerm:
    """A likelihood whose ``moments`` give ``E_q[log p(y_i | f_i)]`` and its
    derivatives from one evaluation."""

    def variational_expectations(self, mu, var, y):
        """``E[log p(y_i | f_i)]`` under ``f_i ~ N(mu_i, var_i)``: the value part of
        ``moments``, for targets the likelihood accepts, one per mean."""
        mu, var, shape = _checked_moments_input(mu, var)
        if np.shape(y) != shape:
            raise ValueError(f"y shape {np.shape(y)} != mu shape {shape}")
        return self.moments(mu, var, self.validate_targets(np.ravel(y)))[0].reshape(shape)

    def total(self, values, kl) -> float:
        """The elbo from the per-row ``values`` of ``moments``: their exact sum minus ``kl``."""
        return math.fsum(values) - kl


class _QuadratureTerm(_DataTerm):
    """A likelihood whose expectations are Gauss-Hermite sums of its log density,
    given with its derivative in ``f`` by ``_log_density_and_slope(f, y)``."""

    def log_density(self, f, y):
        return self._log_density_and_slope(f, y)[0]

    def moments(self, mu, var, y):
        """As :meth:`GaussianNoise.moments`, from one evaluation of the log density
        and its slope at the nodes."""
        y = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
        return (*_gauss_hermite(lambda f: self._log_density_and_slope(f, y), mu, var), {})


@dataclass(frozen=True)
class GaussianNoise(_DataTerm):
    """Homoskedastic Gaussian observation noise."""

    noise_var: float

    def __post_init__(self):
        if not 0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var}")
        object.__setattr__(self, "noise_var", float(self.noise_var))

    def validate_targets(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.isfinite(y).all():
            raise ValueError("targets must be finite")
        return y

    def log_density(self, f, y):
        return -0.5 * (
            math.log(2.0 * math.pi * self.noise_var) + (y - f) ** 2 / self.noise_var
        )

    def moments(self, mu, var, y):
        """``(values, d_mu, d_var, d_params)``: the expectations per point, their
        derivatives in ``mu`` and ``var``, and the derivatives of their sum in
        the likelihood's own parameters by name.  Closed form: quadrature is
        never needed for Gaussian noise."""
        resid = np.asarray(y - mu, dtype=float)
        spread = resid**2 + var
        values = -0.5 * (math.log(2.0 * math.pi * self.noise_var) + spread / self.noise_var)
        # noise_var**2 underflows to 0 on a far probe: numpy division gives
        # inf, which maximize names, where float division would raise
        d_noise = 0.5 * float(spread.sum()) / np.square(self.noise_var)
        d_noise -= 0.5 * resid.size / self.noise_var
        d_var = np.full(resid.shape, -0.5 / self.noise_var)
        return values, resid / self.noise_var, d_var, {"noise_var": d_noise}


@dataclass(frozen=True)
class BernoulliProbit(_QuadratureTerm):
    """Binary labels in {-1, +1} through a probit link."""

    def validate_targets(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.all(np.isin(y, (-1.0, 1.0))):
            bad = y[~np.isin(y, (-1.0, 1.0))][:5]
            raise ValueError(f"labels must be -1 or +1, got values like {bad.tolist()}")
        return y

    def _log_density_and_slope(self, f, y):
        # d/df log Phi(y f) = y phi(y f) / Phi(y f), in logs for the tails
        z = y * f
        log_cdf = log_ndtr(z)
        return log_cdf, y * np.exp(-0.5 * (z * z + LOG_2PI) - log_cdf)


@dataclass(frozen=True)
class PoissonCounts(_QuadratureTerm):
    """Poisson counts with an exponential link and a fixed bin width.

    The rate over a bin is ``bin_width * exp(f)``.
    """

    bin_width: float = 1.0

    def __post_init__(self):
        if not 0 < self.bin_width < math.inf:
            raise ValueError(f"bin_width must be positive and finite, got {self.bin_width}")
        object.__setattr__(self, "bin_width", float(self.bin_width))

    def validate_targets(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if not np.isfinite(y).all() or np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("counts must be finite nonnegative integers")
        return y

    def _log_density_and_slope(self, f, y):
        rate = self.bin_width * np.exp(f)
        return y * (f + math.log(self.bin_width)) - rate - gammaln(y + 1.0), y - rate


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
    numbers = all(is_json_number(v) for k, v in record.items() if k != "kind")
    if numbers and kind == "gaussian" and set(record) == {"kind", "noise_var"}:
        return GaussianNoise(record["noise_var"])
    if kind == "bernoulli" and set(record) == {"kind"}:
        return BernoulliProbit()
    if numbers and kind == "poisson" and set(record) <= {"kind", "bin_width"}:
        return PoissonCounts(record.get("bin_width", 1.0))
    if kind not in ("gaussian", "bernoulli", "poisson"):
        raise ValueError(f"unknown likelihood kind {kind!r}")
    raise ValueError(f"malformed {kind} likelihood record: {record!r}")


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
        _stack(features, self.kernel)  # nonempty, each of the kernel's dimension
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
        if (q_chol.T[_triangle(M)[0]] != 0.0).any():
            raise ValueError("q_chol must be lower triangular")
        if (q_chol.diagonal() <= 0).any():
            raise ValueError("q_chol must have a strictly positive diagonal")
        for name, value in (("q_mean", q_mean), ("q_chol", q_chol)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "q_mean", q_mean)
        object.__setattr__(self, "q_chol", q_chol)

    def q_dist(self) -> GaussianDist:
        return GaussianDist(self.q_mean, self.q_chol @ self.q_chol.T)

    def prior_dist(self) -> GaussianDist:
        """p(u) as every evaluation factors it: ``Kuu`` at the fixed jitter."""
        Kuu, _, jitter = _factor_Kuu(self.features, self.kernel)
        M = Kuu.shape[0]
        return GaussianDist(np.full(M, self.kernel.mean_const), Kuu + jitter * np.eye(M))

    def whiten(self, Luu=None) -> "WhitenedState":
        """q whitened against ``Luu``, by default the factor of ``Kuu`` at the fixed jitter."""
        Luu = _factor_Kuu(self.features, self.kernel)[1] if Luu is None else Luu
        alpha = solve_triangular(Luu, self.q_mean - self.kernel.mean_const, lower=True)
        half = solve_triangular(Luu, self.q_chol, lower=True)
        return WhitenedState(self.features, alpha, half, self.kernel, self.likelihood)


@dataclass(frozen=True)
class WhitenedState:
    """A variational state with q(u) whitened against ``Luu``, the factor of ``Kuu`` at
    the fixed jitter: ``q_mean = m_u + Luu alpha``, ``q_chol = Luu half``.  The fits
    move these coordinates, and every evaluation consumes them without a solve;
    ``half`` (lower triangular, positive diagonal) is not checked."""

    features: tuple
    alpha: np.ndarray
    half: np.ndarray
    kernel: Kernel
    likelihood: object = None

    def whiten(self, Luu=None) -> "WhitenedState":
        return self

    def to_state(self, Luu=None) -> SVGPState:
        """The same q unwhitened against ``Luu`` (by default Kuu's factor), as checkpoints store it."""
        Luu = _factor_Kuu(self.features, self.kernel)[1] if Luu is None else Luu
        q_mean = self.kernel.mean_const + Luu @ self.alpha
        return SVGPState(self.features, q_mean, Luu @ self.half, self.kernel, self.likelihood)


def _factor_Kuu(features, kernel: Kernel):
    """``(Kuu, Luu, jitter)``, always at the fixed jitter of :func:`cholesky_jittered`:
    no objective jumps where a plain factor would start or stop succeeding."""
    Kuu = assemble_Kuu(features, kernel)
    return (Kuu, *cholesky_jittered(Kuu))


class _FeatureFactors:
    """The q-independent half of one evaluation at the rows of ``X``.

    The data term ``lik`` (a likelihood, or a ``CoxModel``), validated inputs
    (``Y`` against ``lik`` when given), the features stacked once, ``Kuu`` and
    ``Luu`` (:func:`_factor_Kuu`), ``Kuf`` and ``A = Luu^-1 Kuf`` (M x n).
    """

    def __init__(self, features, kernel: Kernel, X, Y=None, lik=None):
        if Y is not None and lik is None:
            raise ValueError("no likelihood given and the state carries none")
        self.kernel, self.lik = kernel, lik
        self.X = as_points(X, kernel.input_dim)
        self.Y = None if Y is None else lik.validate_targets(Y)
        if Y is not None and self.Y.shape[0] != self.X.shape[0]:
            raise ValueError(f"{self.X.shape[0]} inputs but {self.Y.shape[0]} targets")
        self.features = _stack(features, kernel)
        self.Kuu, self.Luu, self.jitter = _factor_Kuu(self.features, kernel)
        self.Kuf = assemble_Kuf(self.features, kernel, self.X)
        self.A = solve_triangular(self.Luu, self.Kuf, lower=True)


class _WhitenedPass:
    """The q half of one evaluation, and its reverse pass.

    q(u) enters whitened, as ``alpha`` and ``half`` with ``q_mean = m_u + Luu alpha``
    and ``S = Luu half half^T Luu^T``.  With ``A`` of ``factors``:

        mean  = m + A^T alpha
        var   = kff - colsum(A * A) + colsum((half^T A)^2),  clamped at 0
        kl    = 1/2 (||half||_F^2 + ||alpha||^2 - M) - log |det half|,  clamped at 0

    which is KL(q(u) || p(u)) in the form of :func:`mvn_kl` for the prior
    ``N(m_u, Luu Luu^T)``.  ``half`` is lower triangular, also at the
    collapsed optimum (``UB^-T``, see :func:`_collapsed_factors`).
    """

    def __init__(self, factors, alpha, half):
        A = factors.A
        self.factors, self.alpha, self.half = factors, alpha, half
        self.mean = factors.kernel.mean_const + A.T @ alpha
        T = half.T @ A
        var = factors.kernel.variance - (A * A).sum(axis=0)
        var += (T * T).sum(axis=0)
        self.positive = var > 0.0
        self.var = np.maximum(var, 0.0)
        kl = 0.5 * (float((half * half).sum()) + float(alpha @ alpha) - A.shape[0])
        self.kl = max(kl - float(np.log(half.diagonal()).sum()), 0.0)

    @classmethod
    def at_state(cls, state, X, Y=None, lik=None):
        """The pass at the state's own q, whitened if need be, with the data term
        ``lik``: by default the state's likelihood, for Cox the ``CoxModel``."""
        f = _FeatureFactors(state.features, state.kernel, X, Y, lik or state.likelihood)
        w = state.whiten(f.Luu)
        return cls(f, w.alpha, w.half)

    def rows(self, X):
        """The pass at the same q over other rows ``X``, without targets or data term: the
        same stacked features, kernel, ``Kuu``, ``Luu`` and jitter, a new ``Kuf`` and ``A``."""
        f = copy.copy(self.factors)
        f.X, f.Y, f.lik = as_points(X, f.kernel.input_dim), None, None
        f.Kuf = assemble_Kuf(f.features, f.kernel, f.X)
        f.A = solve_triangular(f.Luu, f.Kuf, lower=True)
        return _WhitenedPass(f, self.alpha, self.half)

    def moments(self):
        """The data term's ``(values, d_mean, d_var, d_params)`` at this pass's marginals."""
        f = self.factors
        return f.lik.moments(self.mean, self.var, f.Y)

    def value(self):
        """The elbo: the data term's ``total`` of its per-row values against the KL."""
        return self.factors.lik.total(self.moments()[0], self.kl)

    def value_and_grad(self):
        """:meth:`value` and its gradient (see :func:`elbo_and_grad`), from one
        ``moments`` call of the data term."""
        values, d_mean, d_var, d_lik = self.moments()
        grads = self.backward(d_mean, d_var)
        grads.update(d_lik)
        return self.factors.lik.total(values, self.kl), grads

    def backward(self, d_mean, d_var) -> dict:
        """Gradient of ``data - kl`` with q held in whitened coordinates, where
        ``d_mean``/``d_var`` are the derivatives of the data term in
        ``mean``/``var``; keyed ``alpha``, ``half_diag``, ``half_lower`` (the
        blocks the fits move), ``kernel_mean`` and as :func:`assemble_vjp`.

        Plain reverse mode through the forward pass.  With ``g_var`` the
        unclamped part of ``d_var``, q's cotangents need no solve:

            d/dalpha = A d_mean - alpha
            d/dhalf  = tril(2 A diag(g_var) A^T half - half) + diag(1 / half_ii)

        ``A``'s, ``2 (half half^T - I) A diag(g_var) + alpha d_mean^T``, goes back
        through ``Luu^-T`` in one solve, ``R = Luu^-T [2 (half half^T - I) | alpha]``:

            d/dKuf = R_1 A diag(g_var) + r_alpha d_mean^T
            d/dLuu = -R_1 A diag(g_var) A^T - r_alpha (A d_mean)^T      (= -d/dKuf A^T)

        The Cholesky pullback (Murray 2016, arXiv:1602.07527),
        ``sym(Luu^-T Phi(Luu^T d/dLuu) Luu^-1)`` with ``Phi`` the lower triangle
        at half diagonal, takes ``Luu`` to ``Kuu``, and the fixed jitter passes
        its share of the trace back.  At most two M x n arrays beyond the
        pass's own are alive at a time.
        """
        f, alpha, half, Luu = self.factors, self.alpha, self.half, self.factors.Luu
        A, M = f.A, Luu.shape[0]
        lower, diag, tril = _triangle(M)
        g_var = np.where(self.positive, d_var, 0.0)
        Ag, AvAt = A @ d_mean, (A * g_var) @ A.T
        R = np.concatenate([2.0 * (half @ half.T - np.eye(M)), alpha[:, None]], axis=1)
        R = solve_triangular(Luu, R, lower=True, trans=1)
        d_Kuf = R[:, :M] @ A
        d_Kuf *= g_var
        d_Kuf += np.multiply.outer(R[:, M], d_mean)
        d_Luu = -(R[:, :M] @ AvAt) - np.multiply.outer(R[:, M], Ag)
        Phi = np.where(tril, Luu.T @ d_Luu, 0.0)
        Phi[diag] *= 0.5
        Z = solve_triangular(Luu, Phi, lower=True, trans=1)
        Z = solve_triangular(Luu, Z.T, lower=True, trans=1)
        d_Kuu = 0.5 * (Z + Z.T)
        d_Kuu[diag] += f.jitter / f.Kuu.trace() * d_Kuu.trace()
        d_Kuu *= f.Kuu
        d_Kuf *= f.Kuf
        grads = assemble_vjp(f.features, f.kernel, f.X, d_Kuu, d_Kuf)
        grads["kernel_variance"] += float(g_var.sum())
        grads["kernel_mean"] = float(d_mean.sum())
        grads["alpha"] = Ag - alpha
        d_half = 2.0 * (AvAt @ half) - half
        grads["half_diag"] = d_half.diagonal() + 1.0 / half.diagonal()
        grads["half_lower"] = d_half[lower]
        return grads


def predictive_marginals(state: SVGPState, Xstar):
    """Marginal predictive means and variances of the latent function.

    Means and variances come from extending q(u) with the prior
    conditional:

        mean = m + Kfu Kuu^-1 (q_mean - m_u)
        var  = kff - diag(Kfu Kuu^-1 Kuf) + diag(Kfu Kuu^-1 S Kuu^-1 Kuf)

    computed through ``Luu``, the factor of Kuu at the fixed jitter, from q
    in whitened form (see :class:`_WhitenedPass`); ``state`` may also be a
    :class:`WhitenedState`.  Raises ``NotPositiveDefiniteError``, carrying
    the fixed jitter, if Kuu cannot be factorized at it.
    """
    fp = _WhitenedPass.at_state(state, Xstar)
    return fp.mean, fp.var


def elbo(state: SVGPState, X, Y) -> float:
    """Evidence lower bound: expected log likelihood minus KL(q(u) || p(u))."""
    return _WhitenedPass.at_state(state, X, Y).value()


def elbo_and_grad(state: SVGPState, X, Y):
    """:func:`elbo` and its exact gradient from one forward and one reverse pass.

    The gradient is a dict of model-space derivatives, keyed as in
    :meth:`_WhitenedPass.backward`, plus the likelihood's own parameters
    (``noise_var`` for Gaussian noise).  Also for an :class:`SVGPState`, q's
    entries are the whitened blocks of :class:`WhitenedState`, held fixed by the others.
    """
    return _WhitenedPass.at_state(state, X, Y).value_and_grad()


def _collapsed_factors(f: _FeatureFactors):
    """What the collapsed routines add to the shared ``A``, with ``r = Y - m_X``
    and ``noise_var`` that of ``f``'s Gaussian noise:

        B = I + A A^T / noise_var = UB UB^T,   c = UB^-1 A r / noise_var

    ``UB`` (M x M, upper) factors ``B`` in reverse order, so that the optimal
    q's ``half = UB^-T`` is lower triangular like every state's.  ``B`` is
    positive definite in exact arithmetic; when round-off at a tiny
    ``noise_var`` breaks that, :class:`NotPositiveDefiniteError` says so.
    """
    noise_var = f.lik.noise_var
    B = np.eye(f.A.shape[0]) + (f.A @ f.A.T) / noise_var
    try:
        UB = cholesky(B[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "I + A A^T / noise_var is not positive definite in floating point "
            f"at noise_var {noise_var:.3e}: the collapsed bound cannot be evaluated",
            0.0,
        ) from None
    c = solve_triangular(UB, f.A @ (f.Y - f.kernel.mean_const), lower=False) / noise_var
    return UB, c


def _optimal_whitened_q(UB, c):
    """``(alpha, half) = (UB^-T c, UB^-T)``: the optimal q(u) for Gaussian noise
    (Titsias 2009), whose whitened moments are ``B^-1 A r / noise_var`` and ``B^-1``."""
    half = solve_triangular(UB, np.eye(UB.shape[0]), lower=False, trans=1)
    return half @ c, half


def _collapsed_value(f: _FeatureFactors, UB, c) -> float:
    """:func:`collapsed_bound` from the factors of :func:`_collapsed_factors`."""
    noise_var = f.lik.noise_var
    r = f.Y - f.kernel.mean_const
    n = r.shape[0]
    fit = -0.5 * (
        n * math.log(2.0 * math.pi * noise_var)
        + 2.0 * float(np.log(UB.diagonal()).sum())
        + float(r @ r) / noise_var
        - float(c @ c)
    )
    trace_term = (n * f.kernel.variance - float((f.A * f.A).sum())) / (2.0 * noise_var)
    return fit - trace_term


def collapsed_optimal_q(features, kernel: Kernel, X, Y, noise_var: float) -> WhitenedState:
    """Optimal q(u) for Gaussian noise as a :class:`WhitenedState`, in closed form.

    With Kuu + Kuf Kfu / noise_var = Luu UB UB^T Luu^T (see
    :func:`_collapsed_factors`), :meth:`WhitenedState.to_state` gives

        S_opt = Luu UB^-T UB^-1 Luu^T,   m_opt = m_u + Luu UB^-T c

    on the factor of Kuu that :func:`collapsed_bound` and :func:`elbo` use,
    so the elbo there equals the collapsed bound even when Kuu needs jitter.
    No covariance is formed.  O(n M^2) time, O(n M) memory.
    """
    f = _FeatureFactors(features, kernel, X, Y, GaussianNoise(noise_var))
    return WhitenedState(features, *_optimal_whitened_q(*_collapsed_factors(f)), kernel, f.lik)


def collapsed_bound(features, kernel: Kernel, X, Y, noise_var: float) -> float:
    """Collapsed bound for Gaussian noise.

        log N(Y | m_X, Qff + noise_var I) - tr(Kff - Qff) / (2 noise_var)

    with ``Qff = Kfu Kuu^-1 Kuf = A^T A``.  Equals the elbo at the optimal
    q(u), and the exact log marginal likelihood when the features
    interpolate the data exactly.  Evaluated in the whitened factors of
    :func:`_collapsed_factors` by Woodbury and the matrix determinant
    lemma:

        -1/2 (n log(2 pi noise_var) + 2 sum log diag UB
              + r^T r / noise_var - c^T c)
        - (n kff - ||A||_F^2) / (2 noise_var)

    O(n M^2) time, O(n M) memory; no n x n matrix is formed.
    """
    f = _FeatureFactors(features, kernel, X, Y, GaussianNoise(noise_var))
    return _collapsed_value(f, *_collapsed_factors(f))


def collapsed_bound_and_grad(state: SVGPState, X, Y):
    """:func:`collapsed_bound` and its gradient from one forward and one reverse pass.

    The pass is the elbo's at the optimal q(u) of :func:`_optimal_whitened_q`.
    By the envelope theorem the gradient is the elbo's with q held there; its
    q entries are reported as 0.
    """
    lik = state.likelihood
    if not isinstance(lik, GaussianNoise):
        raise ValueError(f"the collapsed bound needs Gaussian noise, got {lik!r}")
    f = _FeatureFactors(state.features, state.kernel, X, Y, lik)
    value, grads = _WhitenedPass(f, *_optimal_whitened_q(*_collapsed_factors(f))).value_and_grad()
    for key in ("alpha", "half_diag", "half_lower"):
        grads[key] = np.zeros_like(grads[key])
    return value, grads


def _fitted_pass(fitted: WhitenedState, X, Y=None, lik=None):
    """``(state, pass, bound)`` after a fit, from one :class:`_FeatureFactors` over ``X``,
    with the data term ``lik`` (by default the fitted likelihood; for Cox the model).

    For Gaussian noise q moves to its closed-form optimum (the collapsed bound leaves
    it at the prior) and ``bound`` is :func:`collapsed_bound` from the same ``(UB, c)``;
    else ``bound`` is None.  ``state`` is the :class:`SVGPState` a checkpoint stores, and
    the pass is at it whitened against ``Luu``, as :func:`elbo` evaluates a reload.
    """
    f = _FeatureFactors(fitted.features, fitted.kernel, X, Y, lik or fitted.likelihood)
    bound = None
    if isinstance(f.lik, GaussianNoise):
        UB, c = _collapsed_factors(f)
        fitted = WhitenedState(fitted.features, *_optimal_whitened_q(UB, c), fitted.kernel, f.lik)
        bound = _collapsed_value(f, UB, c)
    state = fitted.to_state(f.Luu)
    w = state.whiten(f.Luu)
    return state, _WhitenedPass(f, w.alpha, w.half), bound


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
    depths = {"variance": 0, "lengthscales": 1, "mean_const": 0}
    if not isinstance(kern, dict) or set(kern) != set(depths) or not all(
        is_json_number(kern[k], depth) for k, depth in depths.items()
    ):
        raise ValueError(f"malformed kernel record: {kern!r}")
    for key, depth in (("q_mean", 1), ("q_chol", 2)):
        value = record[key]
        # numpy reads nested lists as an array only when every row has one shape
        valid = is_json_number(value, depth)
        if not valid or (isinstance(value, list) and len(set(map(np.shape, value))) > 1):
            raise ValueError(f"malformed {key} record: {value!r}")
    if not isinstance(record["features"], list):
        raise ValueError(f"malformed features record: {record['features']!r}")
    lik = record["likelihood"]
    return SVGPState(
        features=tuple(feature_from_dict(g) for g in record["features"]),
        q_mean=record["q_mean"],
        q_chol=record["q_chol"],
        kernel=Kernel(kern["variance"], kern["lengthscales"], kern["mean_const"]),
        likelihood=None if lik is None else likelihood_from_dict(lik),
    )


def save_checkpoint(state: SVGPState, path):
    """Write the state as JSON; floats round-trip exactly."""
    write_json(path, to_checkpoint_dict(state))


def load_checkpoint(path) -> SVGPState:
    with open(path, "r", encoding="utf-8") as fh:
        return from_checkpoint_dict(json.load(fh))
