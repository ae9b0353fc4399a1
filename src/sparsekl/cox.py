"""Poisson process inference with a Gaussian process intensity.

The intensity is a deterministic link of the latent process,
``rho(f(x))``, observed through an inhomogeneous Poisson process on a
hyper-rectangle.  The variational objective needs two link moments per
location, the expected rate and the expected log rate at an event, and
one domain integral of the expected rate, handled by a fixed
Gauss-Legendre grid:

    objective = -KL(q(u) || p(u))
                + sum_events E[log rho(f_y)]
                - sum_grid w_g E[rho(f_g)].

Both links have both moments in closed form, the square link's log
moment through Dawson's function.  The model is the data term of the
sparse pass over its events and grid nodes, as a likelihood is over its
data: :meth:`CoxModel.moments`
gives each row's term and its derivatives in mean and variance from one
evaluation of each link moment, and :meth:`CoxModel.total` turns the rows
and the KL into the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import dawsn, digamma

from .interdomain import _gl_nodes
from .kernels import as_points
from .svgp import (
    SVGPState,
    _WhitenedPass,
    _checked_moments_input,
    predictive_marginals,
)

__all__ = [
    "CoxModel",
    "legendre_grid",
    "expected_rate",
    "expected_log_rate",
    "CoxTerms",
    "cox_elbo_terms",
    "cox_elbo",
    "cox_elbo_and_grad",
    "fitted_intensity",
    "sample_inhomogeneous_pp",
]

LINKS = ("exp", "square")


@dataclass(frozen=True)
class CoxModel:
    """Events on a hyper-rectangle with a link choice and quadrature orders."""

    lower: np.ndarray
    upper: np.ndarray
    events: np.ndarray
    link: str = "exp"
    quad_orders: tuple = None

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError(
                f"domain bounds must be equal-length vectors, got shapes "
                f"{lower.shape} and {upper.shape}"
            )
        d = lower.shape[0]
        if d not in (1, 2):
            raise ValueError(f"domain must be 1- or 2-dimensional, got {d}")
        if np.any(lower >= upper):
            raise ValueError(
                f"domain must have positive volume: lower {lower.tolist()}, "
                f"upper {upper.tolist()}"
            )
        events = np.asarray(self.events, dtype=float)
        if events.size == 0:
            events = np.zeros((0, d))
        events = as_points(events, d)
        if np.any(events < lower) or np.any(events > upper):
            raise ValueError("every event must lie inside the domain")
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}; expected one of {LINKS}")
        orders = self.quad_orders
        if orders is None:
            orders = (50,) if d == 1 else (20,) * d
        orders = tuple(np.atleast_1d(orders).tolist())
        if len(orders) != d or any(not float(o).is_integer() or o < 2 for o in orders):
            raise ValueError(
                f"need one integer quadrature order >= 2 per dimension, got {orders}"
            )
        orders = tuple(int(o) for o in orders)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "quad_orders", orders)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def n_events(self) -> int:
        return self.events.shape[0]

    @cached_property
    def grid(self):
        """Read-only Gauss-Legendre nodes and weights of the integral term,
        built once per model."""
        pts, wts = legendre_grid(self.lower, self.upper, self.quad_orders)
        pts.flags.writeable = False
        wts.flags.writeable = False
        return pts, wts

    @cached_property
    def points(self) -> np.ndarray:
        """Read-only events then grid nodes: the rows every evaluation of the
        objective covers in one predictive pass, stacked once per model."""
        pts = np.vstack([self.events, self.grid[0]])
        pts.flags.writeable = False
        return pts

    def moments(self, mu, var, y=None):
        """``(values, d_mu, d_var, d_params)`` over :attr:`points`, as a likelihood's
        ``moments``: ``E[log rho]`` at an event row and ``-w E[rho]`` at a grid
        row of weight ``w``, with their derivatives in ``mu`` and ``var``.  Their
        sum is the objective plus the KL.  ``y`` is unused: the events are the model's.
        """
        ne, wts = self.n_events, self.grid[1]
        events = _log_rate_moments(self.link, mu[:ne], var[:ne])
        nodes = _rate_moments(self.link, mu[ne:], var[ne:])
        values, d_mu, d_var = (np.concatenate([e, -wts * n]) for e, n in zip(events, nodes))
        return values, d_mu, d_var, {}

    def terms(self, values, kl) -> "CoxTerms":
        """The objective's terms from the rows of :meth:`moments` and ``kl``.

        The event and integral sums stay apart, each exact, so the total keeps its
        order and a +inf event sum never meets a -inf integral row in one sum.
        """
        ne = self.n_events
        # 0.0 - keeps an all-zero integral +0.0
        return CoxTerms(kl, math.fsum(values[:ne]), 0.0 - math.fsum(values[ne:]))

    def total(self, values, kl) -> float:
        """The objective, :attr:`CoxTerms.total` of :meth:`terms`."""
        return self.terms(values, kl).total


def legendre_grid(lower, upper, orders):
    """Tensor-product Gauss-Legendre nodes and weights on a rectangle."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    axes, weights = [], []
    for lo, hi, order in zip(lower, upper, orders):
        x, w = _gl_nodes(int(order))
        axes.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
        weights.append(0.5 * (hi - lo) * w)
    return _tensor_grid(axes), _tensor_grid(weights).prod(axis=1)


def _tensor_grid(axes):
    """One row per combination of the entries of the 1-d ``axes``, the last fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


def expected_rate(link, mu, var):
    """``E[rho(f)]`` under ``f ~ N(mu, var)``, in closed form for both links: the
    value part of :func:`_rate_moments`."""
    mu, var, shape = _checked_moments_input(mu, var)
    return _rate_moments(link, mu, var)[0].reshape(shape)


def expected_log_rate(link, mu, var):
    """``E[log rho(f)]`` under ``f ~ N(mu, var)``.

    Exact for both links, for the square link through Dawson's function
    (:func:`_square_log_moments`).  The value part of :func:`_log_rate_moments`.
    """
    mu, var, shape = _checked_moments_input(mu, var)
    return _log_rate_moments(link, mu, var)[0].reshape(shape)


def _rate_moments(link, mu, var):
    """:func:`expected_rate` and its derivatives in ``mu`` and ``var``, from the one rate."""
    if link == "exp":
        # inf on overflow is the right limit; callers reject such states
        with np.errstate(over="ignore"):
            rate = np.exp(mu + 0.5 * var)
        return rate, rate, 0.5 * rate
    if link == "square":
        return mu * mu + var, 2.0 * mu, np.ones_like(var)
    raise ValueError(f"unknown link {link!r}")


def _log_rate_moments(link, mu, var):
    """:func:`expected_log_rate` and its derivatives in ``mu`` and ``var``, float vectors."""
    if link == "exp":
        return mu.copy(), np.ones_like(mu), np.zeros_like(var)
    if link == "square":
        return _square_log_moments(mu, var)
    raise ValueError(f"unknown link {link!r}")


# c_n = (2n - 1)!! / (2^(n + 1) 2n), n = 1..12, for _square_log_moments
_TAIL_N = np.arange(1.0, 13.0)
_TAIL_C = np.cumprod(2.0 * _TAIL_N - 1.0) / (2.0 ** (_TAIL_N + 1.0) * 2.0 * _TAIL_N)


def _square_log_moments(mu, var):
    """``E[log f^2]`` under ``f ~ N(mu, var)`` and its derivatives, exact (Lloyd et al. 2015,
    arXiv:1411.0254): with ``z = mu / sqrt(2 var)`` and F Dawson's function, the value is
    ``log(2 var) + psi(1/2) + 4 int_0^z F``, ``d/dmu = 2 sqrt(2 / var) F(z)`` and
    ``d/dvar = (1 - 2 z F(z)) / var``.  Beyond |z| = 8 the asymptotic series of F gives
    ``log mu^2 - 4 sum_n c_n y^n`` in ``y = 2 var / mu^2``, to 1e-15.  At ``var = 0``
    the value is ``log mu^2`` exactly, -inf at ``mu = 0``."""
    t, w = _gl_nodes(48)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = mu / np.sqrt(2.0 * var)
        near = np.abs(z) <= 8.0
        z, v = np.where(near, z, 0.0), np.where(near, var, 1.0)
        F, integral = dawsn(z), 2.0 * z * (dawsn(np.multiply.outer(z, 0.5 * (t + 1.0))) @ w)
        # mu * mu underflows to 0 below |mu| = 1e-162, where 0 / 0 would give NaN
        y = np.where(near | (var == 0.0), 0.0, 2.0 * var / (mu * mu))
        log_sq = np.where(var > 0.0, np.log(mu * mu), 2.0 * np.log(np.abs(mu)))
        y_n1 = y[:, None] ** (_TAIL_N - 1.0)  # y^(n - 1)
        tail, d_tail = (y_n1 * y[:, None]) @ _TAIL_C, y_n1 @ (_TAIL_N * _TAIL_C)
        return (
            np.where(near, np.log(2.0 * v) + digamma(0.5) + integral, log_sq - 4.0 * tail),
            np.where(near, 2.0 * np.sqrt(2.0 / v) * F, (2.0 + 8.0 * y * d_tail) / mu),
            np.where(near, (1.0 - 2.0 * z * F) / v, -8.0 * d_tail / (mu * mu)),
        )


@dataclass(frozen=True)
class CoxTerms:
    kl_term: float
    event_term: float
    integral_term: float

    @property
    def total(self) -> float:
        """The objective, ``-kl_term + event_term - integral_term``."""
        return -self.kl_term + self.event_term - self.integral_term


def cox_elbo_terms(state: SVGPState, model: CoxModel) -> CoxTerms:
    """The three pieces of the objective, each summed in a fixed exact order."""
    fp = _WhitenedPass.at_state(state, model.points, lik=model)
    return model.terms(fp.moments()[0], fp.kl)


def cox_elbo(state: SVGPState, model: CoxModel) -> float:
    """Variational objective: the value of the pass over ``model.points`` with the
    model as its data term, :attr:`CoxTerms.total` of :func:`cox_elbo_terms`."""
    return _WhitenedPass.at_state(state, model.points, lik=model).value()


def cox_elbo_and_grad(state: SVGPState, model: CoxModel):
    """:func:`cox_elbo` and its exact gradient, keyed as in
    :func:`sparsekl.svgp.elbo_and_grad`."""
    return _WhitenedPass.at_state(state, model.points, lik=model).value_and_grad()


def fitted_intensity(state: SVGPState, model: CoxModel, Xstar) -> np.ndarray:
    """Posterior expected intensity ``E_q[rho(f(x))]`` at the given points."""
    Xstar = as_points(Xstar, model.dim)
    mu, var = predictive_marginals(state, Xstar)
    return np.asarray(expected_rate(model.link, mu, var))


def sample_inhomogeneous_pp(
    intensity,
    upper_bound: float,
    lower,
    upper,
    seed: int,
):
    """Draw one realization of a Poisson process by thinning.

    ``intensity`` maps a (n, d) array of locations to nonnegative rates;
    ``upper_bound`` must dominate it on the whole rectangle.  The bound
    is spot-checked on a grid of 64 points per axis before sampling and a
    violation reports the offending grid point.  Fixed seed, fixed draw order: the same
    arguments give the same events.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or np.any(lower >= upper):
        raise ValueError("domain bounds must satisfy lower < upper elementwise")
    if upper_bound <= 0:
        raise ValueError(f"upper_bound must be positive, got {upper_bound}")
    d = lower.shape[0]
    grid = _tensor_grid([np.linspace(lo, hi, 64) for lo, hi in zip(lower, upper)])
    vals = np.asarray(intensity(grid), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals < 0):
        raise ValueError("intensity must be finite and nonnegative on the domain")
    worst = int(np.argmax(vals))
    if vals[worst] > upper_bound:
        raise ValueError(
            f"upper_bound {upper_bound} is exceeded at grid point "
            f"{grid[worst].tolist()}: intensity {vals[worst]}"
        )
    rng = np.random.default_rng(seed)
    volume = float(np.prod(upper - lower))
    total = int(rng.poisson(upper_bound * volume))
    proposals = lower + rng.uniform(size=(total, d)) * (upper - lower)
    keep = rng.uniform(size=total) * upper_bound <= np.asarray(
        intensity(proposals), dtype=float
    )
    return proposals[keep]
