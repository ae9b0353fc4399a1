"""Inducing features defined by integrals of the process.

A feature is a scalar random variable obtained from the process ``f``,
the Gaussian-window average

    u = integral N(s; center, diag(widths^2)) f(s) ds,

with the window normalized as a probability density.  A width of 0
evaluates ``f`` in its dimension, so the point evaluation ``u = f(z)`` is
the window of all-zero widths at ``z`` (:func:`PointFeature`), and for the
squared-exponential kernel one broadcast closed form gives every
feature/point and feature/feature covariance.  Adaptive quadrature versions,
for positive widths, are kept alongside as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import Kernel, as_points

__all__ = [
    "PointFeature",
    "GaussianWindowFeature",
    "feature_point_cov",
    "feature_feature_cov",
    "assemble_Kuu",
    "assemble_Kuf",
    "feature_point_cov_quadrature",
    "feature_feature_cov_quadrature",
    "feature_to_dict",
    "feature_from_dict",
]

# absolute tolerance of the quadrature cross-checks of the closed forms
QUADRATURE_ABS_TOL = 1e-9


@dataclass(frozen=True)
class GaussianWindowFeature:
    """Average of the process under a normalized Gaussian window.

    ``widths`` are the per-dimension standard deviations of the window, or
    one scalar for all.  A width of 0 evaluates the process in its dimension;
    all-zero widths are the point evaluation at ``center`` (``location``).
    """

    center: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        w = np.asarray(self.widths, dtype=float)
        w = np.full_like(c, w) if w.ndim == 0 else w
        if c.shape != w.shape or c.ndim != 1:
            raise ValueError(
                f"center and widths must be vectors of equal length, got "
                f"shapes {c.shape} and {w.shape}"
            )
        if not np.isfinite(c).all():
            raise ValueError(f"center must be finite, got {c.tolist()}")
        if not ((w >= 0) & (w < np.inf)).all():
            raise ValueError(f"widths must be finite and nonnegative, got {w.tolist()}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "widths", w)

    @property
    def location(self) -> np.ndarray:
        return self.center

    @property
    def input_dim(self) -> int:
        return self.center.shape[0]


def PointFeature(location) -> GaussianWindowFeature:
    """Point evaluation ``u = f(location)``: the window of width 0 at ``location``."""
    return GaussianWindowFeature(location, 0.0)


def _check_dim(feature, kernel: Kernel):
    if feature.input_dim != kernel.input_dim:
        raise ValueError(
            f"feature has dimension {feature.input_dim}, kernel expects "
            f"{kernel.input_dim}"
        )


def _check_quadrature(feature, kernel: Kernel):
    """The quadrature checks integrate a window density, which needs positive widths."""
    _check_dim(feature, kernel)
    if not np.all(feature.widths > 0):
        raise ValueError(f"quadrature check needs positive widths, got {feature.widths.tolist()}")


class _Stack(tuple):
    """Centres and widths of M features as two (M, d) arrays, checked
    against a kernel's dimension by :func:`_stack`.  The covariance
    routines take one in place of the features, so that one evaluation
    stacks its features once."""


def _stack(features, kernel: Kernel) -> _Stack:
    """Centres and widths of ``features``; a :class:`_Stack` is returned as it is."""
    if isinstance(features, _Stack):
        return features
    if len(features) == 0:
        raise ValueError("need at least one inducing feature")
    for g in features:
        _check_dim(g, kernel)
    return _Stack((np.array([g.center for g in features]), np.array([g.widths for g in features])))


def _se_cov(kernel: Kernel, A, B, comb) -> np.ndarray:
    """Squared exponential between ``A`` and ``B`` with squared scales ``comb``.

    Broadcasts and reduces over the last axis.  For points ``comb`` is
    ``lengthscale^2``, whose square root is the lengthscale exactly, so
    ``scale`` is 1.0 and the result is bit-identical to
    :func:`kernel_matrix`.  Work is done in place, one dimension at a time,
    because each fresh (M, n) temporary costs as much as the arithmetic on it.
    """
    root = np.sqrt(comb)
    scale = (kernel.lengthscales / root).prod(axis=-1)
    K = None
    for a in range(root.shape[-1]):
        t = A[..., a] - B[..., a]
        t /= root[..., a]
        t *= t
        K = t if K is None else np.add(K, t, out=K)
    K *= -0.5
    np.exp(K, out=K)
    K *= kernel.variance * scale
    return K


def _se_cov_vjp(kernel: Kernel, A, B, comb, Q):
    """Pullback of :func:`_se_cov` for ``Q``, the cotangent of its log.

    With ``log K = log variance + sum(log ell - log(comb) / 2)
    - sum((A - B)^2 / comb) / 2`` every derivative of ``K`` is ``K``
    times one of ``log K``, so ``Q = G * K`` for the cotangent ``G`` of
    ``K`` is all the pullback needs.  Returns the gradients with respect
    to the variance, the lengthscales as they enter ``scale`` (not
    through ``comb``), ``A`` (broadcast shape; ``B`` gets the negative)
    and ``comb`` (broadcast shape).
    """
    total = float(Q.sum())
    Q = Q[..., None]
    t = A - B
    t /= comb
    d_comb = t * t
    d_comb -= 1.0 / comb
    d_comb *= Q
    d_comb *= 0.5
    t *= Q
    np.negative(t, out=t)
    return total / kernel.variance, total / kernel.lengthscales, t, d_comb


def assemble_vjp(features, kernel: Kernel, X, Q_uu, Q_uf) -> dict:
    """Gradients of ``<G_uu, Kuu> + <G_uf, Kuf>`` for the matrices assembled
    by :func:`assemble_Kuu` and :func:`assemble_Kuf`, given
    ``Q_uu = G_uu * Kuu`` and ``Q_uf = G_uf * Kuf`` (elementwise), at
    ``X`` already checked by :func:`as_points`.

    Returns ``kernel_variance`` (float), ``kernel_lengthscales`` (d,),
    ``feature_centers`` and ``feature_widths`` (M, d each; a width enters as
    ``w^2``, so its gradient ``2 w dK/d(w^2)`` is 0 at width 0, for points).

    ``Kuf``'s comb is constant along each row, so its pullback needs only
    row sums: per input dimension one (M, n) difference ``t`` gives
    ``sum_j Q t`` and, squared in place, ``sum_j Q t^2``.
    """
    C, W = _stack(features, kernel)
    ell = kernel.lengthscales
    W2 = W * W
    comb_uu = ell**2 + (W2[:, None, :] + W2[None, :, :])
    var_uu, ell_uu, dc_uu, dcomb_uu = _se_cov_vjp(
        kernel, C[:, None, :], C[None, :, :], comb_uu, Q_uu
    )
    comb_uf = ell**2 + W2
    q_rows = Q_uf.sum(axis=1)
    qt, qt2 = np.empty_like(C), np.empty_like(C)
    for a in range(C.shape[1]):
        t = C[:, a, None] - X[None, :, a]
        qt[:, a] = np.einsum("ij,ij->i", Q_uf, t)
        t *= t
        qt2[:, a] = np.einsum("ij,ij->i", Q_uf, t)
    # the row sums of _se_cov_vjp's d_comb and of its centre term
    dcomb_uf = 0.5 * (qt2 / comb_uf - q_rows[:, None]) / comb_uf
    total_uf = float(q_rows.sum())
    # comb_uu[i, j] holds w_i^2 + w_j^2, comb_uf[i] holds w_i^2
    d_w2 = dcomb_uu.sum(axis=1) + dcomb_uu.sum(axis=0) + dcomb_uf
    d_comb = dcomb_uu.sum(axis=(0, 1)) + dcomb_uf.sum(axis=0)
    return {
        "kernel_variance": var_uu + total_uf / kernel.variance,
        "kernel_lengthscales": ell_uu + total_uf / ell + 2.0 * ell * d_comb,
        "feature_centers": dc_uu.sum(axis=1) - dc_uu.sum(axis=0) - qt / comb_uf,
        "feature_widths": 2.0 * W * d_w2,
    }


def feature_point_cov(feature, kernel: Kernel, X) -> np.ndarray:
    """Covariances ``cov(u, f(x))`` for each row x of ``X``."""
    return assemble_Kuf([feature], kernel, X)[0]


def feature_feature_cov(f1, f2, kernel: Kernel) -> float:
    """Covariance ``cov(u1, u2)`` between two features."""
    return float(assemble_Kuu([f1, f2], kernel)[0, 1])


def assemble_Kuu(features, kernel: Kernel) -> np.ndarray:
    """Feature/feature covariance matrix, exactly symmetric.

    Pairs combine as ``lengthscale^2 + (w1^2 + w2^2)``; adding the widths
    first keeps the sum independent of the order of the pair.
    """
    C, W = _stack(features, kernel)
    W2 = W * W
    comb = kernel.lengthscales**2 + (W2[:, None, :] + W2[None, :, :])
    return _se_cov(kernel, C[:, None, :], C[None, :, :], comb)


def assemble_Kuf(features, kernel: Kernel, X) -> np.ndarray:
    """Feature/point covariance matrix, one row per feature.

    A window of width ``w`` contracts the kernel to a squared exponential
    with per-dimension squared scale ``lengthscale^2 + w^2``.
    """
    C, W = _stack(features, kernel)
    X = as_points(X, kernel.input_dim)
    comb = kernel.lengthscales**2 + W * W
    return _se_cov(kernel, C[:, None, :], X[None, :, :], comb[:, None, :])


@lru_cache(maxsize=16)
def _gl_nodes(order):
    return np.polynomial.legendre.leggauss(order)


def _adaptive_gl(f, lo, hi, abs_tol, order=20, max_depth=40):
    """Adaptive Gauss-Legendre panel integration of a vectorized integrand.

    ``f`` maps a vector of nodes to its values there, shape ``(nodes,)``,
    or to ``k`` integrands at once, shape ``(k, nodes)``; the result is a
    float or a ``(k,)`` array.  The ``k`` integrands share one panel
    tree: a panel is split in two until ``max |left + right - whole|``
    over all components is within its share of ``abs_tol`` (halved at
    each level), so every component meets the tolerance it would meet
    alone, and panels stop splitting at ``max_depth``.
    """
    nodes, weights = _gl_nodes(order)

    def panel(a, b):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * (f(mid + half * nodes) @ weights)

    def recurse(a, b, whole, tol, depth):
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        if np.max(np.abs(left + right - whole)) <= tol or depth >= max_depth:
            return left + right
        return recurse(a, mid, left, 0.5 * tol, depth + 1) + recurse(
            mid, b, right, 0.5 * tol, depth + 1
        )

    total = recurse(lo, hi, panel(lo, hi), abs_tol, 0)
    return float(total) if np.ndim(total) == 0 else total


def _window_density(s, center, width):
    z = (s - center) / width
    return np.exp(-0.5 * z * z) / (width * np.sqrt(2.0 * np.pi))


def feature_point_cov_quadrature(feature, kernel: Kernel, x):
    """Quadrature evaluation of ``cov(u, f(x))`` for a window of positive widths.

    Integrates dimension by dimension (the squared-exponential kernel
    and the window both factorize), each to ``QUADRATURE_ABS_TOL``.
    Bounds extend eight combined widths past the window center and the
    evaluation point.
    """
    _check_quadrature(feature, kernel)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != feature.center.shape:
        raise ValueError(
            f"point has shape {x.shape}, feature has dimension {feature.input_dim}"
        )
    total = kernel.variance
    for a in range(feature.input_dim):
        c, w = feature.center[a], feature.widths[a]
        ell = kernel.lengthscales[a]
        reach = 8.0 * np.hypot(w, ell)
        lo = min(c, x[a]) - reach
        hi = max(c, x[a]) + reach

        def integrand(s, a=a, c=c, w=w, ell=ell):
            return _window_density(s, c, w) * np.exp(-0.5 * ((s - x[a]) / ell) ** 2)

        total *= _adaptive_gl(integrand, lo, hi, QUADRATURE_ABS_TOL)
    return float(total)


def feature_feature_cov_quadrature(f1, f2, kernel: Kernel):
    """Nested quadrature evaluation of ``cov(u1, u2)`` for windows of positive widths:
    per dimension, the outer integral to ``QUADRATURE_ABS_TOL``, the inner to a tenth of it."""
    _check_quadrature(f1, kernel)
    _check_quadrature(f2, kernel)
    total = kernel.variance
    for a in range(f1.input_dim):
        c1, w1 = f1.center[a], f1.widths[a]
        c2, w2 = f2.center[a], f2.widths[a]
        ell = kernel.lengthscales[a]
        s_lo = c1 - 8.0 * np.hypot(w1, ell)
        s_hi = c1 + 8.0 * np.hypot(w1, ell)
        t_lo = c2 - 8.0 * np.hypot(w2, ell)
        t_hi = c2 + 8.0 * np.hypot(w2, ell)

        def outer(s_vec):
            # The inner integral at every outer node, as one vector-valued
            # integrand over t with a row per node.
            inner = _adaptive_gl(
                lambda t: _window_density(t, c2, w2)
                * np.exp(-0.5 * ((s_vec[:, None] - t) / ell) ** 2),
                t_lo,
                t_hi,
                0.1 * QUADRATURE_ABS_TOL,
            )
            return _window_density(s_vec, c1, w1) * inner

        total *= _adaptive_gl(outer, s_lo, s_hi, QUADRATURE_ABS_TOL)
    return float(total)


def feature_to_dict(feature) -> dict:
    """JSON-ready record for a feature: ``"point"`` for all-zero widths, else ``"gwindow"``."""
    if not feature.widths.any():
        return {"type": "point", "loc": feature.center.tolist()}
    return {
        "type": "gwindow",
        "center": feature.center.tolist(),
        "widths": feature.widths.tolist(),
    }


def feature_from_dict(record: dict):
    """Inverse of :func:`feature_to_dict`."""
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError(f"feature record must be a dict with a 'type' key: {record!r}")
    kind = record["type"]
    if kind == "point" and set(record) == {"type", "loc"}:
        return PointFeature(record["loc"])
    if kind == "gwindow" and set(record) == {"type", "center", "widths"}:
        return GaussianWindowFeature(record["center"], record["widths"])
    if kind not in ("point", "gwindow"):
        raise ValueError(f"unknown feature type {kind!r}")
    raise ValueError(f"malformed {kind} feature record: {record!r}")
