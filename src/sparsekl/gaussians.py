"""Dense multivariate Gaussian algebra built on Cholesky factorizations.

Everything downstream (the finite-dimensional verification oracle, the
sparse variational bounds, the Cox process objective) reduces to a small
set of operations on explicit mean/covariance pairs: factorize, solve,
marginalize, condition, and compute KL divergences.  All solves go
through Cholesky factors; no explicit matrix inverse is ever formed.

One LAPACK or BLAS call per factorization or triangular solve, with every
right-hand side stacked: :func:`cholesky` and :func:`solve_triangular` call
``dpotrf`` and ``dtrtrs`` (or ``dtrsm`` from the right for a C-ordered
right-hand side, solved without a layout copy) directly, the only route to
them in the package; :func:`cho_solve` is two triangular solves.
The oracle's matrices are at most about 12 x 12, where LAPACK takes
2-3 us and the general wrappers (``np.linalg.cholesky``,
``scipy.linalg.solve_triangular``/``cho_solve``) spend 7-22 us per call
on dispatch, batching and validation.  The kernels keep their shape checks
and ``LinAlgError`` on failure but scan no values: a NaN or inf goes to
LAPACK, which keeps it in its own right-hand-side column of a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dtrtrs

__all__ = [
    "NotPositiveDefiniteError",
    "cholesky",
    "solve_triangular",
    "cho_solve",
    "cholesky_jittered",
    "GaussianDist",
    "AffineConditional",
    "mvn_kl",
    "mvn_logpdf",
    "mvn_marginal",
    "mvn_condition",
    "conditional_from_joint",
    "expected_conditional_kl",
    "joint_from_marginal_and_conditional",
]

LOG_2PI = math.log(2.0 * math.pi)


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix cannot be factorized: by :func:`cholesky` as it is
    (jitter 0), or by :func:`cholesky_jittered` at the fixed jitter.

    Carries the jitter tried in ``jitter`` (0 when none was).
    """

    def __init__(self, message, jitter):
        super().__init__(message)
        self.jitter = jitter

    def __reduce__(self):
        # the default rebuilds from ``args`` alone and loses ``jitter``;
        # a verify worker sends this error to the parent by pickle
        return type(self), (self.args[0], self.jitter), self.__dict__


def cholesky(A):
    """Lower Cholesky factor of ``A`` itself (Fortran-ordered) from one ``dpotrf``.

    Reads the lower triangle only.  Like ``np.linalg.cholesky`` it makes
    no finiteness check: a NaN entry gives a NaN factor, which a fit's
    optimizer then sees as a non-finite objective.  A matrix that is not
    positive definite in floating point, a singular one included, raises
    :class:`NotPositiveDefiniteError` with jitter 0; only ``Kuu`` is jittered.
    """
    L, info = dpotrf(A, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError("Matrix is not positive definite", 0.0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return L


def _check_solve_inputs(L, B):
    """``scipy.linalg``'s shape checks on a factor and right-hand side, with its messages."""
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("expected square matrix")
    if L.shape[0] != B.shape[0]:
        raise ValueError(f"shapes of a {L.shape} and b {B.shape} are incompatible")


def solve_triangular(L, B, *, lower=False, trans=0):
    """``L^-1 B`` (``trans=0``) or ``L^-T B`` (``trans=1``) from one ``dtrtrs``,
    or for a 2-D C-ordered ``B`` from one ``dtrsm``.

    ``B`` is a vector or a matrix of stacked right-hand sides.  A
    C-ordered ``L`` goes in as its Fortran-ordered transpose with
    ``lower`` and ``trans`` flipped, so it is not copied.  A C-ordered
    ``B`` is ``B^T`` in Fortran order, so it is solved from the right,
    ``X^T op(L)^T = B^T``, without a layout copy, and ``X`` comes back
    C-ordered like ``B``.  Shapes and the diagonal are checked as in
    ``scipy.linalg.solve_triangular`` (``ValueError``, ``LinAlgError``), values
    are not: a NaN or inf stays in its own column of ``X`` on either route.
    """
    _check_solve_inputs(L, B)
    if B.size == 0:
        return np.zeros(B.shape)
    a = L
    if not L.flags.f_contiguous:
        a, lower, trans = L.T, not lower, not trans
    if B.ndim == 2 and B.flags.c_contiguous and not B.flags.f_contiguous:
        # dtrsm does not check the diagonal; name its first zero as dtrtrs does
        diag = a.diagonal().tolist()
        if 0.0 in diag:
            raise _singular(diag.index(0.0))
        return dtrsm(1.0, a, B.T, side=1, lower=lower, trans_a=not trans).T
    x, info = dtrtrs(a, B, lower=lower, trans=trans)
    if info > 0:
        raise _singular(info - 1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def _singular(i):
    return np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {i}")


def cho_solve(L, B):
    """``(L L^T)^-1 B`` for a lower factor ``L``: two :func:`solve_triangular` calls."""
    return solve_triangular(L, solve_triangular(L, B, lower=True), lower=True, trans=1)


def _check_symmetric(A, rel_tol, what="matrix"):
    """``A`` as floats and ``max |A|``, once ``A`` is found square and symmetric to ``rel_tol``;
    ``max |A|`` is NaN or inf exactly when an entry is, left for the caller to name."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    peak = float(np.abs(A).max(initial=0.0))
    if math.isfinite(peak):
        asym = float(np.abs(A - A.T).max(initial=0.0))
        if asym > rel_tol * max(1.0, peak):
            raise ValueError(
                f"{what} is not symmetric: max |A - A^T| = {asym:.3e} "
                f"exceeds {rel_tol:.1e} relative"
            )
    return A, peak


def cholesky_jittered(A):
    """Lower Cholesky factor of ``A + jitter * I`` at the one fixed jitter.

    ``jitter = 1e-10 * mean(diag(A))``, tried once.  A matrix that needs
    more is a named failure, never a silently different matrix.  Only
    ``Kuu`` is factored this way; every other factor is :func:`cholesky`'s.

    Parameters
    ----------
    A : array, shape (n, n)
        Symmetric matrix, expected positive (semi-)definite up to noise.

    Returns
    -------
    L : array, shape (n, n)
        Lower triangular with ``L @ L.T == A + jitter * I``.
    jitter : float
        The fixed jitter.

    Raises
    ------
    NotPositiveDefiniteError
        If ``A`` has a non-finite entry or a non-positive mean diagonal
        (jitter 0, nothing attempted), or ``A + jitter * I`` is not
        positive definite.  The error carries the jitter tried.
    """
    A, peak = _check_symmetric(A, 1e-10, "cholesky input")
    if not math.isfinite(peak):
        raise NotPositiveDefiniteError(
            "matrix is not positive definite: cholesky input has non-finite entries",
            0.0,
        )
    if A.shape[0] == 0:
        return np.zeros((0, 0)), 0.0
    diag_mean = float(A.diagonal().mean())
    if diag_mean <= 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: mean diagonal {diag_mean:.3e} "
            "is not positive",
            0.0,
        )
    jitter = 1e-10 * diag_mean
    try:
        return cholesky(A + jitter * np.eye(A.shape[0])), jitter
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: Cholesky failed at jitter {jitter:.3e}",
            jitter,
        ) from None


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate Gaussian with explicit mean and dense covariance.

    The Cholesky factor of ``cov`` as it is is computed lazily and cached;
    a jittered copy would be another model, so a covariance that is not
    positive definite in floating point raises on ``chol`` (see :func:`cholesky`).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov, peak = _check_symmetric(self.cov, 1e-12, "covariance")
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has dimension {mean.shape[0]} but covariance is "
                f"{cov.shape[0]}x{cov.shape[1]}"
            )
        if not (math.isfinite(peak) and np.isfinite(mean).all()):
            raise ValueError("mean and covariance must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def _factor(self):
        L = cholesky(self.cov)
        return L, float(np.log(L.diagonal()).sum())

    @property
    def chol(self) -> np.ndarray:
        """Lower triangular factor of ``cov``."""
        return self._factor[0]

    def half_log_det(self) -> float:
        """``0.5 * log det(cov)`` from the cached factor."""
        return self._factor[1]


def mvn_kl(q: GaussianDist, p: GaussianDist) -> float:
    """KL(q || p) between two Gaussians of the same dimension.

    Computed through the Cholesky factor of ``p.cov``:

        0.5 * (tr(Sp^-1 Sq) + (mq-mp)^T Sp^-1 (mq-mp) - n
               + log det Sp - log det Sq)

    The result is clamped at zero, so round-off on nearly identical
    inputs cannot produce a small negative value.
    """
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    n = q.dim
    # One solve against [Lq | mq - mp]: tr(Sp^-1 Sq) = ||Lp^-1 Lq||_F^2
    # from the first n columns, the Mahalanobis term from the last.
    rhs = np.concatenate([q.chol, (q.mean - p.mean)[:, None]], axis=1)
    half = solve_triangular(p.chol, rhs, lower=True)
    trace_term = float((half[:, :n] * half[:, :n]).sum())
    alpha = half[:, n]
    maha = float(alpha @ alpha)
    kl = 0.5 * (trace_term + maha - n) + p.half_log_det() - q.half_log_det()
    return max(kl, 0.0)


def mvn_logpdf(p: GaussianDist, x) -> float:
    """Log density of ``p`` at the point ``x``, which must be finite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != p.mean.shape or not np.isfinite(x).all():
        raise ValueError(
            f"point must be finite and of shape {p.mean.shape}, got {x.tolist()}"
        )
    alpha = solve_triangular(p.chol, x - p.mean, lower=True)
    return float(-0.5 * (p.dim * LOG_2PI + alpha @ alpha) - p.half_log_det())


def _validate_indices(idx, n, what="index"):
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    if idx.size == 0:
        raise ValueError(f"{what} set must be nonempty")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"{what} {idx.tolist()} out of range for dimension {n}")
    if len(set(idx.tolist())) != idx.size:
        raise ValueError(f"{what} set contains duplicates: {idx.tolist()}")
    return idx


def mvn_marginal(p: GaussianDist, idx) -> GaussianDist:
    """Marginal of ``p`` on the coordinates ``idx`` (in the given order)."""
    idx = _validate_indices(idx, p.dim, "marginal index")
    return GaussianDist(p.mean[idx], p.cov[idx[:, None], idx])


def _complement(idx, n):
    """The ascending indices below ``n`` that ``idx`` leaves out."""
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    return np.flatnonzero(keep)


def mvn_condition(joint: GaussianDist, obs_idx, obs_val) -> GaussianDist:
    """Condition ``joint`` on coordinates ``obs_idx`` taking values ``obs_val``.

    Returns the Gaussian over the remaining coordinates, kept in their
    original ascending order.
    """
    obs_idx = _validate_indices(obs_idx, joint.dim, "observed index")
    obs_val = np.atleast_1d(np.asarray(obs_val, dtype=float))
    if obs_val.shape[0] != obs_idx.shape[0]:
        raise ValueError(
            f"{obs_idx.shape[0]} observed indices but {obs_val.shape[0]} values"
        )
    keep = _complement(obs_idx, joint.dim)
    if keep.size == 0:
        raise ValueError("cannot condition on all coordinates at once")
    Lo = cholesky(joint.cov[obs_idx[:, None], obs_idx])
    return _conditional(joint, keep, obs_idx, Lo).at(obs_val)


@dataclass(frozen=True)
class AffineConditional:
    """Gaussian conditional law ``x | v ~ N(weights @ v + offset, cov)``."""

    weights: np.ndarray
    offset: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.weights, dtype=float))
        b = np.atleast_1d(np.asarray(self.offset, dtype=float))
        C, peak = _check_symmetric(self.cov, 1e-10, "conditional covariance")
        for name, finite in (("weights", np.isfinite(W).all()), ("offset", np.isfinite(b).all()),
                             ("cov", math.isfinite(peak))):
            if not finite:
                raise ValueError(f"conditional {name} must be finite")
        if W.shape[0] != b.shape[0] or W.shape[0] != C.shape[0]:
            raise ValueError(
                f"inconsistent conditional shapes: weights {W.shape}, "
                f"offset {b.shape}, cov {C.shape}"
            )
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "cov", 0.5 * (C + C.T))

    @property
    def out_dim(self) -> int:
        return self.offset.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    def at(self, v) -> GaussianDist:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return GaussianDist(self.weights @ v + self.offset, self.cov)


def conditional_from_joint(joint: GaussianDist, dep_idx, given_idx) -> AffineConditional:
    """Extract the conditional of ``dep_idx`` given ``given_idx`` from a joint.

    Solves through the Cholesky factor of the conditioning block, so the
    joint itself is never inverted.
    """
    dep_idx = _validate_indices(dep_idx, joint.dim, "dependent index")
    given_idx = _validate_indices(given_idx, joint.dim, "conditioning index")
    if not set(dep_idx.tolist()).isdisjoint(given_idx.tolist()):
        raise ValueError("dependent and conditioning index sets overlap")
    Lg = cholesky(joint.cov[given_idx[:, None], given_idx])
    return _conditional(joint, dep_idx, given_idx, Lg)


def _conditional(joint: GaussianDist, dep_idx, given_idx, Lg) -> AffineConditional:
    """:func:`conditional_from_joint` on valid index arrays; ``Lg`` factors the given block."""
    rows_d = joint.cov[dep_idx]
    S_dg, S_dd = rows_d[:, given_idx], rows_d[:, dep_idx]
    W = cho_solve(Lg, S_dg.T).T  # S_dg S_gg^-1
    offset = joint.mean[dep_idx] - W @ joint.mean[given_idx]
    cov = S_dd - W @ S_dg.T
    return AffineConditional(W, offset, cov)


def expected_conditional_kl(
    q_cond: AffineConditional, p_cond: AffineConditional, over: GaussianDist
) -> float:
    """``E_{v ~ over}[ KL( q_cond(.|v) || p_cond(.|v) ) ]`` in closed form.

    With mean difference ``M v + d`` (``M = Wq - Wp``, ``d = bq - bp``)
    the expectation adds ``tr(Cp^-1 M S M^T)`` and a Mahalanobis term at
    the mean of ``over`` to the usual Gaussian KL.
    """
    if q_cond.out_dim != p_cond.out_dim or q_cond.in_dim != p_cond.in_dim:
        raise ValueError("conditional shape mismatch between q and p")
    if over.dim != q_cond.in_dim:
        raise ValueError(
            f"mixing distribution has dimension {over.dim}, conditionals "
            f"expect {q_cond.in_dim}"
        )
    k = q_cond.out_dim
    Lp = cholesky(p_cond.cov)
    Lq = cholesky(q_cond.cov)
    log_det_p = float(np.log(Lp.diagonal()).sum())
    log_det_q = float(np.log(Lq.diagonal()).sum())
    M = q_cond.weights - p_cond.weights
    d = q_cond.offset - p_cond.offset
    # One solve against [Lq | M Lv | M mv + d], with Lv the factor of the
    # mixing covariance S: the blocks give tr(Cp^-1 Cq), tr(Cp^-1 M S M^T)
    # and the Mahalanobis term at the mixing mean.
    rhs = np.concatenate([Lq, M @ over.chol, (M @ over.mean + d)[:, None]], axis=1)
    half = solve_triangular(Lp, rhs, lower=True)
    trace_term = float((half[:, :k] * half[:, :k]).sum())
    spread = float((half[:, k:-1] * half[:, k:-1]).sum())
    alpha = half[:, -1]
    maha = float(alpha @ alpha)
    kl = 0.5 * (trace_term + spread + maha - k) + log_det_p - log_det_q
    return max(kl, 0.0)


def joint_from_marginal_and_conditional(
    marg: GaussianDist, cond: AffineConditional
) -> GaussianDist:
    """Joint over (v, x) from ``v ~ marg`` and ``x | v ~ cond``.

    The marginal block comes first in the returned ordering.
    """
    if cond.in_dim != marg.dim:
        raise ValueError(
            f"conditional expects input dimension {cond.in_dim}, "
            f"marginal has {marg.dim}"
        )
    return GaussianDist(*_joint_moments(marg.mean, marg.cov, cond))


def _joint_moments(mean, S, cond: AffineConditional):
    """Mean and covariance of (v, x) for ``v ~ N(mean, S)`` and ``x | v ~ cond``."""
    W, k = cond.weights, mean.shape[0]
    cross = S @ W.T
    cov = np.empty((k + cond.out_dim,) * 2)
    cov[:k, :k] = S
    cov[:k, k:] = cross
    cov[k:, :k] = cross.T
    cov[k:, k:] = W @ cross + cond.cov
    return np.concatenate([mean, W @ mean + cond.offset]), cov
