"""Dense multivariate Gaussian algebra built on Cholesky factorizations.

Everything downstream (the finite-dimensional verification oracle, the
sparse variational bounds, the Cox process objective) reduces to a small
set of operations on explicit mean/covariance pairs: factorize, solve,
marginalize, condition, and compute KL divergences.  All solves go
through Cholesky factors; no explicit matrix inverse is ever formed.

One LAPACK call per factorization or solve, with every right-hand side
stacked: :func:`cholesky`, :func:`solve_triangular` and :func:`cho_solve`
call ``dpotrf``, ``dtrtrs`` and ``dpotrs`` directly and are the only
route to them in the package.  The oracle's matrices are at most about
12 x 12, where LAPACK takes 2-3 us and the general wrappers
(``np.linalg.cholesky``, ``scipy.linalg.solve_triangular``/``cho_solve``)
spend 7-22 us per call on dispatch, batching and validation; the kernels
keep those wrappers' checks (finite inputs to a solve, shapes, failure
as ``LinAlgError``) and drop the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

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
    """Raised when a matrix cannot be factorized within the jitter budget.

    Carries the largest jitter attempted in ``jitter``.
    """

    def __init__(self, message, jitter):
        super().__init__(message)
        self.jitter = jitter

    def __reduce__(self):
        # the default rebuilds from ``args`` alone and loses ``jitter``;
        # a verify worker sends this error to the parent by pickle
        return type(self), (self.args[0], self.jitter), self.__dict__


def cholesky(A):
    """Lower Cholesky factor of ``A`` (Fortran-ordered) from one ``dpotrf``.

    Reads the lower triangle only.  Like ``np.linalg.cholesky`` it makes
    no finiteness check: a NaN entry gives a NaN factor, which a fit's
    optimizer then sees as a non-finite objective.  Raises
    ``np.linalg.LinAlgError`` if ``A`` is not positive definite.
    """
    L, info = dpotrf(A, lower=1, clean=1)
    if info > 0:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return L


def _check_solve_inputs(L, B):
    """``scipy.linalg``'s checks on a factor and right-hand side, with its messages."""
    if not (np.isfinite(L).all() and np.isfinite(B).all()):
        raise ValueError("array must not contain infs or NaNs")
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("expected square matrix")
    if L.shape[0] != B.shape[0]:
        raise ValueError(f"shapes of a {L.shape} and b {B.shape} are incompatible")


def solve_triangular(L, B, *, lower=False, trans=0):
    """``L^-1 B`` (``trans=0``) or ``L^-T B`` (``trans=1``) from one ``dtrtrs``.

    ``B`` is a vector or a matrix of stacked right-hand sides.  A
    C-ordered ``L`` goes in as its Fortran-ordered transpose with
    ``lower`` and ``trans`` flipped, so it is not copied.  Raises
    ``ValueError`` on a non-finite input and ``np.linalg.LinAlgError`` on
    a zero diagonal, as ``scipy.linalg.solve_triangular`` does.
    """
    _check_solve_inputs(L, B)
    if B.size == 0:
        return np.zeros(B.shape)
    if L.flags.f_contiguous:
        x, info = dtrtrs(L, B, lower=lower, trans=trans)
    else:
        x, info = dtrtrs(L.T, B, lower=not lower, trans=not trans)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def cho_solve(factor, B):
    """``(L L^T)^-1 B`` from one ``dpotrs``, with ``factor = (L, lower)``.

    ``lower`` false means ``L`` is upper triangular and the matrix is
    ``L^T L``.  Checks and ordering as :func:`solve_triangular`;
    ``dpotrs`` itself does not test the diagonal, so a zero on it raises
    ``np.linalg.LinAlgError`` here rather than giving infinities.
    """
    L, lower = factor
    _check_solve_inputs(L, B)
    if not L.diagonal().all():
        raise np.linalg.LinAlgError("singular matrix: the factor has a zero diagonal")
    if B.size == 0:
        return np.zeros(B.shape)
    if L.flags.f_contiguous:
        x, info = dpotrs(L, B, lower=lower)
    else:
        x, info = dpotrs(L.T, B, lower=not lower)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _check_symmetric(A, rel_tol, what="matrix"):
    """``A`` as floats and ``max |A|``, once ``A`` is found square and symmetric to ``rel_tol``;
    ``max |A|`` is NaN or inf exactly when an entry is, which never fails the symmetry test."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{what} must be square, got shape {A.shape}")
    peak = float(np.abs(A).max(initial=0.0))
    asym = float(np.abs(A - A.T).max(initial=0.0))
    if asym > rel_tol * max(1.0, peak):
        raise ValueError(
            f"{what} is not symmetric: max |A - A^T| = {asym:.3e} "
            f"exceeds {rel_tol:.1e} relative"
        )
    return A, peak


def cholesky_jittered(A, base_jitter=None):
    """Lower Cholesky factor of ``A + jitter * I`` with escalating jitter.

    The first attempt uses ``base_jitter`` (default ``1e-10 * mean(diag(A))``)
    and escalates by factors of 10 up to ``1e-2 * mean(diag(A))``.

    Parameters
    ----------
    A : array, shape (n, n)
        Symmetric matrix, expected positive (semi-)definite up to noise.
    base_jitter : float, optional
        First jitter value to try.  Must be positive.

    Returns
    -------
    L : array, shape (n, n)
        Lower triangular with ``L @ L.T == A + jitter * I``.
    jitter : float
        The jitter that succeeded.

    Raises
    ------
    NotPositiveDefiniteError
        If ``A`` has a non-finite entry (jitter 0, nothing attempted) or
        the factorization still fails at the jitter cap.  The error
        carries the largest jitter attempted.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise NotPositiveDefiniteError(
            "matrix is not positive definite: cholesky input has non-finite entries",
            0.0,
        )
    _check_symmetric(A, 1e-10, "cholesky input")
    if A.shape[0] == 0:
        return np.zeros((0, 0)), 0.0
    diag_mean = float(np.mean(np.diag(A)))
    if diag_mean <= 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: mean diagonal {diag_mean:.3e} "
            "is not positive",
            0.0,
        )
    if base_jitter is None:
        base_jitter = 1e-10 * diag_mean
    if base_jitter <= 0:
        raise ValueError(f"base_jitter must be positive, got {base_jitter}")
    cap = 1e-2 * diag_mean
    jitter = float(base_jitter)
    eye = np.eye(A.shape[0])
    while True:
        try:
            return cholesky(A + jitter * eye), jitter
        except np.linalg.LinAlgError:
            if jitter >= cap:
                raise NotPositiveDefiniteError(
                    "matrix is not positive definite: Cholesky failed at "
                    f"jitter {jitter:.3e} (cap {cap:.3e})",
                    jitter,
                ) from None
            jitter = min(jitter * 10.0, cap)


def _chol_with_fallback(A):
    """Plain Cholesky if it succeeds, otherwise the escalating jitter schedule.

    Returns (L, jitter_used); jitter_used is 0.0 on the exact path.
    """
    A = np.asarray(A, dtype=float)
    try:
        return cholesky(A), 0.0
    except np.linalg.LinAlgError:
        return cholesky_jittered(A)


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate Gaussian with explicit mean and dense covariance.

    The Cholesky factor is computed lazily and cached; it factorizes
    ``cov + jitter * I`` where ``jitter`` is zero whenever the exact
    factorization succeeds.
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
        L, jitter = _chol_with_fallback(self.cov)
        return L, jitter, float(np.log(L.diagonal()).sum())

    @property
    def chol(self) -> np.ndarray:
        """Lower triangular factor of ``cov + jitter * I``."""
        return self._factor[0]

    @property
    def jitter(self) -> float:
        return self._factor[1]

    def half_log_det(self) -> float:
        """``0.5 * log det(cov + jitter * I)`` from the cached factor."""
        return self._factor[2]


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
    """Log density of ``p`` at the point ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != p.mean.shape:
        raise ValueError(
            f"point has shape {x.shape} but distribution has dimension {p.dim}"
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
    Lo, _ = _chol_with_fallback(joint.cov[obs_idx[:, None], obs_idx])
    cond = _conditional(joint, keep, obs_idx, Lo)
    return GaussianDist(cond.weights @ obs_val + cond.offset, cond.cov)


@dataclass(frozen=True)
class AffineConditional:
    """Gaussian conditional law ``x | v ~ N(weights @ v + offset, cov)``."""

    weights: np.ndarray
    offset: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.weights, dtype=float))
        b = np.atleast_1d(np.asarray(self.offset, dtype=float))
        C, _ = _check_symmetric(self.cov, 1e-10, "conditional covariance")
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
    Lg, _ = _chol_with_fallback(joint.cov[given_idx[:, None], given_idx])
    return _conditional(joint, dep_idx, given_idx, Lg)


def _conditional(joint: GaussianDist, dep_idx, given_idx, Lg) -> AffineConditional:
    """:func:`conditional_from_joint` on valid index arrays; ``Lg`` factors the given block."""
    rows_d = joint.cov[dep_idx]
    S_dg, S_dd = rows_d[:, given_idx], rows_d[:, dep_idx]
    W = cho_solve((Lg, True), S_dg.T).T  # S_dg S_gg^-1
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
    Lp, _ = _chol_with_fallback(p_cond.cov)
    Lq, _ = _chol_with_fallback(q_cond.cov)
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
