"""Brute-force finite-dimensional world for checking the variational identities.

Everything here works on an explicit joint Gaussian over a fixed finite
index set X, with observations on a subset D and an approximating
family built on a subset Z.  At this scale the exact posterior, the
exact marginal likelihood, and every KL divergence are directly
computable, so the sparse bounds and their claimed identities can be
verified numerically instead of trusted:

* the KL over D u Z, the KL over all of X, and the gap between exact
  and bound log marginal likelihood are one and the same number;
* a joint KL splits exactly into an expected conditional KL plus a
  marginal KL;
* augmenting with extra variables leaves the KL unchanged exactly when
  the two conditionals agree, and the gap is the expected conditional
  KL between them;
* pushing a Gaussian through a deterministic linear map commutes with
  the conditional construction of the joint.

Deterministic (singular) joints are never factorized directly; they are
handled through marginals and through a fiber decomposition on the null
space of the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .gaussians import (
    AffineConditional,
    GaussianDist,
    _chol_with_fallback,
    conditional_from_joint,
    expected_conditional_kl,
    joint_from_marginal_and_conditional,
    mvn_condition,
    mvn_kl,
    mvn_logpdf,
    mvn_marginal,
)
from .kernels import Kernel, as_points, prior_at

__all__ = [
    "FiniteModel",
    "ApproxPosterior",
    "exact_posterior",
    "log_marginal_likelihood",
    "collapsed_bound_dense",
    "extend_approx",
    "titsias_kl",
    "full_kl",
    "FiniteEquivalenceReport",
    "check_finite_equivalence",
    "KLDecomposition",
    "kl_chain_rule_decompose",
    "noisy_copy_conditional",
    "AugmentationReport",
    "augmentation_gap",
    "PushforwardReport",
    "pushforward_check",
    "deterministic_union_kl",
]


def _as_index_tuple(idx, n, what):
    idx = tuple(int(i) for i in np.atleast_1d(np.asarray(idx, dtype=int)))
    if len(idx) == 0:
        raise ValueError(f"{what} must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} contains duplicates: {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"{what} {idx} out of range for {n} points")
    return idx


@dataclass(frozen=True)
class FiniteModel:
    """Gaussian prior on a finite index set with noisy observations.

    ``data_idx`` points carry observations ``Y`` under additive Gaussian
    noise; ``inducing_idx`` points anchor the approximating family.  A
    kernel-backed model remembers its kernel so the variational bound
    can be evaluated on the same instance.
    """

    X: np.ndarray
    data_idx: tuple
    inducing_idx: tuple
    prior: GaussianDist
    Y: np.ndarray
    noise_var: float
    kernel: Kernel = None

    def __post_init__(self):
        X = as_points(self.X)
        n = X.shape[0]
        data_idx = _as_index_tuple(self.data_idx, n, "data index set")
        inducing_idx = _as_index_tuple(self.inducing_idx, n, "inducing index set")
        Y = np.atleast_1d(np.asarray(self.Y, dtype=float))
        if self.prior.dim != n:
            raise ValueError(
                f"prior has dimension {self.prior.dim} but there are {n} points"
            )
        if Y.shape[0] != len(data_idx):
            raise ValueError(
                f"{len(data_idx)} observed points but {Y.shape[0]} observations"
            )
        if self.noise_var <= 0:
            raise ValueError(f"noise_var must be positive, got {self.noise_var}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "data_idx", data_idx)
        object.__setattr__(self, "inducing_idx", inducing_idx)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "noise_var", float(self.noise_var))

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @classmethod
    def from_kernel(cls, kernel, X, data_idx, inducing_idx, Y, noise_var):
        X = as_points(X, kernel.input_dim)
        return cls(X, data_idx, inducing_idx, prior_at(kernel, X), Y, noise_var, kernel)


@dataclass(frozen=True)
class ApproxPosterior:
    """Free Gaussian over the inducing subset, extended by the prior conditional."""

    q_u: GaussianDist


def _data_joint(prior: GaussianDist, idx, data_idx, noise_var, n_obs):
    """Joint of (f[idx], Y) where Y observes f[data_idx] under noise."""
    idx = np.asarray(idx, dtype=int)
    data = np.asarray(data_idx, dtype=int)
    S = prior.cov
    top = np.hstack([S[np.ix_(idx, idx)], S[np.ix_(idx, data)]])
    bottom = np.hstack(
        [S[np.ix_(data, idx)], S[np.ix_(data, data)] + noise_var * np.eye(n_obs)]
    )
    mean = np.concatenate([prior.mean[idx], prior.mean[data]])
    return GaussianDist(mean, np.vstack([top, bottom]))


def _posterior_on(m: FiniteModel, idx) -> GaussianDist:
    """Exact posterior marginal on the points ``idx`` given the data."""
    nd = len(m.data_idx)
    joint = _data_joint(m.prior, idx, m.data_idx, m.noise_var, nd)
    k = len(idx)
    return mvn_condition(joint, np.arange(k, k + nd), m.Y)


def exact_posterior(m: FiniteModel) -> GaussianDist:
    """Exact Gaussian posterior over all points of the model."""
    return _posterior_on(m, np.arange(m.n_points))


def log_marginal_likelihood(m: FiniteModel) -> float:
    """Exact log evidence ``log N(Y | m_D, S_DD + noise_var I)``."""
    data = np.asarray(m.data_idx, dtype=int)
    cov = m.prior.cov[np.ix_(data, data)] + m.noise_var * np.eye(len(data))
    return mvn_logpdf(GaussianDist(m.prior.mean[data], cov), m.Y)


def collapsed_bound_dense(m: FiniteModel) -> float:
    """Collapsed bound by brute force over the data set D.

        log N(Y | m_D, Qff + noise_var I) - tr(K_DD - Qff) / (2 noise_var)

    with ``Qff = K_DZ K_ZZ^-1 K_ZD`` read off the prior covariance and the
    n x n density evaluated directly.  The independent route for
    :func:`sparsekl.svgp.collapsed_bound`, which never forms Qff.
    """
    data = np.asarray(m.data_idx, dtype=int)
    z = np.asarray(m.inducing_idx, dtype=int)
    K = m.prior.cov
    Lzz, _ = _chol_with_fallback(K[np.ix_(z, z)])
    A = solve_triangular(Lzz, K[np.ix_(z, data)], lower=True)
    Qff = A.T @ A
    fit = mvn_logpdf(
        GaussianDist(m.prior.mean[data], Qff + m.noise_var * np.eye(len(data))), m.Y
    )
    return fit - float(np.trace(K[np.ix_(data, data)] - Qff)) / (2.0 * m.noise_var)


def _extend_within(prior: GaussianDist, q_u: GaussianDist, positions) -> GaussianDist:
    """Extend q over the inducing positions to the whole prior index set.

    The remaining coordinates get the prior conditional given the
    inducing block; the result is reassembled in the original order.
    """
    n = prior.dim
    z = np.asarray(positions, dtype=int)
    rest = np.setdiff1d(np.arange(n), z)
    if q_u.dim != z.shape[0]:
        raise ValueError(
            f"q has dimension {q_u.dim} but there are {z.shape[0]} inducing points"
        )
    if rest.size == 0:
        inverse = np.empty(n, dtype=int)
        inverse[z] = np.arange(n)
        return GaussianDist(q_u.mean[inverse], q_u.cov[np.ix_(inverse, inverse)])
    cond = conditional_from_joint(prior, rest, z)
    joint_zr = joint_from_marginal_and_conditional(q_u, cond)
    order = np.concatenate([z, rest])
    inverse = np.empty(n, dtype=int)
    inverse[order] = np.arange(n)
    return GaussianDist(
        joint_zr.mean[inverse], joint_zr.cov[np.ix_(inverse, inverse)]
    )


def extend_approx(m: FiniteModel, q: ApproxPosterior) -> GaussianDist:
    """The approximate posterior over all points of the model."""
    return _extend_within(m.prior, q.q_u, m.inducing_idx)


def full_kl(m: FiniteModel, q: ApproxPosterior) -> float:
    """KL between the extended approximation and the exact posterior over all X."""
    return mvn_kl(extend_approx(m, q), exact_posterior(m))


def titsias_kl(m: FiniteModel, q: ApproxPosterior) -> float:
    """The same divergence assembled directly on the union D u Z.

    Both sides are built as explicit Gaussians over the union: the
    approximation extends q with the prior conditional restricted to the
    union, and the posterior comes from conditioning the (f_union, Y)
    joint.  No step reuses the all-of-X objects from :func:`full_kl`.
    """
    union = np.unique(np.concatenate([m.data_idx, m.inducing_idx]))
    prior_union = mvn_marginal(m.prior, union)
    z_positions = np.searchsorted(union, np.asarray(m.inducing_idx, dtype=int))
    z_positions = np.sort(z_positions)
    q_union = _extend_within(prior_union, _reorder(q, m, union), z_positions)
    p_union = _posterior_on(m, union)
    return mvn_kl(q_union, p_union)


def _reorder(q: ApproxPosterior, m: FiniteModel, union) -> GaussianDist:
    """q over the inducing block, permuted to ascending position within the union."""
    z = np.asarray(m.inducing_idx, dtype=int)
    order = np.argsort(np.searchsorted(union, z))
    return GaussianDist(
        q.q_u.mean[order], q.q_u.cov[np.ix_(order, order)]
    )


@dataclass(frozen=True)
class FiniteEquivalenceReport:
    full: float
    titsias: float
    elbo_gap: float
    max_abs_diff: float


def check_finite_equivalence(m: FiniteModel, q: ApproxPosterior) -> FiniteEquivalenceReport:
    """Evaluate the divergence three independent ways and report the spread.

    The routes: the KL over the whole index set, the KL assembled on
    D u Z, and the gap between the exact log evidence and the
    variational bound evaluated through the sparse model.  All three are
    the same quantity; ``max_abs_diff`` is the largest pairwise gap.
    """
    if m.kernel is None:
        raise ValueError(
            "finite equivalence needs a kernel-backed model; build it with "
            "FiniteModel.from_kernel"
        )
    from .interdomain import PointFeature
    from .svgp import GaussianNoise, SVGPState, elbo

    full = full_kl(m, q)
    tits = titsias_kl(m, q)
    z = np.asarray(m.inducing_idx, dtype=int)
    Lq, _ = _chol_with_fallback(q.q_u.cov)
    state = SVGPState(
        features=tuple(PointFeature(loc) for loc in m.X[z]),
        q_mean=q.q_u.mean,
        q_chol=Lq,
        kernel=m.kernel,
        likelihood=GaussianNoise(m.noise_var),
    )
    data = np.asarray(m.data_idx, dtype=int)
    bound = elbo(state, m.X[data], m.Y)
    gap = log_marginal_likelihood(m) - bound
    vals = (full, tits, gap)
    max_abs_diff = max(abs(a - b) for a in vals for b in vals)
    return FiniteEquivalenceReport(full, tits, gap, max_abs_diff)


@dataclass(frozen=True)
class KLDecomposition:
    conditional_term: float
    marginal_term: float

    @property
    def total(self) -> float:
        return self.conditional_term + self.marginal_term


def kl_chain_rule_decompose(joint_q: GaussianDist, joint_p: GaussianDist, u_idx, v_idx) -> KLDecomposition:
    """Split KL(joint_q || joint_p) over a coordinate partition (U, V).

    Returns the expected conditional term ``E_{q_V}[KL(q_{U|V} || p_{U|V})]``
    and the marginal term ``KL(q_V || p_V)``; their sum reproduces the
    joint divergence.
    """
    if joint_q.dim != joint_p.dim:
        raise ValueError(
            f"joint dimensions differ: {joint_q.dim} vs {joint_p.dim}"
        )
    u = np.atleast_1d(np.asarray(u_idx, dtype=int))
    v = np.atleast_1d(np.asarray(v_idx, dtype=int))
    combined = np.sort(np.concatenate([u, v]))
    if not np.array_equal(combined, np.arange(joint_q.dim)):
        raise ValueError(
            f"U {u.tolist()} and V {v.tolist()} must partition the "
            f"{joint_q.dim} coordinates"
        )
    q_v = mvn_marginal(joint_q, v)
    p_v = mvn_marginal(joint_p, v)
    cond_q = conditional_from_joint(joint_q, u, v)
    cond_p = conditional_from_joint(joint_p, u, v)
    return KLDecomposition(
        conditional_term=expected_conditional_kl(cond_q, cond_p, q_v),
        marginal_term=mvn_kl(q_v, p_v),
    )


def noisy_copy_conditional(m: FiniteModel, cov_scale: float = 1.0) -> AffineConditional:
    """Reference conditional for augmentation checks: a noisy copy of f_Z.

    The augmenting block reads the inducing coordinates and adds
    isotropic noise at half the mean prior variance of that block,
    scaled by ``cov_scale``.  Scaling the covariance while keeping the
    map gives a controlled mismatch with a closed-form expected KL.
    """
    if cov_scale <= 0:
        raise ValueError(f"cov_scale must be positive, got {cov_scale}")
    z = np.asarray(m.inducing_idx, dtype=int)
    G = np.zeros((z.shape[0], m.n_points))
    G[np.arange(z.shape[0]), z] = 1.0
    noise = 0.5 * float(np.mean(np.diag(m.prior.cov[np.ix_(z, z)])))
    return AffineConditional(G, np.zeros(z.shape[0]), cov_scale * noise * np.eye(z.shape[0]))


@dataclass(frozen=True)
class AugmentationReport:
    kl_union: float
    kl_X: float
    gap: float


def augmentation_gap(
    m: FiniteModel,
    q: ApproxPosterior,
    q_conditional: AffineConditional,
    prior_conditional: AffineConditional = None,
) -> AugmentationReport:
    """Effect of adjoining an augmenting block A on the divergence.

    Both measures are extended to (f_X, A): the posterior side uses
    ``prior_conditional`` (the noisy copy by default), the approximation
    uses ``q_conditional``.  Marginal consistency on X alone does not
    close the gap; it vanishes exactly when the conditionals agree.
    """
    if prior_conditional is None:
        prior_conditional = noisy_copy_conditional(m)
    q_X = extend_approx(m, q)
    p_X = exact_posterior(m)
    if q_conditional.in_dim != m.n_points or prior_conditional.in_dim != m.n_points:
        raise ValueError("conditionals must read the full index set")
    q_union = joint_from_marginal_and_conditional(q_X, q_conditional)
    p_union = joint_from_marginal_and_conditional(p_X, prior_conditional)
    kl_union = mvn_kl(q_union, p_union)
    kl_X = mvn_kl(q_X, p_X)
    return AugmentationReport(kl_union, kl_X, kl_union - kl_X)


@dataclass(frozen=True)
class PushforwardReport:
    constructed: GaussianDist
    pushforward: GaussianDist
    max_diff: float


def _require_full_row_rank(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] > A.shape[1]:
        raise ValueError(
            f"map must have full row rank: shape {A.shape} has more rows than columns"
        )
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= 1e-10 * max(s[0], 1.0):
        raise ValueError(
            f"map is rank deficient: smallest singular value {s[-1]:.3e}"
        )
    return A


def pushforward_check(q_X: GaussianDist, A_map) -> PushforwardReport:
    """Compare two routes to the law of ``A f`` under ``f ~ q_X``.

    The direct route transforms mean and covariance.  The constructed
    route conditions ``f`` on ``u = A f``, mixes the conditional back
    over the candidate law of ``u``, and only then transforms.  The two
    agree whenever the candidate really is the image law; the singular
    joint of (f, A f) is never factorized.
    """
    A = _require_full_row_rank(A_map)
    if A.shape[1] != q_X.dim:
        raise ValueError(
            f"map has {A.shape[1]} columns but the distribution has dimension {q_X.dim}"
        )
    pushed = GaussianDist(A @ q_X.mean, A @ q_X.cov @ A.T)
    # Condition f on u = A f through the factor of A S A^T.
    Lu, _ = _chol_with_fallback(pushed.cov)
    half = solve_triangular(Lu, A @ q_X.cov, lower=True)
    B = solve_triangular(Lu.T, half, lower=False).T
    cov_given_u = q_X.cov - B @ (A @ q_X.cov)
    # Mix the conditional over the candidate law of u, then transform.
    mean_rebuilt = q_X.mean + B @ (pushed.mean - A @ q_X.mean)
    cov_rebuilt = cov_given_u + B @ pushed.cov @ B.T
    constructed = GaussianDist(A @ mean_rebuilt, A @ cov_rebuilt @ A.T)
    max_diff = max(
        float(np.max(np.abs(constructed.mean - pushed.mean))),
        float(np.max(np.abs(constructed.cov - pushed.cov))),
    )
    return PushforwardReport(constructed, pushed, max_diff)


def deterministic_union_kl(q_X: GaussianDist, p_X: GaussianDist, A_map):
    """KL over the deterministic union (f, A f) via a fiber decomposition.

    The joint of (f, A f) is singular, so the divergence is evaluated as
    an expected conditional KL along the fibers {f : A f = u}
    (parameterized on the null space of A) plus the marginal KL of the
    images.  The theorem under test says this equals KL(q_X || p_X).

    Returns a dict with ``kl_union`` and ``kl_X``.
    """
    A = _require_full_row_rank(A_map)
    n = q_X.dim
    if A.shape[1] != n or p_X.dim != n:
        raise ValueError("map and distributions must share one dimension")
    a = A.shape[0]
    q_A = GaussianDist(A @ q_X.mean, A @ q_X.cov @ A.T)
    p_A = GaussianDist(A @ p_X.mean, A @ p_X.cov @ A.T)
    marginal_term = mvn_kl(q_A, p_A)
    if a == n:
        return {"kl_union": marginal_term, "kl_X": mvn_kl(q_X, p_X)}
    # Shared chart for both fiber conditionals: x = pinv(A) u + N xi,
    # with N an orthonormal basis of the null space of A.
    _, _, Vt = np.linalg.svd(A)
    N = Vt[a:].T
    A_pinv = np.linalg.pinv(A)

    def fiber_conditional(dist):
        img_cov = A @ dist.cov @ A.T
        L, _ = _chol_with_fallback(img_cov)
        half = solve_triangular(L, A @ dist.cov, lower=True)
        B = solve_triangular(L.T, half, lower=False).T
        cov_given = dist.cov - B @ (A @ dist.cov)
        weights = N.T @ (B - A_pinv)
        offset = N.T @ (dist.mean - B @ (A @ dist.mean))
        return AffineConditional(weights, offset, N.T @ cov_given @ N)

    conditional_term = expected_conditional_kl(
        fiber_conditional(q_X), fiber_conditional(p_X), q_A
    )
    return {
        "kl_union": conditional_term + marginal_term,
        "kl_X": mvn_kl(q_X, p_X),
    }
