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
space of the map.  Each map is factorized once: one SVD gives its rank
check and its null space, and each image law's cached Cholesky factor
gives the conditional of f on the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussians import (
    AffineConditional,
    GaussianDist,
    _complement,
    _conditional,
    _joint_moments,
    _validate_indices,
    cho_solve,
    cholesky,
    expected_conditional_kl,
    joint_from_marginal_and_conditional,
    mvn_condition,
    mvn_kl,
    mvn_logpdf,
    mvn_marginal,
    solve_triangular,
)
from .kernels import Kernel, as_points, prior_at

__all__ = [
    "FiniteModel",
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
    "augmented_report",
    "PushforwardReport",
    "pushforward_check",
    "deterministic_union_kl",
    "DeterministicMapReport",
    "deterministic_map_report",
]


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
        data_idx = tuple(_validate_indices(self.data_idx, n, "data index").tolist())
        inducing_idx = tuple(_validate_indices(self.inducing_idx, n, "inducing index").tolist())
        Y = np.atleast_1d(np.asarray(self.Y, dtype=float))
        if self.prior.dim != n:
            raise ValueError(
                f"prior has dimension {self.prior.dim} but there are {n} points"
            )
        if Y.shape[0] != len(data_idx):
            raise ValueError(
                f"{len(data_idx)} observed points but {Y.shape[0]} observations"
            )
        if not np.isfinite(Y).all():
            raise ValueError("Y must be finite")
        if not 0 < self.noise_var < np.inf:
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var}")
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


def _posterior_on(m: FiniteModel, idx) -> GaussianDist:
    """Exact posterior marginal on the points ``idx`` given the data."""
    # the joint of (f[idx], Y), where Y observes f[data_idx] under noise
    nd = len(m.data_idx)
    both = np.concatenate([np.asarray(idx, dtype=int), np.asarray(m.data_idx, dtype=int)])
    cov = m.prior.cov[both[:, None], both]
    cov[-nd:, -nd:] += m.noise_var * np.eye(nd)
    joint = GaussianDist(m.prior.mean[both], cov)
    return mvn_condition(joint, np.arange(len(idx), len(both)), m.Y)


def exact_posterior(m: FiniteModel) -> GaussianDist:
    """Exact Gaussian posterior over all points of the model."""
    return _posterior_on(m, np.arange(m.n_points))


def log_marginal_likelihood(m: FiniteModel) -> float:
    """Exact log evidence ``log N(Y | m_D, S_DD + noise_var I)``."""
    data = np.asarray(m.data_idx, dtype=int)
    cov = m.prior.cov[data[:, None], data] + m.noise_var * np.eye(len(data))
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
    rows_z = K[z]
    Lzz = cholesky(rows_z[:, z])
    A = solve_triangular(Lzz, rows_z[:, data], lower=True)
    Qff = A.T @ A
    fit = mvn_logpdf(
        GaussianDist(m.prior.mean[data], Qff + m.noise_var * np.eye(len(data))), m.Y
    )
    return fit - float(np.trace(K[data][:, data] - Qff)) / (2.0 * m.noise_var)


def _extend_within(prior: GaussianDist, q_mean, q_cov, z, rest) -> GaussianDist:
    """q = N(q_mean, q_cov) on the prior's coordinates ``z``, extended to ``rest`` by the
    prior conditional given ``z``: built in the order (z, rest), returned ascending."""
    if q_mean.shape[0] != z.shape[0]:
        raise ValueError(
            f"q has dimension {q_mean.shape[0]} but there are {z.shape[0]} inducing points"
        )
    order = np.argsort(np.concatenate([z, rest]))
    if rest.size:
        Lz = cholesky(prior.cov[z[:, None], z])
        q_mean, q_cov = _joint_moments(q_mean, q_cov, _conditional(prior, rest, z, Lz))
    return GaussianDist(q_mean[order], q_cov[order[:, None], order])


def extend_approx(m: FiniteModel, q: GaussianDist) -> GaussianDist:
    """The approximate posterior over all points of the model: q(u), a free Gaussian
    over the inducing subset, extended by the prior conditional."""
    z = np.asarray(m.inducing_idx, dtype=int)
    return _extend_within(m.prior, q.mean, q.cov, z, _complement(z, m.n_points))


def full_kl(m: FiniteModel, q: GaussianDist) -> float:
    """KL between the extended approximation and the exact posterior over all X."""
    return mvn_kl(extend_approx(m, q), exact_posterior(m))


def titsias_kl(m: FiniteModel, q: GaussianDist) -> float:
    """The same divergence assembled directly on the union D u Z.

    Both sides are built as explicit Gaussians over the union: the
    approximation extends q with the prior conditional of the points of
    D outside Z, and the posterior comes from conditioning the
    (f_union, Y) joint.  No step reuses the all-of-X objects from
    :func:`full_kl`.
    """
    union = sorted(set(m.data_idx) | set(m.inducing_idx))
    # q in ascending coordinate order, C-ordered like extend_approx's q.cov
    # (one fancy index), so the products in _joint_moments round the same way
    order = np.argsort(m.inducing_idx)
    q_union = _extend_within(
        m.prior,
        q.mean[order],
        q.cov[order[:, None], order],
        np.sort(m.inducing_idx),
        np.array(sorted(set(m.data_idx) - set(m.inducing_idx)), dtype=int),
    )
    return mvn_kl(q_union, _posterior_on(m, union))


@dataclass(frozen=True)
class FiniteEquivalenceReport:
    """The three routes to the divergence and their largest pairwise gap.

    ``q_X`` and ``p_X`` are the extended approximation and the exact
    posterior the full route was computed from, so later checks on the
    same instance can reuse them (and their cached factors).
    """

    full: float
    titsias: float
    elbo_gap: float
    max_abs_diff: float
    q_X: GaussianDist = field(compare=False, repr=False)
    p_X: GaussianDist = field(compare=False, repr=False)


def check_finite_equivalence(m: FiniteModel, q: GaussianDist) -> FiniteEquivalenceReport:
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

    q_X = extend_approx(m, q)
    p_X = exact_posterior(m)
    full = mvn_kl(q_X, p_X)
    tits = titsias_kl(m, q)
    state = SVGPState(
        features=tuple(PointFeature(loc) for loc in m.X[list(m.inducing_idx)]),
        q_mean=q.mean,
        q_chol=q.chol,
        kernel=m.kernel,
        likelihood=GaussianNoise(m.noise_var),
    )
    bound = elbo(state, m.X[list(m.data_idx)], m.Y)
    gap = log_marginal_likelihood(m) - bound
    vals = (full, tits, gap)
    max_abs_diff = max(abs(a - b) for a in vals for b in vals)
    return FiniteEquivalenceReport(full, tits, gap, max_abs_diff, q_X, p_X)


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
    _validate_indices(u, joint_q.dim, "dependent index")  # the partition may leave U empty
    # the marginals' cached factors are those of the conditioning blocks
    cond_q = _conditional(joint_q, u, v, q_v.chol)
    cond_p = _conditional(joint_p, u, v, p_v.chol)
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
    noise = 0.5 * float(m.prior.cov[z, z].mean())
    return AffineConditional(
        np.eye(m.n_points)[z], np.zeros(z.shape[0]), cov_scale * noise * np.eye(z.shape[0])
    )


@dataclass(frozen=True)
class AugmentationReport:
    kl_union: float
    kl_X: float
    gap: float


def augmentation_gap(
    m: FiniteModel,
    q: GaussianDist,
    q_conditional: AffineConditional,
) -> AugmentationReport:
    """Effect of adjoining an augmenting block A on the divergence.

    Both measures are extended to (f_X, A): the posterior side uses the
    noisy copy (:func:`augmented_report` takes any other), the approximation
    uses ``q_conditional``.  Marginal consistency on X alone does not
    close the gap; it vanishes exactly when the conditionals agree.
    """
    q_X = extend_approx(m, q)
    p_X = exact_posterior(m)
    if q_conditional.in_dim != m.n_points:
        raise ValueError("q_conditional must read the full index set")
    p_union = joint_from_marginal_and_conditional(p_X, noisy_copy_conditional(m))
    return augmented_report(q_X, p_union, mvn_kl(q_X, p_X), q_conditional)


def augmented_report(
    q_X: GaussianDist,
    p_union: GaussianDist,
    kl_X: float,
    q_conditional: AffineConditional,
) -> AugmentationReport:
    """The augmentation report from parts already built.

    ``p_union`` is the posterior side extended to (f_X, A) and ``kl_X``
    is ``KL(q_X || p_X)``; several conditionals can be compared against
    one posterior side without rebuilding it.
    """
    q_union = joint_from_marginal_and_conditional(q_X, q_conditional)
    kl_union = mvn_kl(q_union, p_union)
    return AugmentationReport(kl_union, kl_X, kl_union - kl_X)


@dataclass(frozen=True)
class PushforwardReport:
    constructed: GaussianDist
    pushforward: GaussianDist
    max_diff: float


def _require_full_row_rank(A_map, n):
    """Validate a map on n coordinates; return it with its right singular vectors.

    One full SVD serves both the rank check (its singular values) and
    the null space of the map (the trailing rows of ``Vt``).
    """
    A = np.atleast_2d(np.asarray(A_map, dtype=float))
    if A.shape[0] == 0:
        raise ValueError(f"map has no rows: shape {A.shape}")
    if A.shape[0] > A.shape[1]:
        raise ValueError(
            f"map must have full row rank: shape {A.shape} has more rows than columns"
        )
    if A.shape[1] != n:
        raise ValueError(
            f"map has {A.shape[1]} columns but the distribution has dimension {n}"
        )
    if not np.isfinite(A).all():
        raise ValueError("map entries must be finite")
    _, s, Vt = np.linalg.svd(A)
    if s[-1] <= 1e-10 * max(s[0], 1.0):
        raise ValueError(
            f"map is rank deficient: smallest singular value {s[-1]:.3e}"
        )
    return A, Vt


def _condition_on_image(dist: GaussianDist, A):
    """The image law of ``u = A f`` under ``f ~ dist``, the gain ``B`` and ``cov(f | u)``.

    ``B = S A^T (A S A^T)^-1`` gives ``E[f | u] = m + B (u - A m)`` and
    ``cov(f | u) = S - B A S``.  It is one Cholesky solve against the
    image law's cached factor, which later uses of the image law share.
    """
    SA = dist.cov @ A.T
    image = GaussianDist(A @ dist.mean, A @ SA)
    B = cho_solve(image.chol, SA.T).T
    return image, B, dist.cov - B @ (A @ dist.cov)


def _pushforward_report(dist: GaussianDist, A, image, B, cov_given_u) -> PushforwardReport:
    """Rebuild the image law through the conditional of f given u = A f."""
    # Mix the conditional over the candidate law of u, then transform.
    mean_rebuilt = dist.mean + B @ (image.mean - A @ dist.mean)
    cov_rebuilt = cov_given_u + B @ image.cov @ B.T
    constructed = GaussianDist(A @ mean_rebuilt, A @ cov_rebuilt @ A.T)
    max_diff = max(
        float(np.abs(constructed.mean - image.mean).max()),
        float(np.abs(constructed.cov - image.cov).max()),
    )
    return PushforwardReport(constructed, image, max_diff)


def pushforward_check(q_X: GaussianDist, A_map) -> PushforwardReport:
    """Compare two routes to the law of ``A f`` under ``f ~ q_X``.

    The direct route transforms mean and covariance.  The constructed
    route conditions ``f`` on ``u = A f``, mixes the conditional back
    over the candidate law of ``u``, and only then transforms.  The two
    agree whenever the candidate really is the image law; the singular
    joint of (f, A f) is never factorized.
    """
    A, _ = _require_full_row_rank(A_map, q_X.dim)
    return _pushforward_report(q_X, A, *_condition_on_image(q_X, A))


def deterministic_union_kl(q_X: GaussianDist, p_X: GaussianDist, A_map):
    """KL over the deterministic union (f, A f) via a fiber decomposition.

    The joint of (f, A f) is singular, so the divergence is evaluated as
    an expected conditional KL along the fibers {f : A f = u}
    (parameterized on the null space of A) plus the marginal KL of the
    images.  The theorem under test says this equals KL(q_X || p_X).

    Returns a dict with ``kl_union`` and ``kl_X``.
    """
    return {
        "kl_union": deterministic_map_report(q_X, p_X, A_map).kl_union,
        "kl_X": mvn_kl(q_X, p_X),
    }


@dataclass(frozen=True)
class DeterministicMapReport:
    push_diff: float
    kl_union: float


def deterministic_map_report(
    q_X: GaussianDist, p_X: GaussianDist, A_map
) -> DeterministicMapReport:
    """Both deterministic-map checks in one pass over the map.

    ``push_diff`` is :func:`pushforward_check`'s ``max_diff`` and
    ``kl_union`` is :func:`deterministic_union_kl`'s, for a caller that
    already holds ``KL(q_X || p_X)``.  One SVD of the map gives its rank
    check and null space; one image law of each side, with its cached
    factor and gain, serves the pushforward, the image KL and the fiber
    conditionals.
    """
    A, Vt = _require_full_row_rank(A_map, q_X.dim)
    if p_X.dim != q_X.dim:
        raise ValueError("map and distributions must share one dimension")
    q_image, *q_given = _condition_on_image(q_X, A)
    p_image, *p_given = _condition_on_image(p_X, A)
    push_diff = _pushforward_report(q_X, A, q_image, *q_given).max_diff
    kl_union = mvn_kl(q_image, p_image)
    a = A.shape[0]
    if a < q_X.dim:
        # Chart for both fiber conditionals: f = pinv(A) u + N xi, with N
        # an orthonormal basis of the null space of A, so xi = N^T f.  The
        # columns of pinv(A) lie in the row space of A, orthogonal to N,
        # so N^T pinv(A) = 0: the weights of xi given u are just N^T B
        # (a chart term would cancel in Wq - Wp anyway).
        N = Vt[a:].T

        def fiber_conditional(dist, B, cov_given):
            offset = N.T @ (dist.mean - B @ (A @ dist.mean))
            return AffineConditional(N.T @ B, offset, N.T @ cov_given @ N)

        kl_union += expected_conditional_kl(
            fiber_conditional(q_X, *q_given), fiber_conditional(p_X, *p_given), q_image
        )
    return DeterministicMapReport(push_diff, kl_union)
