"""Sparse variational Gaussian process inference with a verification oracle.

The package has two halves that check each other.  The modeling half
implements the sparse variational family (inducing features, collapsed
and uncollapsed bounds, Cox process objectives).  The oracle half works
in an explicit finite-dimensional world where every posterior, marginal
likelihood, and divergence is exactly computable, so the identities the
sparse construction relies on can be verified numerically.
"""

from .cox import (
    CoxModel,
    cox_elbo,
    cox_elbo_and_grad,
    cox_elbo_terms,
    fitted_intensity,
    sample_inhomogeneous_pp,
)
from .finite_oracle import (
    FiniteModel,
    augmentation_gap,
    check_finite_equivalence,
    collapsed_bound_dense,
    deterministic_union_kl,
    exact_posterior,
    extend_approx,
    full_kl,
    kl_chain_rule_decompose,
    log_marginal_likelihood,
    noisy_copy_conditional,
    pushforward_check,
    titsias_kl,
)
from .gaussians import (
    AffineConditional,
    GaussianDist,
    NotPositiveDefiniteError,
    cholesky_jittered,
    conditional_from_joint,
    expected_conditional_kl,
    mvn_condition,
    mvn_kl,
    mvn_logpdf,
    mvn_marginal,
)
from .interdomain import (
    GaussianWindowFeature,
    PointFeature,
    assemble_Kuf,
    assemble_Kuu,
    feature_feature_cov,
    feature_point_cov,
)
from .kernels import Kernel, kernel_matrix, prior_at
from .optimize import (
    NonFiniteObjectiveError,
    ParamBlock,
    ParamVector,
    maximize,
    numeric_grad,
    raw_gradient,
    svgp_parameterization,
)
from .svgp import (
    BernoulliProbit,
    GaussianNoise,
    PoissonCounts,
    SVGPState,
    WhitenedState,
    collapsed_bound,
    collapsed_bound_and_grad,
    collapsed_optimal_q,
    elbo,
    elbo_and_grad,
    gauss_hermite_expectation,
    load_checkpoint,
    predictive_marginals,
    save_checkpoint,
)
from .verify import run_verification

__version__ = "0.1.0"
