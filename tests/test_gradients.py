"""Analytic gradients of elbo, cox_elbo and the collapsed bound against
central differences.

``numeric_grad`` is the oracle: for every likelihood and Cox link, point
and window features, and each choice of exposed blocks, the raw
gradient built from ``elbo_and_grad``/``cox_elbo_and_grad`` must match
it coordinate by coordinate.  ``collapsed_bound_and_grad``, which the
regression fit calls, must match central differences of
``collapsed_bound``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekl import svgp
from sparsekl.cox import CoxModel, cox_elbo, cox_elbo_and_grad
from sparsekl.gaussians import (
    NotPositiveDefiniteError,
    cholesky,
    cholesky_jittered,
    solve_triangular,
)
from sparsekl.interdomain import (
    GaussianWindowFeature,
    PointFeature,
    assemble_Kuf,
    assemble_Kuu,
)
from sparsekl.kernels import Kernel
from sparsekl.optimize import numeric_grad, raw_gradient, svgp_parameterization
from sparsekl.svgp import (
    BernoulliProbit,
    GaussianNoise,
    PoissonCounts,
    SVGPState,
    collapsed_bound,
    collapsed_bound_and_grad,
    collapsed_optimal_q,
    elbo,
    elbo_and_grad,
)
from sparsekl.verify import REGIMES

OBJECTIVES = ("gaussian", "probit", "poisson", "cox-exp", "cox-square")
N_DATA = 30
N_EVENTS = 40


def random_problem(seed, objective, window):
    """A random state and its objective ``(value_of, grad_of)``.

    q is drawn in whitened form, ``q_mean = m_u + Luu a`` and
    ``q_chol = Luu B`` with random ``a`` and lower triangular ``B``, so
    posterior means and variances stay on the prior's scale.  There the
    central differences of ``numeric_grad`` resolve the gradient to the
    test tolerance.  Far off that scale (an ill-conditioned window Kuu
    turns an unwhitened draw into swings that cross zero), the square
    link's log f^2 has curvature large enough that the truncation error
    of a 1e-5 step exceeds it, although the analytic value is what the
    differences converge to as the step shrinks.
    """
    rng = np.random.default_rng(seed)
    cox = objective.startswith("cox")
    d = 1 if cox else 1 + seed % 2
    M = int(rng.integers(3, 7))
    centres = rng.uniform(0.0, 1.0, (M, d))
    centres[:, 0] = (np.arange(M) + 0.5 + rng.uniform(-0.2, 0.2, M)) / M
    if window:
        features = [
            GaussianWindowFeature(c, rng.uniform(0.02, 0.1, d)) for c in centres
        ]
    else:
        features = [PointFeature(c) for c in centres]
    if objective == "cox-exp":
        mean = math.log(N_EVENTS)
    elif objective == "cox-square":
        mean = math.sqrt(N_EVENTS)
    else:
        mean = float(rng.normal(0.0, 0.3))
    kernel = Kernel(rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.3, d), mean)
    Luu = cholesky(assemble_Kuu(features, kernel))
    B = np.tril(0.2 * rng.standard_normal((M, M)), -1)
    B += np.diag(rng.uniform(0.3, 0.9, M))
    likelihood = {
        "gaussian": GaussianNoise(rng.uniform(0.1, 0.5)),
        "probit": BernoulliProbit(),
        "poisson": PoissonCounts(0.5),
    }.get(objective)
    state = SVGPState(
        features=features,
        q_mean=mean + Luu @ (0.5 * rng.standard_normal(M)),
        q_chol=Luu @ B,
        kernel=kernel,
        likelihood=likelihood,
    )
    if cox:
        model = CoxModel(
            lower=[0.0],
            upper=[1.0],
            events=np.sort(rng.uniform(0.0, 1.0, N_EVENTS)),
            link=objective[len("cox-"):],
            quad_orders=(30,),
        )
        return state, (lambda s: cox_elbo(s, model)), (
            lambda s: cox_elbo_and_grad(s, model)
        )
    X = rng.uniform(0.0, 1.0, (N_DATA, d))
    latent = np.sin(6.0 * X[:, 0])
    Y = {
        "gaussian": latent + 0.3 * rng.standard_normal(N_DATA),
        "probit": np.where(latent + 0.3 * rng.standard_normal(N_DATA) >= 0, 1.0, -1.0),
        "poisson": rng.poisson(2.0 * np.exp(latent)).astype(float),
    }[objective]
    return state, (lambda s: elbo(s, X, Y)), (lambda s: elbo_and_grad(s, X, Y))


class TestGradientOracle:
    @pytest.mark.parametrize("optimize_features", [False, True], ids=["fixed", "features"])
    @pytest.mark.parametrize("optimize_hypers", [False, True], ids=["q-only", "hypers"])
    @pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_central_differences(
        self, objective, window, optimize_hypers, optimize_features, seed
    ):
        state, value_of, value_and_grad_of = random_problem(seed, objective, window)
        x0, rebuild = svgp_parameterization(state, optimize_hypers, optimize_features)
        value, grads = value_and_grad_of(state)
        assert value == value_of(state)
        g = raw_gradient(x0, grads)
        g_fd = numeric_grad(lambda pv: value_of(rebuild(pv)), x0)
        excess = np.abs(g - g_fd) - 1e-5 * (1.0 + np.abs(g_fd))
        worst = int(np.argmax(excess))
        assert excess[worst] <= 0.0, (
            f"{x0.coordinate_names()[worst]}: analytic {g[worst]!r}, "
            f"central difference {g_fd[worst]!r}"
        )

    def test_jittered_Kuu_passes_its_trace_share_back(self):
        # Two coincident features make Kuu singular.  The jitter is a fixed
        # multiple of mean(diag Kuu), so it moves with the kernel variance;
        # leaving that share out moves this derivative by about 8 %.  A
        # jittered factor carries relative errors of eps / 1e-10 in its
        # small pivot, so the central difference takes a 1e-2 step, and
        # both probes must keep the same jitter multiple.
        k = Kernel(variance=1.3, lengthscales=0.4, mean_const=0.2)
        feats = [PointFeature([0.2]), PointFeature([0.2]), PointFeature([0.7])]
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(assemble_Kuu(feats, k))
        Luu, jitter = cholesky_jittered(assemble_Kuu(feats, k))
        state = SVGPState(
            features=feats,
            q_mean=0.2 + Luu @ np.array([0.1, -0.2, 0.4]),
            q_chol=Luu @ np.array([[0.5, 0.0, 0.0], [0.1, 0.6, 0.0], [-0.2, 0.3, 0.7]]),
            kernel=k,
            likelihood=GaussianNoise(0.2),
        )
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, 20)
        Y = np.sin(5.0 * X)
        x0, rebuild = svgp_parameterization(state, optimize_hypers=True)
        i = x0.coordinate_names().index("kernel_variance[0]")
        h = 1e-2
        step = h * (1.0 + abs(x0.raw[i]))
        for sign in (1.0, -1.0):
            probe = x0.raw.copy()
            probe[i] += sign * step
            kp = rebuild(x0.with_raw(probe)).kernel
            _, jp = cholesky_jittered(assemble_Kuu(feats, kp))
            assert jp / kp.variance == pytest.approx(jitter / k.variance, rel=1e-12)
        g = raw_gradient(x0, elbo_and_grad(state, X, Y)[1])
        g_fd = numeric_grad(lambda pv: elbo(rebuild(pv), X, Y), x0, h=h)
        assert g[i] == pytest.approx(g_fd[i], rel=1e-3)


def collapsed_problem(seed, regime, window):
    """A seeded regression state whose features meet the data as ``regime`` says.

    As in :func:`sparsekl.verify.random_finite_instance`, inputs are
    spaced at least 1.2 lengthscales apart.  ``disjoint`` features sit
    between inputs, ``subset`` features on some of them and ``equal``
    features on all of them.  q is arbitrary: the collapsed routes do
    not read it.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    ell = float(rng.uniform(0.5, 1.5))
    gaps = rng.uniform(1.2 * ell, 2.5 * ell, size=n - 1)
    X = np.concatenate([[0.0], np.cumsum(gaps)])
    kernel = Kernel(rng.uniform(0.3, 2.0), [ell], rng.uniform(-1.0, 1.0))
    Y = kernel.mean_const + np.sin(X / ell) + 0.3 * rng.standard_normal(n)
    if regime == "disjoint":
        midpoints = X[:-1] + 0.5 * gaps
        centres = rng.choice(midpoints, size=int(rng.integers(1, 5)), replace=False)
    elif regime == "subset":
        centres = rng.choice(X, size=int(rng.integers(1, n)), replace=False)
    else:
        centres = X
    if window:
        features = [
            GaussianWindowFeature([c], [rng.uniform(0.05, 0.3) * ell]) for c in centres
        ]
    else:
        features = [PointFeature([c]) for c in centres]
    M = len(features)
    state = SVGPState(
        features=features,
        q_mean=rng.standard_normal(M),
        q_chol=np.eye(M),
        kernel=kernel,
        likelihood=GaussianNoise(rng.uniform(0.1, 1.0)),
    )
    return state, X, Y


class TestCollapsedGradientOracle:
    @pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
    @pytest.mark.parametrize("regime", REGIMES)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_central_differences_of_collapsed_bound(self, regime, window, seed):
        state, X, Y = collapsed_problem(seed, regime, window)
        x0, rebuild = svgp_parameterization(state, optimize_features=True)
        value, grads = collapsed_bound_and_grad(state, X, Y)
        bound_of = lambda s: collapsed_bound(
            s.features, s.kernel, X, Y, s.likelihood.noise_var
        )
        assert value == pytest.approx(bound_of(state), rel=1e-10, abs=1e-10)
        g = raw_gradient(x0, grads)
        g_fd = numeric_grad(lambda pv: bound_of(rebuild(pv)), x0)
        names = x0.coordinate_names()
        for i, name in enumerate(names):
            if name.startswith("q_"):
                assert g[i] == 0.0, name
            else:
                assert abs(g[i] - g_fd[i]) <= 1e-6 * (1.0 + abs(g_fd[i])), (
                    f"{name}: collapsed {g[i]!r}, central difference {g_fd[i]!r}"
                )

    @pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
    @pytest.mark.parametrize("regime", REGIMES)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_optimal_q_zeroes_the_q_gradient(self, regime, window, seed):
        state, X, Y = collapsed_problem(seed, regime, window)
        q = collapsed_optimal_q(state.features, state.kernel, X, Y, state.likelihood.noise_var)
        _, grads = elbo_and_grad(q.to_state(), X, Y)
        assert np.max(np.abs(grads["alpha"])) <= 1e-8
        assert np.max(np.abs(grads["half_diag"])) <= 1e-8
        assert np.max(np.abs(grads["half_lower"]), initial=0.0) <= 1e-8

    @pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
    @pytest.mark.parametrize("regime", REGIMES)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_both_modes_agree_at_the_optimal_q(self, regime, window, seed):
        # the collapsed pass and elbo_and_grad at the optimal q (both with q
        # held in whitened coordinates) give one hyperparameter gradient
        state, X, Y = collapsed_problem(seed, regime, window)
        value, grads = collapsed_bound_and_grad(state, X, Y)
        q = collapsed_optimal_q(state.features, state.kernel, X, Y, state.likelihood.noise_var)
        value_q, grads_q = elbo_and_grad(q.to_state(), X, Y)
        assert abs(value - value_q) <= 1e-9 * (1.0 + abs(value))
        for name, g in grads.items():
            if not name.startswith("q_"):
                excess = np.abs(g - grads_q[name]) - 1e-9 * (1.0 + np.abs(g))
                assert np.all(excess <= 0.0), name

    @pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
    def test_jittered_Kuu_gives_the_bound_s_gradient(self, window):
        # TestGradientOracle's jittered case with q fixed in whitened
        # coordinates: the Cholesky pullback runs through a factor with a
        # pivot of 1.6e-5.  Here the jitter's trace share does not move the
        # derivative beyond round-off: Kuf has no component along the null
        # direction of the coincident features, which the jitter fills.
        k = Kernel(variance=1.3, lengthscales=0.4, mean_const=0.2)
        if window:
            feats = [GaussianWindowFeature([c], [0.05]) for c in (0.2, 0.2, 0.7)]
        else:
            feats = [PointFeature([c]) for c in (0.2, 0.2, 0.7)]
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(assemble_Kuu(feats, k))
        _, jitter = cholesky_jittered(assemble_Kuu(feats, k))
        state = SVGPState(
            features=feats, q_mean=np.zeros(3), q_chol=np.eye(3), kernel=k,
            likelihood=GaussianNoise(0.2),
        )
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, 20)
        Y = np.sin(5.0 * X)
        x0, rebuild = svgp_parameterization(state, optimize_hypers=True)
        i = x0.coordinate_names().index("kernel_variance[0]")
        h = 1e-2
        step = h * (1.0 + abs(x0.raw[i]))
        for sign in (1.0, -1.0):
            probe = x0.raw.copy()
            probe[i] += sign * step
            kp = rebuild(x0.with_raw(probe)).kernel
            _, jp = cholesky_jittered(assemble_Kuu(feats, kp))
            assert jp / kp.variance == pytest.approx(jitter / k.variance, rel=1e-12)
        g = raw_gradient(x0, collapsed_bound_and_grad(state, X, Y)[1])
        g_fd = numeric_grad(
            lambda pv: collapsed_bound(feats, rebuild(pv).kernel, X, Y, 0.2), x0, h=h
        )
        assert g[i] == pytest.approx(g_fd[i], rel=1e-3)


class TestReversePassStructure:
    def test_cotangents_go_back_through_Luu_alone(self, monkeypatch):
        # Besides A = Luu^-1 Kuf, no solve of an evaluation has n columns,
        # and the reverse pass solves against no identity: it forms neither
        # Kuu^-1 nor P = Kuu^-1 Kuf.  The one identity right-hand side is
        # the collapsed forward's LB^-T, q's whitened factor at the optimum.
        solves, kufs, phase = [], [], ["forward"]

        def recorded_solve(L, B, **kwargs):
            solves.append((phase[0], B))
            return solve_triangular(L, B, **kwargs)

        def recorded_Kuf(*args):
            kufs.append(assemble_Kuf(*args))
            return kufs[-1]

        def recorded_backward(fp, *args):
            phase[0] = "backward"
            try:
                return backward(fp, *args)
            finally:
                phase[0] = "forward"

        state, X, Y = collapsed_problem(0, "disjoint", False)
        probit, _, probit_grad = random_problem(0, "probit", False)
        cox, _, cox_grad = random_problem(0, "cox-exp", True)
        evaluations = {
            "collapsed": lambda: collapsed_bound_and_grad(state, X, Y),
            "probit": lambda: probit_grad(probit),
            "cox": lambda: cox_grad(cox),
        }
        backward = svgp._WhitenedPass.backward
        monkeypatch.setattr(svgp, "solve_triangular", recorded_solve)
        monkeypatch.setattr(svgp, "assemble_Kuf", recorded_Kuf)
        monkeypatch.setattr(svgp._WhitenedPass, "backward", recorded_backward)
        for name, evaluate in evaluations.items():
            solves.clear()
            kufs.clear()
            evaluate()
            (Kuf,) = kufs
            n = Kuf.shape[1]
            identities = [
                p for p, B in solves
                if B.ndim == 2 and B.shape[0] == B.shape[1] and np.array_equal(B, np.eye(len(B)))
            ]
            assert identities == (["forward"] if name == "collapsed" else []), name
            wide = [B for _, B in solves if B.ndim == 2 and B.shape[1] >= n]
            assert len(wide) == 1 and wide[0] is Kuf, name
            assert any(p == "backward" for p, _ in solves), name

    @pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
    @pytest.mark.parametrize("objective", ["probit", "poisson", "cox-exp"])
    def test_a_fit_evaluation_makes_four_solves(self, monkeypatch, objective, window):
        # A, R and the two of the Cholesky pullback: the fit moves q in the
        # whitened coordinates the pass consumes, so nothing is solved for
        # alpha or half, forward or back
        state, _, value_and_grad_of = random_problem(0, objective, window)
        x0, rebuild = svgp_parameterization(state)
        fitted = rebuild(x0.with_raw(x0.raw + 0.01))
        calls = []
        real = svgp.solve_triangular

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(svgp, "solve_triangular", counted)
        value, grads = value_and_grad_of(fitted)
        assert math.isfinite(value) and np.isfinite(raw_gradient(x0, grads)).all()
        assert len(calls) == 4


class TestOneDataTermCall:
    """A fused evaluation reads the data term, values and derivatives, from one
    ``moments`` call, which evaluates its integrand once."""

    def test_probit_evaluates_log_ndtr_once(self, monkeypatch):
        calls = []
        real = svgp.log_ndtr

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(svgp, "log_ndtr", counted)
        state, _, value_and_grad_of = random_problem(0, "probit", False)
        value_and_grad_of(state)
        assert len(calls) == 1

    @pytest.mark.parametrize("objective", ["gaussian", "probit", "poisson", "collapsed", "cox-exp", "cox-square"])
    def test_one_moments_call_and_no_value_call(self, monkeypatch, objective):
        if objective == "collapsed":
            state, X, Y = collapsed_problem(0, "disjoint", False)
            term, evaluate = type(state.likelihood), lambda: collapsed_bound_and_grad(state, X, Y)
        else:
            state, _, value_and_grad_of = random_problem(0, objective, False)
            term = CoxModel if objective.startswith("cox") else type(state.likelihood)
            evaluate = lambda: value_and_grad_of(state)
        calls = []

        def counting(name):
            real = getattr(term, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return counted

        for name in ("moments", "variational_expectations"):
            if hasattr(term, name):
                monkeypatch.setattr(term, name, counting(name))
        value, grads = evaluate()
        assert calls == ["moments"]
        assert math.isfinite(value) and grads
