"""Parameter packing, finite differences, and the L-BFGS-B ascent."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekl.interdomain import GaussianWindowFeature, PointFeature
from sparsekl.kernels import Kernel
from sparsekl.optimize import (
    NonFiniteObjectiveError,
    ParamBlock,
    ParamVector,
    from_constrained,
    maximize,
    numeric_grad,
    svgp_parameterization,
)
from sparsekl.svgp import GaussianNoise, SVGPState, collapsed_bound, elbo


def simple_blocks():
    return (
        ParamBlock("loc", 2),
        ParamBlock("scale", 1, transform="log"),
        ParamBlock("width", 2, transform="softplus"),
    )


class TestPacking:
    def test_unpack_is_exact(self):
        raw = {
            "loc": np.array([0.3, -1.2]),
            "scale": np.array([0.7]),
            "width": np.array([-2.0, 3.0]),
        }
        x = ParamVector(simple_blocks(), np.concatenate(list(raw.values())))
        back = x.unpack()
        for name in raw:
            np.testing.assert_array_equal(back[name], raw[name])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=5, max_size=5))
    def test_raw_roundtrip_property(self, vals):
        blocks = simple_blocks()
        x = ParamVector(blocks, np.array(vals))
        back = np.concatenate([x.unpack()[b.name] for b in blocks])
        np.testing.assert_array_equal(back, x.raw)

    def test_constrained_values_are_feasible(self):
        blocks = simple_blocks()
        x = ParamVector(blocks, np.array([0.0, 1.0, -40.0, -5.0, 20.0]))
        con = x.constrained()
        assert np.all(con["scale"] > 0)
        assert np.all(con["width"] > 0)

    def test_from_constrained_inverts_transforms(self):
        blocks = simple_blocks()
        values = {
            "loc": np.array([1.0, 2.0]),
            "scale": np.array([0.05]),
            "width": np.array([3.0, 1e4]),
        }
        x = from_constrained(blocks, values)
        con = x.constrained()
        for name in values:
            np.testing.assert_allclose(con[name], values[name], rtol=1e-12)

    def test_from_constrained_rejects_infeasible(self):
        blocks = simple_blocks()
        with pytest.raises(ValueError, match="positive"):
            from_constrained(
                blocks,
                {"loc": np.zeros(2), "scale": np.array([-1.0]), "width": np.ones(2)},
            )

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamVector((ParamBlock("a", 1), ParamBlock("a", 2)), np.zeros(3))
        with pytest.raises(ValueError, match="transform"):
            ParamVector((ParamBlock("a", 1, transform="cube"),), np.zeros(1))
        with pytest.raises(ValueError, match="shape"):
            ParamVector(simple_blocks(), np.zeros(4))

    def test_empty_blocks_are_legal(self):
        x = ParamVector((ParamBlock("a", 0), ParamBlock("b", 2, "log")), np.array([0.0, 1.0]))
        assert x.unpack()["a"].shape == (0,) and x.coordinate_names() == ["b[0]", "b[1]"]
        np.testing.assert_array_equal(x.constrained()["b"], [1.0, np.e])

    def test_coordinate_names(self):
        names = ParamVector(simple_blocks(), np.zeros(5)).coordinate_names()
        assert names[0] == "loc[0]" and names[2] == "scale[0]" and len(names) == 5


class TestNumericGrad:
    def test_cubic_polynomial(self):
        blocks = (ParamBlock("x", 3),)

        def f(v):
            x = v.raw
            return float(x[0] ** 3 + 2.0 * x[1] ** 2 - x[2])

        x = ParamVector(blocks, np.array([1.5, -0.5, 2.0]))
        g = numeric_grad(f, x)
        expected = np.array([3 * 1.5 ** 2, 4 * -0.5, -1.0])
        np.testing.assert_allclose(g, expected, rtol=1e-7, atol=1e-8)

    def test_step_scales_with_coordinate(self):
        # large coordinates still get usable relative steps
        blocks = (ParamBlock("x", 1),)
        f = lambda v: float(0.5 * v.raw[0] ** 2)
        g = numeric_grad(f, ParamVector(blocks, np.array([1e6])))
        assert g[0] == pytest.approx(1e6, rel=1e-9)

    def test_non_finite_probe_names_coordinate(self):
        blocks = (ParamBlock("a", 2), ParamBlock("b", 1))

        def f(v):
            if v.raw[2] > 0.5:
                return float("nan")
            return float(np.sum(v.raw))

        with pytest.raises(NonFiniteObjectiveError, match="b\\[0\\]"):
            numeric_grad(f, ParamVector(blocks, np.array([0.0, 0.0, 0.5])))


class TestMaximize:
    def test_quadratic_bowl(self):
        blocks = (ParamBlock("x", 3),)
        target = np.array([1.0, -2.0, 0.5])
        f = lambda v: float(-np.sum((v.raw - target) ** 2))
        res = maximize(f, ParamVector(blocks, np.zeros(3)), max_iters=400, tol=1e-12)
        np.testing.assert_allclose(res.x.raw, target, atol=1e-3)
        assert res.converged

    def test_trace_is_monotone(self):
        blocks = (ParamBlock("x", 2),)

        def banana(v):
            a, b = v.raw
            return float(-((1 - a) ** 2) - 5.0 * (b - a * a) ** 2)

        res = maximize(banana, ParamVector(blocks, np.array([-1.0, 1.5])), max_iters=300)
        assert np.all(np.diff(res.trace) >= 0.0)

    def test_respects_max_iters(self):
        blocks = (ParamBlock("x", 1),)
        f = lambda v: float(-v.raw[0] ** 2)
        res = maximize(f, ParamVector(blocks, np.array([5.0])), max_iters=3, tol=0.0)
        assert res.iterations <= 3

    def test_records_match_trace(self):
        blocks = (ParamBlock("x", 1),)
        f = lambda v: float(-((v.raw[0] - 2.0) ** 2))
        res = maximize(f, ParamVector(blocks, np.array([0.0])), max_iters=50)
        assert len(res.records) == len(res.trace) - 1
        for it, obj, step_scale, grad_norm in res.records:
            assert step_scale >= 0.0 and grad_norm >= 0.0
        objs = [r[1] for r in res.records]
        np.testing.assert_array_equal(objs, res.trace[1:])

    @pytest.mark.parametrize("fused", [False, True], ids=["central-differences", "fused"])
    def test_final_record_is_taken_at_the_result(self, fused):
        blocks = (ParamBlock("x", 2),)

        def banana(v):
            a, b = v.raw
            value = float(-((1 - a) ** 2) - 5.0 * (b - a * a) ** 2)
            grad = np.array([2.0 * (1 - a) + 20.0 * a * (b - a * a), -10.0 * (b - a * a)])
            return (value, grad) if fused else value

        res = maximize(banana, ParamVector(blocks, np.array([-1.0, 1.5])), max_iters=300)
        assert res.iterations > 5
        value, grad = banana(res.x) if fused else (banana(res.x), numeric_grad(banana, res.x))
        _, objective, _, grad_norm = res.records[-1]
        assert objective == value == res.objective
        assert grad_norm == float(np.linalg.norm(grad))

    def test_analytic_gradient_replaces_central_differences(self):
        # the same optimum, at one fused value-and-gradient call per evaluation
        blocks = (ParamBlock("x", 3),)
        target = np.array([1.0, -2.0, 0.5])
        f = lambda v: float(-np.sum((v.raw - target) ** 2))
        fused = lambda v: (f(v), -2.0 * (v.raw - target))
        x0 = ParamVector(blocks, np.zeros(3))
        probed = maximize(f, x0, max_iters=50, tol=1e-12)
        exact = maximize(fused, x0, max_iters=50, tol=1e-12)
        np.testing.assert_allclose(exact.x.raw, probed.x.raw, rtol=0.0, atol=1e-6)
        assert exact.objective == pytest.approx(probed.objective, abs=1e-6)
        assert exact.evaluations == exact.gradient_evaluations > 0
        assert probed.gradient_evaluations == 0

    def test_non_finite_gradient_names_coordinate(self):
        blocks = (ParamBlock("a", 2), ParamBlock("b", 1))
        fused = lambda v: (float(-np.sum(v.raw**2)), np.array([0.0, 1.0, np.nan]))
        with pytest.raises(NonFiniteObjectiveError, match="b\\[0\\]"):
            maximize(fused, ParamVector(blocks, np.ones(3)))

    def test_non_finite_start_rejected(self):
        blocks = (ParamBlock("x", 1),)
        fused = lambda v: (float("inf"), np.zeros(1))
        with pytest.raises(NonFiniteObjectiveError, match="starting point"):
            maximize(fused, ParamVector(blocks, np.array([0.0])))

    def test_non_finite_probe_is_not_convergence(self):
        # Minimizing (x - 1)^2 behind a +inf wall at x > 0.5 from x = -3,
        # L-BFGS-B probes x = 1 and reports convergence at x = -2.
        blocks = (ParamBlock("x", 1),)

        def walled(v):
            x = v.raw[0]
            value = -math.inf if x > 0.5 else -((x - 1.0) ** 2)
            return value, np.array([-2.0 * (x - 1.0)])

        res = maximize(walled, ParamVector(blocks, np.array([-3.0])))
        assert math.isfinite(res.objective) and res.objective >= res.trace[0]
        assert res.x.raw[0] <= 0.5
        assert np.all(np.diff(res.trace) >= 0.0)
        assert not res.converged
        assert "non-finite" in res.message and "probe" in res.message


class TestSvgpParameterization:
    def make_state(self):
        rng = np.random.default_rng(0)
        k = Kernel(variance=1.1, lengthscales=0.7, mean_const=0.2)
        Z = np.array([0.5, 1.5, 2.5])
        W = 0.2 * rng.standard_normal((3, 3))
        cov = W @ W.T + 0.4 * np.eye(3)
        return SVGPState(
            features=tuple(PointFeature([z]) for z in Z),
            q_mean=rng.standard_normal(3),
            q_chol=np.linalg.cholesky(cov),
            kernel=k,
            likelihood=GaussianNoise(0.3),
        )

    def test_rebuild_recovers_state(self):
        state = self.make_state()
        x0, rebuild = svgp_parameterization(state)
        back = rebuild(x0).to_state()
        np.testing.assert_allclose(back.q_mean, state.q_mean, rtol=1e-12)
        np.testing.assert_allclose(back.q_chol, state.q_chol, rtol=1e-12, atol=1e-15)
        assert back.kernel.variance == pytest.approx(state.kernel.variance, rel=1e-14)
        np.testing.assert_allclose(
            back.kernel.lengthscales, state.kernel.lengthscales, rtol=1e-14
        )
        assert back.likelihood.noise_var == pytest.approx(0.3, rel=1e-14)

    @pytest.mark.parametrize(
        "block, raw", [("kernel_variance", -800.0), ("noise_var", 800.0), ("half_diag", -800.0)]
    )
    def test_rebuild_names_a_transform_that_leaves_its_range(self, block, raw):
        # exp(-800) underflows to 0 and exp(800) overflows: a far line-search
        # probe whose model cannot be built, named instead of a bare ValueError
        x0, rebuild = svgp_parameterization(self.make_state())
        probe = x0.raw.copy()
        probe[x0.slices()[block].start] = raw
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteObjectiveError, match=f"parameter {block} is"
        ):
            rebuild(x0.with_raw(probe))

    def test_variational_only_freezes_hypers(self):
        state = self.make_state()
        x0, rebuild = svgp_parameterization(state, optimize_hypers=False)
        names = {b.name for b in x0.blocks}
        assert "alpha" in names and "half_diag" in names
        assert not any(name.startswith("kernel") for name in names)
        moved = rebuild(x0.with_raw(x0.raw + 0.1))
        assert moved.kernel.variance == state.kernel.variance

    def test_feature_locations_block(self):
        # a point is a zero-width window: its locations are the centres block
        state = self.make_state()
        x0, rebuild = svgp_parameterization(state, optimize_features=True)
        names = {b.name for b in x0.blocks}
        assert "feature_centers" in names and "feature_widths" not in names
        back = rebuild(x0)
        for f_old, f_new in zip(state.features, back.features):
            np.testing.assert_allclose(f_new.location, f_old.location, rtol=1e-14)

    def test_window_features_expose_centers_and_widths(self):
        k = Kernel(variance=1.0, lengthscales=1.0)
        state = SVGPState(
            features=(
                GaussianWindowFeature(center=[0.2], widths=[0.5]),
                GaussianWindowFeature(center=[0.8], widths=[0.3]),
            ),
            q_mean=np.zeros(2),
            q_chol=np.eye(2),
            kernel=k,
        )
        x0, rebuild = svgp_parameterization(state, optimize_features=True)
        names = {b.name for b in x0.blocks}
        assert "feature_centers" in names and "feature_widths" in names
        back = rebuild(x0)
        np.testing.assert_allclose(back.features[0].widths, [0.5], rtol=1e-12)

    @pytest.mark.parametrize(
        "widths",
        [[[0.0, 0.0], [0.3, 0.3]], [[0.0, 0.2], [0.3, 0.2]]],
        ids=["across-features", "within-a-feature"],
    )
    def test_mixed_zero_and_positive_widths_are_rejected(self, widths):
        # all-zero widths move only the centres, all-positive widths their logs too;
        # a mix has no one rule
        k = Kernel(variance=1.0, lengthscales=[0.5, 0.5])
        features = [GaussianWindowFeature([c, c], w) for c, w in zip((0.2, 0.8), widths)]
        state = SVGPState(features, np.zeros(2), np.eye(2), k)
        with pytest.raises(ValueError, match="all widths positive or all zero"):
            svgp_parameterization(state, optimize_features=True)
        svgp_parameterization(state, optimize_features=False)  # fixed features may mix

    @staticmethod
    def single_feature_state(window):
        # a regression state with a point feature, or a Cox state (no likelihood)
        # with a window feature
        k = Kernel(variance=1.3, lengthscales=0.4, mean_const=0.5)
        if window:
            return SVGPState((GaussianWindowFeature([0.3], [0.2]),), [0.7], [[0.6]], k)
        return SVGPState((PointFeature([0.3]),), [0.7], [[0.6]], k, GaussianNoise(0.2))

    @pytest.mark.parametrize("window", [False, True], ids=["regression-point", "cox-window"])
    def test_rebuild_recovers_a_single_feature_state(self, window):
        # M = 1: the strictly lower triangle of half is an empty block
        state = self.single_feature_state(window)
        x0, rebuild = svgp_parameterization(state, optimize_features=True)
        back = rebuild(x0).to_state()
        np.testing.assert_allclose(back.q_mean, state.q_mean, rtol=1e-12)
        np.testing.assert_allclose(back.q_chol, state.q_chol, rtol=1e-12)
        assert back.kernel.variance == pytest.approx(1.3, rel=1e-14)
        assert back.kernel.lengthscales[0] == pytest.approx(0.4, rel=1e-14)
        assert back.kernel.mean_const == 0.5
        assert back.likelihood == state.likelihood
        assert type(back.features[0]) is type(state.features[0])
        if window:
            np.testing.assert_allclose(back.features[0].center, [0.3], rtol=1e-14)
            np.testing.assert_allclose(back.features[0].widths, [0.2], rtol=1e-14)
        else:
            np.testing.assert_allclose(back.features[0].location, [0.3], rtol=1e-14)

    def test_coordinate_order_is_pinned(self):
        # block order fixes the raw vector, and with it every fit's trajectory
        common = ["kernel_variance[0]", "kernel_lengthscales[0]", "kernel_mean[0]"]
        x0, _ = svgp_parameterization(self.single_feature_state(False), optimize_features=True)
        assert x0.coordinate_names() == [
            "alpha[0]", "half_diag[0]", *common, "noise_var[0]", "feature_centers[0]"
        ]
        x0, _ = svgp_parameterization(self.single_feature_state(True), optimize_features=True)
        assert x0.coordinate_names() == [
            "alpha[0]", "half_diag[0]", *common, "feature_centers[0]", "feature_widths[0]"
        ]
        windows = SVGPState(
            [GaussianWindowFeature([c], [0.1]) for c in (0.2, 0.5, 0.8)],
            np.zeros(3),
            np.eye(3),
            Kernel(variance=1.0, lengthscales=0.3),
        )
        x0, _ = svgp_parameterization(windows, optimize_features=True)
        assert x0.coordinate_names() == [
            "alpha[0]", "alpha[1]", "alpha[2]",
            "half_diag[0]", "half_diag[1]", "half_diag[2]",
            "half_lower[0]", "half_lower[1]", "half_lower[2]",
            *common,
            "feature_centers[0]", "feature_centers[1]", "feature_centers[2]",
            "feature_widths[0]", "feature_widths[1]", "feature_widths[2]",
        ]

    def test_optimizing_improves_elbo(self):
        rng = np.random.default_rng(42)
        state = self.make_state()
        X = np.sort(rng.uniform(0.0, 3.0, size=20))
        Y = np.sin(X) + 0.1 * rng.standard_normal(20)
        x0, rebuild = svgp_parameterization(state, optimize_hypers=False)
        before = elbo(state, X, Y)
        res = maximize(
            lambda v: elbo(rebuild(v), X, Y), x0, max_iters=60, tol=1e-10
        )
        assert res.objective > before
        assert np.all(np.diff(res.trace) >= 0.0)

    def test_collapsed_bound_over_locations_beats_restarts(self):
        # optimized inducing locations must dominate the start and 20
        # random placements
        rng = np.random.default_rng(40)
        N, M = 40, 5
        X = np.sort(rng.uniform(0.0, 4.0, N))[:, None]
        k = Kernel(variance=1.0, lengthscales=0.4)
        noise = 0.1
        Y = np.sin(2.0 * X[:, 0]) + math.sqrt(noise) * rng.standard_normal(N)
        state = SVGPState(
            features=[PointFeature([c]) for c in np.linspace(0.4, 3.6, M)],
            q_mean=np.zeros(M),
            q_chol=np.eye(M),
            kernel=k,
            likelihood=GaussianNoise(noise),
        )
        x0, rebuild = svgp_parameterization(
            state, optimize_hypers=False, optimize_features=True
        )
        objective = lambda pv: collapsed_bound(rebuild(pv).features, k, X, Y, noise)
        initial = objective(x0)
        res = maximize(objective, x0, max_iters=200)
        assert res.objective >= initial
        for s in range(20):
            r = np.random.default_rng(100 + s)
            locs = np.sort(r.uniform(0.0, 4.0, M))
            rand = collapsed_bound([PointFeature([c]) for c in locs], k, X, Y, noise)
            assert res.objective >= rand

    def test_uncollapsed_ascent_reaches_collapsed_bound(self):
        # free-form q plus hyperparameters, compared against the
        # closed-form optimum at the final hyperparameters
        rng = np.random.default_rng(41)
        N, M = 20, 3
        X = np.sort(rng.uniform(0.0, 2.0, N))[:, None]
        Y = np.cos(3.0 * X[:, 0]) + 0.3 * rng.standard_normal(N)
        state = SVGPState(
            features=[PointFeature([c]) for c in np.linspace(0.2, 1.8, M)],
            q_mean=np.zeros(M),
            q_chol=np.eye(M),
            kernel=Kernel(variance=1.0, lengthscales=0.5),
            likelihood=GaussianNoise(0.2),
        )
        x0, rebuild = svgp_parameterization(state, optimize_hypers=True)
        res = maximize(lambda pv: elbo(rebuild(pv), X, Y), x0, max_iters=1000)
        final = rebuild(res.x)
        bound = collapsed_bound(
            final.features, final.kernel, X, Y, final.likelihood.noise_var
        )
        assert res.objective <= bound + 1e-9
        assert abs(bound - res.objective) <= 1e-3
