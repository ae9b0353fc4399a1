"""Flat parameter vectors, gradients, L-BFGS-B ascent.

Objectives are functions of a flat unconstrained vector.  Named blocks
carry a transform tag saying how raw coordinates map to model values
(identity, log, or softplus for positives), so packing and unpacking are
pure reshuffles and constraints can never be violated by an
optimization step.

The fits pass ``maximize`` fused values and analytic gradients:
:func:`raw_gradient` chains the model-space gradients of
``collapsed_bound_and_grad``, ``elbo_and_grad`` and ``cox_elbo_and_grad``
through the transforms.
Central differences (:func:`numeric_grad`) serve black-box objectives
and are the oracle the analytic gradients are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .interdomain import GaussianWindowFeature, PointFeature, _stack
from .kernels import Kernel
from .svgp import GaussianNoise, WhitenedState, _triangle

__all__ = [
    "ParamBlock",
    "ParamLayout",
    "ParamVector",
    "pack",
    "from_constrained",
    "numeric_grad",
    "raw_gradient",
    "OptimizeResult",
    "NonFiniteObjectiveError",
    "maximize",
    "svgp_parameterization",
]

# tag -> (model value of a raw coordinate, its derivative in the raw coordinate,
# raw coordinate of a model value); every tag but identity constrains to positives
TRANSFORMS = {
    "identity": (np.array, lambda raw: 1.0, np.array),
    "log": (np.exp, np.exp, np.log),
    "softplus": (lambda raw: np.logaddexp(0.0, raw), expit, lambda v: v + np.log1p(-np.exp(-v))),
}


@dataclass(frozen=True)
class ParamBlock:
    name: str
    size: int
    transform: str = "identity"

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"block {self.name!r} must have positive size")
        if self.transform not in TRANSFORMS:
            raise ValueError(
                f"block {self.name!r} has unknown transform {self.transform!r}; "
                f"expected one of {tuple(TRANSFORMS)}"
            )


@dataclass(frozen=True)
class ParamLayout:
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in layout: {names}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    def slices(self) -> dict:
        out, start = {}, 0
        for b in self.blocks:
            out[b.name] = slice(start, start + b.size)
            start += b.size
        return out

    def coordinate_names(self) -> list:
        names = []
        for b in self.blocks:
            names.extend(f"{b.name}[{i}]" for i in range(b.size))
        return names


@dataclass(frozen=True)
class ParamVector:
    """A flat raw vector together with its block layout."""

    layout: ParamLayout
    raw: np.ndarray

    def __post_init__(self):
        raw = np.atleast_1d(np.asarray(self.raw, dtype=float))
        if raw.shape != (self.layout.total_size,):
            raise ValueError(
                f"raw vector has shape {raw.shape}, layout expects "
                f"({self.layout.total_size},)"
            )
        object.__setattr__(self, "raw", raw)

    def unpack(self) -> dict:
        """Raw blocks by name; a pure slicing of the flat vector."""
        return {name: self.raw[sl].copy() for name, sl in self.layout.slices().items()}

    def constrained(self) -> dict:
        """Model-space values by name, with each block's transform applied."""
        sls = self.layout.slices()
        return {
            b.name: TRANSFORMS[b.transform][0](self.raw[sls[b.name]])
            for b in self.layout.blocks
        }

    def with_raw(self, raw) -> "ParamVector":
        return ParamVector(self.layout, raw)


def pack(layout: ParamLayout, raw_blocks: dict) -> ParamVector:
    """Concatenate named raw blocks into a flat vector."""
    sls = layout.slices()
    if set(raw_blocks) != set(sls):
        raise ValueError(
            f"blocks {sorted(raw_blocks)} do not match layout {sorted(sls)}"
        )
    out = np.empty(layout.total_size)
    for name, sl in sls.items():
        block = np.atleast_1d(np.asarray(raw_blocks[name], dtype=float))
        if block.shape != (sl.stop - sl.start,):
            raise ValueError(
                f"block {name!r} has shape {block.shape}, expected "
                f"({sl.stop - sl.start},)"
            )
        out[sl] = block
    return ParamVector(layout, out)


def from_constrained(layout: ParamLayout, values: dict) -> ParamVector:
    """Build a raw vector from model-space values; rejects infeasible ones."""
    raw = {}
    for b in layout.blocks:
        if b.name not in values:
            raise ValueError(f"missing block {b.name!r}")
        value = np.asarray(values[b.name], dtype=float)
        if b.transform != "identity" and np.any(value <= 0):
            raise ValueError(f"{b.transform}-constrained values must be positive")
        raw[b.name] = TRANSFORMS[b.transform][2](value)
    if set(values) != {b.name for b in layout.blocks}:
        extra = set(values) - {b.name for b in layout.blocks}
        raise ValueError(f"unexpected blocks {sorted(extra)}")
    return pack(layout, raw)


class NonFiniteObjectiveError(ValueError):
    """The objective or a gradient coordinate is non-finite where the
    optimizer needs a value: at the starting point, or at a probe of the
    gradient; or a probe's parameters leave the range their transform can
    represent, so the objective has no value there."""


def numeric_grad(objective, x: ParamVector, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with per-coordinate step ``h * (1 + |x_i|)``.

    Raises :class:`NonFiniteObjectiveError` if the objective is non-finite
    at any probe, naming the coordinate by block and offset.
    """
    raw = x.raw
    grad = np.empty(raw.shape[0])
    names = x.layout.coordinate_names()
    for i in range(raw.shape[0]):
        step = h * (1.0 + abs(raw[i]))
        plus = raw.copy()
        plus[i] += step
        minus = raw.copy()
        minus[i] -= step
        f_plus = objective(x.with_raw(plus))
        f_minus = objective(x.with_raw(minus))
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise NonFiniteObjectiveError(
                f"objective is non-finite when probing coordinate {names[i]}: "
                f"f(+)={f_plus}, f(-)={f_minus}"
            )
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def raw_gradient(x: ParamVector, grads: dict) -> np.ndarray:
    """Gradient in the raw coordinates of ``x`` from model-space gradients.

    ``grads`` is keyed by block name, as ``elbo_and_grad`` returns it.
    Each block is multiplied by the slope of its transform.
    """
    out = np.empty(x.layout.total_size)
    slices = x.layout.slices()
    for b in x.layout.blocks:
        sl = slices[b.name]
        out[sl] = np.ravel(grads[b.name]) * TRANSFORMS[b.transform][1](x.raw[sl])
    return out


@dataclass(frozen=True)
class OptimizeResult:
    """Result of :func:`maximize`.

    ``trace`` is the start value followed by the objective at each
    accepted iterate, and ``records`` holds one ``(iter, objective,
    step_scale, grad_norm)`` row per accepted iterate, ``step_scale``
    being the largest raw coordinate change of its step.  ``message``
    says why the run stopped.  ``evaluations`` counts every objective
    call, the central-difference probes included;
    ``gradient_evaluations`` counts fused value-and-gradient calls.
    """

    x: ParamVector
    objective: float
    trace: np.ndarray
    iterations: int
    converged: bool
    message: str
    records: tuple
    evaluations: int
    gradient_evaluations: int


class _NonFiniteProbe(Exception):
    pass


def maximize(
    objective,
    x0: ParamVector,
    max_iters: int = 2000,
    tol: float = 1e-8,
    jac: bool = False,
) -> OptimizeResult:
    """Maximize ``objective`` over the raw coordinates of ``x0`` by L-BFGS-B.

    With ``jac=True`` the objective returns ``(value, raw_gradient)``
    from one fused call; otherwise central differences (:func:`numeric_grad`
    at its default step) supply the gradient.  ``tol`` is L-BFGS-B's ``ftol``
    (the relative reduction that counts as convergence) and ``max_iters`` its
    ``maxiter``.  Accepted iterates satisfy sufficient increase, so the
    trace is non-decreasing.

    A non-finite objective at the start raises
    :class:`NonFiniteObjectiveError`, as does a non-finite gradient
    coordinate.  A non-finite objective at a later probe ends the run at
    the last accepted iterate with ``converged`` false: L-BFGS-B would
    instead report convergence there (on +inf) or wander off (on NaN).
    """
    counts = {"objective": 0, "gradient": 0}
    last = [None]  # (value, gradient norm) of the latest probe: L-BFGS-B accepts its last probe
    accepted = [x0.raw]
    trace = []
    records = []

    def counted(pv):
        counts["objective"] += 1
        return objective(pv)

    def negated(raw):
        pv = x0.with_raw(raw)
        if jac:
            counts["gradient"] += 1
            value, grad = counted(pv)
        else:
            value = counted(pv)
        value = float(value)
        if not math.isfinite(value):
            if not trace:
                raise NonFiniteObjectiveError(
                    f"objective is non-finite at the starting point: {value}"
                )
            raise _NonFiniteProbe(
                f"STOP: objective is non-finite ({value}) at a line-search probe; "
                "the last accepted iterate is returned"
            )
        if jac:
            grad = np.asarray(grad, dtype=float)
            if not np.isfinite(grad).all():
                bad = x0.layout.coordinate_names()[int(np.argmin(np.isfinite(grad)))]
                raise NonFiniteObjectiveError(f"gradient is non-finite at coordinate {bad}")
        else:
            grad = numeric_grad(counted, pv)
        if not trace:
            trace.append(value)
        last[0] = (value, float(np.linalg.norm(grad)))
        return -value, -grad

    def accept(intermediate_result):
        x = intermediate_result.x
        value, grad_norm = last[0]
        step = float(np.abs(x - accepted[-1]).max())
        records.append((len(records) + 1, value, step, grad_norm))
        trace.append(value)
        accepted.append(x.copy())

    try:
        result = minimize(
            negated,
            x0.raw,
            jac=True,
            method="L-BFGS-B",
            callback=accept,
            options={"maxiter": max_iters, "ftol": tol},
        )
        converged, message = bool(result.success), str(result.message)
    except _NonFiniteProbe as stop:
        converged, message = False, str(stop)
    return OptimizeResult(
        x=x0.with_raw(accepted[-1]),
        objective=trace[-1],
        trace=np.asarray(trace),
        iterations=len(records),
        converged=converged,
        message=message,
        records=tuple(records),
        evaluations=counts["objective"],
        gradient_evaluations=counts["gradient"],
    )


def svgp_parameterization(
    state,
    optimize_hypers: bool = True,
    optimize_features: bool = False,
):
    """Expose a variational state as a flat parameter vector.

    Returns ``(x0, rebuild)`` where ``rebuild`` maps any parameter vector
    with the same layout to a :class:`~sparsekl.svgp.WhitenedState`.  q is
    exposed whitened (an ``SVGPState`` is whitened once, here): ``alpha``,
    the diagonal of ``half`` behind a softplus and its strict lower
    triangle.  Scale parameters live behind a log, everything else is
    unconstrained.  ``rebuild`` raises :class:`NonFiniteObjectiveError`
    when such a transform underflows to 0 or overflows to inf (a far
    line-search probe on an objective that is unbounded above, such as a
    single data point).
    """
    state = state.whiten()
    M = len(state.features)
    d = state.kernel.input_dim
    lower = _triangle(M)[0]
    blocks = [ParamBlock("alpha", M), ParamBlock("half_diag", M, "softplus")]
    values = {"alpha": state.alpha, "half_diag": state.half.diagonal()}
    if M > 1:
        blocks.append(ParamBlock("half_lower", M * (M - 1) // 2))
        values["half_lower"] = state.half[lower]
    if optimize_hypers:
        blocks.append(ParamBlock("kernel_variance", 1, "log"))
        blocks.append(ParamBlock("kernel_lengthscales", d, "log"))
        blocks.append(ParamBlock("kernel_mean", 1))
        values["kernel_variance"] = np.array([state.kernel.variance])
        values["kernel_lengthscales"] = state.kernel.lengthscales
        values["kernel_mean"] = np.array([state.kernel.mean_const])
        if isinstance(state.likelihood, GaussianNoise):
            blocks.append(ParamBlock("noise_var", 1, "log"))
            values["noise_var"] = np.array([state.likelihood.noise_var])
    if optimize_features:
        # a point is a window of width 0: both kinds move their centres,
        # and windows their (log) widths too
        kinds = {type(g) for g in state.features}
        if kinds not in ({PointFeature}, {GaussianWindowFeature}):
            raise ValueError(
                "feature optimization needs a homogeneous feature type, got "
                f"{sorted(k.__name__ for k in kinds)}"
            )
        windows = kinds == {GaussianWindowFeature}
        centers, widths = _stack(state.features, state.kernel)
        blocks.append(ParamBlock("feature_centers", M * d))
        values["feature_centers"] = centers.ravel()
        if windows:
            blocks.append(ParamBlock("feature_widths", M * d, "log"))
            values["feature_widths"] = widths.ravel()
    layout = ParamLayout(tuple(blocks))
    x0 = from_constrained(layout, values)

    def rebuild(pv: ParamVector) -> WhitenedState:
        vals = pv.constrained()
        for b in layout.blocks:
            v = vals[b.name]
            if b.transform != "identity" and not ((v > 0.0) & (v < np.inf)).all():
                raise NonFiniteObjectiveError(
                    f"parameter {b.name} is {v.tolist()}: its {b.transform} transform "
                    f"leaves (0, inf) at raw {pv.unpack()[b.name].tolist()}"
                )
        half = np.diag(vals["half_diag"])
        if M > 1:
            half[lower] = vals["half_lower"]
        kernel, likelihood = state.kernel, state.likelihood
        if optimize_hypers:
            kernel = Kernel(
                float(vals["kernel_variance"][0]),
                vals["kernel_lengthscales"],
                float(vals["kernel_mean"][0]),
            )
            if isinstance(state.likelihood, GaussianNoise):
                likelihood = GaussianNoise(float(vals["noise_var"][0]))
        features = state.features
        if optimize_features:
            centers = vals["feature_centers"].reshape(M, d)
            if windows:
                widths = vals["feature_widths"].reshape(M, d)
                features = tuple(
                    GaussianWindowFeature(c, w) for c, w in zip(centers, widths)
                )
            else:
                features = tuple(PointFeature(c) for c in centers)
        return WhitenedState(features, vals["alpha"], half, kernel, likelihood)

    return x0, rebuild
