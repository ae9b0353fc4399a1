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
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .interdomain import GaussianWindowFeature, _stack
from .kernels import Kernel
from .svgp import GaussianNoise, WhitenedState, _triangle

__all__ = [
    "ParamBlock",
    "ParamVector",
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


class ParamBlock(NamedTuple):
    name: str
    size: int
    transform: str = "identity"


@lru_cache(maxsize=16)
def _layout(blocks) -> tuple:
    """``(each block's slice by name, total size)`` of blocks laid end to end,
    checked once per tuple of blocks: names unique, transform tags known."""
    slices, start = {}, 0
    for b in blocks:
        if b.transform not in TRANSFORMS:
            raise ValueError(
                f"block {b.name!r} has unknown transform {b.transform!r}; "
                f"expected one of {tuple(TRANSFORMS)}"
            )
        if b.name in slices:
            raise ValueError(f"duplicate block name {b.name!r} in {[b.name for b in blocks]}")
        slices[b.name] = slice(start, start + b.size)
        start += b.size
    return MappingProxyType(slices), start


@dataclass(frozen=True)
class ParamVector:
    """A flat raw vector together with its named blocks, laid end to end; a block may be empty."""

    blocks: tuple
    raw: np.ndarray

    def __post_init__(self):
        blocks = tuple(self.blocks)
        size = _layout(blocks)[1]
        raw = np.atleast_1d(np.asarray(self.raw, dtype=float))
        if raw.shape != (size,):
            raise ValueError(f"raw vector has shape {raw.shape}, its blocks expect ({size},)")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "raw", raw)

    def slices(self):
        """Each block's slice of ``raw``, by name (read-only)."""
        return _layout(self.blocks)[0]

    def coordinate_names(self) -> list:
        return [f"{b.name}[{i}]" for b in self.blocks for i in range(b.size)]

    def unpack(self) -> dict:
        """Raw blocks by name; a pure slicing of the flat vector."""
        return {name: self.raw[sl].copy() for name, sl in self.slices().items()}

    def constrained(self) -> dict:
        """Model-space values by name, with each block's transform applied."""
        return {
            b.name: TRANSFORMS[b.transform][0](self.raw[sl])
            for b, sl in zip(self.blocks, self.slices().values())
        }

    def with_raw(self, raw) -> "ParamVector":
        return ParamVector(self.blocks, raw)


def from_constrained(blocks, values: dict) -> ParamVector:
    """The raw vector of model-space values by block name; rejects infeasible ones."""
    raw = []
    for b in blocks:
        value = np.asarray(values[b.name], dtype=float)
        if b.transform != "identity" and np.any(value <= 0):
            raise ValueError(f"{b.transform}-constrained values must be positive")
        raw.append(np.ravel(TRANSFORMS[b.transform][2](value)))
    return ParamVector(blocks, np.concatenate(raw))


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
    names = x.coordinate_names()
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
    out = np.empty(x.raw.shape[0])
    for b, sl in zip(x.blocks, x.slices().values()):
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
                bad = x0.coordinate_names()[int(np.argmin(np.isfinite(grad)))]
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
    with the same blocks to a :class:`~sparsekl.svgp.WhitenedState`.  q is
    exposed whitened (an ``SVGPState`` is whitened once, here): ``alpha``,
    the diagonal of ``half`` behind a softplus and its strict lower
    triangle.  Scale parameters live behind a log, everything else is
    unconstrained.  ``rebuild`` raises :class:`NonFiniteObjectiveError`
    when such a transform underflows to 0 or overflows to inf (a far
    line-search probe on an objective that is unbounded above, such as a
    single data point).

    With ``optimize_features`` the feature centres move, and the widths behind
    a log when all are positive; all-zero widths (points) stay 0, and a mix of
    zero and positive widths raises ``ValueError``.
    """
    state = state.whiten()
    M = len(state.features)
    d = state.kernel.input_dim
    lower = _triangle(M)[0]
    params = [
        (ParamBlock("alpha", M), state.alpha),
        (ParamBlock("half_diag", M, "softplus"), state.half.diagonal()),
        (ParamBlock("half_lower", M * (M - 1) // 2), state.half[lower]),
    ]
    if optimize_hypers:
        params += [
            (ParamBlock("kernel_variance", 1, "log"), [state.kernel.variance]),
            (ParamBlock("kernel_lengthscales", d, "log"), state.kernel.lengthscales),
            (ParamBlock("kernel_mean", 1), [state.kernel.mean_const]),
        ]
        if isinstance(state.likelihood, GaussianNoise):
            params.append((ParamBlock("noise_var", 1, "log"), [state.likelihood.noise_var]))
    if optimize_features:
        centers, widths = _stack(state.features, state.kernel)
        windows = bool((widths > 0).all())
        if widths.any() and not windows:
            raise ValueError(
                "feature optimization needs all widths positive or all zero, got "
                f"{widths.tolist()}"
            )
        params.append((ParamBlock("feature_centers", M * d), centers))
        if windows:
            params.append((ParamBlock("feature_widths", M * d, "log"), widths))
    x0 = from_constrained([b for b, _ in params], {b.name: v for b, v in params})

    def rebuild(pv: ParamVector) -> WhitenedState:
        vals = pv.constrained()
        for b in pv.blocks:
            v = vals[b.name]
            if b.transform != "identity" and not ((v > 0.0) & (v < np.inf)).all():
                raise NonFiniteObjectiveError(
                    f"parameter {b.name} is {v.tolist()}: its {b.transform} transform "
                    f"leaves (0, inf) at raw {pv.unpack()[b.name].tolist()}"
                )
        half = np.diag(vals["half_diag"])
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
            widths = vals["feature_widths"].reshape(M, d) if windows else np.zeros((M, d))
            features = tuple(map(GaussianWindowFeature, centers, widths))
        return WhitenedState(features, vals["alpha"], half, kernel, likelihood)

    return x0, rebuild
