"""Squared-exponential kernel with per-dimension lengthscales and constant mean,
and the number and file rules that every JSON record shares."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gaussians import GaussianDist

__all__ = ["Kernel", "kernel_matrix", "prior_at", "as_points", "is_json_number", "write_json"]


@dataclass(frozen=True)
class Kernel:
    """Squared-exponential covariance plus a constant mean function.

        k(x, x') = variance * exp(-0.5 * sum_a ((x_a - x'_a) / lengthscales[a])^2)
        m(x) = mean_const

    ``lengthscales`` has one entry per input dimension.
    """

    variance: float
    lengthscales: np.ndarray
    mean_const: float = 0.0

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError(f"lengthscales must be a nonempty vector, got shape {ls.shape}")
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not (ls > 0).all():
            raise ValueError(f"lengthscales must be positive, got {ls.tolist()}")
        if not math.isfinite(self.variance) or not np.isfinite(ls).all():
            raise ValueError("kernel parameters must be finite")
        if not math.isfinite(self.mean_const):
            raise ValueError("mean_const must be finite")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "variance", float(self.variance))
        object.__setattr__(self, "mean_const", float(self.mean_const))

    @property
    def input_dim(self) -> int:
        return self.lengthscales.shape[0]


def as_points(X, dim=None):
    """Coerce input locations to a (n, d) float array.

    A 1-d array is treated as n points in one dimension.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"inputs must be a (n, d) array, got shape {X.shape}")
    if dim is not None and X.shape[1] != dim:
        raise ValueError(
            f"inputs have dimension {X.shape[1]}, expected {dim} (shape {X.shape})"
        )
    if not np.isfinite(X).all():
        raise ValueError("input locations must be finite")
    return X


def is_json_number(x, depth=0) -> bool:
    """Whether ``x`` is a JSON number, not a bool, or lists of them nested up to ``depth``
    deep: the rule for every number in a record.  NaN and inf pass, for the class built
    from the record to reject by name."""
    if isinstance(x, list):
        return depth > 0 and all(is_json_number(v, depth - 1) for v in x)
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def write_json(path, record):
    """The one JSON artifact format: 2-space indent, UTF-8, LF line ends, one final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def kernel_matrix(kernel: Kernel, X1, X2) -> np.ndarray:
    """Dense covariance matrix ``k(X1, X2)``.

    Raises on input dimension mismatch, reporting both shapes.
    """
    X1 = as_points(X1)
    X2 = as_points(X2)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError(
            f"input dimension mismatch: X1 has shape {X1.shape}, "
            f"X2 has shape {X2.shape}"
        )
    if X1.shape[1] != kernel.input_dim:
        raise ValueError(
            f"kernel expects dimension {kernel.input_dim}, inputs have "
            f"shape {X1.shape} and {X2.shape}"
        )
    scaled = (X1[:, None, :] - X2[None, :, :]) / kernel.lengthscales
    return kernel.variance * np.exp(-0.5 * np.sum(scaled * scaled, axis=2))


def prior_at(kernel: Kernel, X) -> GaussianDist:
    """Finite-dimensional prior of the process at the rows of ``X``."""
    X = as_points(X, kernel.input_dim)
    mean = np.full(X.shape[0], kernel.mean_const)
    return GaussianDist(mean, kernel_matrix(kernel, X, X))
