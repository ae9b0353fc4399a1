"""Squared-exponential kernel checks: frozen values, symmetry, PSD."""

import re

import numpy as np
import pytest

from sparsekl.gaussians import GaussianDist
from sparsekl.kernels import Kernel, as_points, kernel_matrix, prior_at

# variance 2, lengthscale 1, unit separation: 2 * exp(-1/2)
SE_UNIT_SEP = 1.2130613194252668


def test_frozen_unit_separation_value():
    k = Kernel(variance=2.0, lengthscales=1.0)
    K = kernel_matrix(k, [0.0], [1.0])
    assert K[0, 0] == pytest.approx(SE_UNIT_SEP, abs=1e-15)


def test_diagonal_equals_variance():
    rng = np.random.default_rng(0)
    k = Kernel(variance=1.7, lengthscales=[0.5, 2.0])
    X = rng.standard_normal((10, 2))
    K = kernel_matrix(k, X, X)
    np.testing.assert_allclose(np.diag(K), 1.7, rtol=1e-14)


def test_exact_exchange_symmetry():
    # K(X1, X2) must equal K(X2, X1)^T bit for bit
    rng = np.random.default_rng(1)
    k = Kernel(variance=0.9, lengthscales=[1.3, 0.4, 2.2])
    X1 = rng.standard_normal((7, 3))
    X2 = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(kernel_matrix(k, X1, X2), kernel_matrix(k, X2, X1).T)


def test_anisotropic_lengthscales():
    # separations (1, 2) with lengthscales (1, 2) give exp(-1) weight
    k = Kernel(variance=3.0, lengthscales=[1.0, 2.0])
    K = kernel_matrix(k, [[0.0, 0.0]], [[1.0, 2.0]])
    assert K[0, 0] == pytest.approx(3.0 * np.exp(-1.0), rel=1e-14)


def test_positive_semidefinite():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        k = Kernel(
            variance=float(rng.uniform(0.2, 3.0)),
            lengthscales=rng.uniform(0.3, 2.0, size=dim),
        )
        X = rng.standard_normal((12, dim))
        K = kernel_matrix(k, X, X)
        assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_distant_points_decorrelate():
    k = Kernel(variance=1.0, lengthscales=0.5)
    K = kernel_matrix(k, [0.0], [100.0])
    assert 0.0 <= K[0, 0] < 1e-300 or K[0, 0] == 0.0


def test_as_points_promotes_vectors():
    X = as_points([1.0, 2.0, 3.0])
    assert X.shape == (3, 1)
    X2 = as_points(np.ones((4, 2)), dim=2)
    assert X2.shape == (4, 2)
    with pytest.raises(ValueError, match="expected"):
        as_points(np.ones((4, 2)), dim=3)
    with pytest.raises(ValueError, match="finite"):
        as_points([np.inf])


def test_dimension_mismatch_reports_both_shapes():
    k = Kernel(variance=1.0, lengthscales=[1.0, 1.0])
    with pytest.raises(ValueError) as err:
        kernel_matrix(k, np.ones((3, 2)), np.ones((4, 3)))
    msg = str(err.value)
    assert "(3, 2)" in msg and "(4, 3)" in msg


def test_kernel_validation():
    with pytest.raises(ValueError, match="variance"):
        Kernel(variance=0.0, lengthscales=1.0)
    with pytest.raises(ValueError, match="lengthscale"):
        Kernel(variance=1.0, lengthscales=[1.0, -0.5])
    with pytest.raises(ValueError, match="finite"):
        Kernel(variance=1.0, lengthscales=1.0, mean_const=np.nan)


def test_prior_at_constant_mean():
    k = Kernel(variance=1.0, lengthscales=1.0, mean_const=-2.5)
    p = prior_at(k, np.linspace(0.0, 5.0, 4))
    assert isinstance(p, GaussianDist)
    np.testing.assert_array_equal(p.mean, np.full(4, -2.5))
    np.testing.assert_allclose(np.diag(p.cov), 1.0, rtol=1e-14)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: Kernel(1.0, [[0.5, 0.5]]), "lengthscales must be a nonempty vector"),
        (lambda: Kernel(np.inf, [0.5]), "kernel parameters must be finite"),
        (lambda: as_points(np.zeros((2, 2, 2))), "inputs must be a (n, d) array"),
        (
            lambda: kernel_matrix(Kernel(1.0, [0.5]), np.zeros((2, 2)), np.zeros((3, 2))),
            "kernel expects dimension 1",
        ),
    ],
    ids=["matrix-lengthscales", "infinite-variance", "three-axis-inputs", "kernel-dimension"],
)
def test_caller_input_is_rejected(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()
