"""Window-feature covariances checked against direct numerical integration."""

import math

import numpy as np
import pytest

from sparsekl.interdomain import (
    GaussianWindowFeature,
    _adaptive_gl,
    _se_cov_vjp,
    _stack,
    PointFeature,
    assemble_Kuf,
    assemble_Kuu,
    assemble_vjp,
    feature_feature_cov,
    feature_feature_cov_quadrature,
    feature_from_dict,
    feature_point_cov,
    feature_point_cov_quadrature,
    feature_to_dict,
)
from sparsekl.kernels import Kernel, kernel_matrix
from sparsekl.svgp import SVGPState


def test_point_feature_is_kernel_evaluation():
    k = Kernel(variance=1.4, lengthscales=[0.8, 1.1])
    f = PointFeature([0.3, -0.2])
    X = np.array([[1.0, 0.5], [-0.4, 2.0]])
    np.testing.assert_array_equal(
        feature_point_cov(f, k, X), kernel_matrix(k, [[0.3, -0.2]], X)[0]
    )


def test_window_point_closed_form_1d():
    # unit variance, lengthscale 1, width 1: shrinkage sqrt(1/2) and
    # combined squared width 2
    k = Kernel(variance=1.0, lengthscales=1.0)
    f = GaussianWindowFeature(center=[0.0], widths=[1.0])
    c = feature_point_cov(f, k, np.array([[1.0]]))[0]
    expected = math.sqrt(0.5) * math.exp(-0.25)
    assert c == pytest.approx(expected, rel=1e-14)


def test_window_window_zero_separation():
    # coincident windows: variance * sqrt(l^2 / (l^2 + 2 w^2)) = 1/sqrt(3)
    k = Kernel(variance=1.0, lengthscales=1.0)
    f = GaussianWindowFeature(center=[0.5], widths=[1.0])
    v = feature_feature_cov(f, f, k)
    assert v == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)


def test_window_point_matches_quadrature():
    rng = np.random.default_rng(0)
    for trial in range(12):
        d = 1 if trial % 3 else 2
        k = Kernel(
            variance=float(rng.uniform(0.3, 2.0)),
            lengthscales=rng.uniform(0.4, 1.6, size=d),
        )
        f = GaussianWindowFeature(
            center=rng.uniform(-1, 1, size=d), widths=rng.uniform(0.2, 1.0, size=d)
        )
        X = rng.uniform(-2, 2, size=(3, d))
        closed = feature_point_cov(f, k, X)
        quad = [feature_point_cov_quadrature(f, k, x) for x in X]
        np.testing.assert_allclose(closed, quad, atol=1e-9)


def test_window_window_matches_quadrature():
    rng = np.random.default_rng(1)
    for trial in range(6):
        d = 1 if trial % 2 else 2
        k = Kernel(
            variance=float(rng.uniform(0.3, 2.0)),
            lengthscales=rng.uniform(0.4, 1.6, size=d),
        )
        f1 = GaussianWindowFeature(
            center=rng.uniform(-1, 1, size=d), widths=rng.uniform(0.2, 0.8, size=d)
        )
        f2 = GaussianWindowFeature(
            center=rng.uniform(-1, 1, size=d), widths=rng.uniform(0.2, 0.8, size=d)
        )
        closed = feature_feature_cov(f1, f2, k)
        quad = feature_feature_cov_quadrature(f1, f2, k)
        assert closed == pytest.approx(quad, abs=1e-7)


def test_quadrature_rejects_a_zero_width():
    k = Kernel(variance=1.0, lengthscales=[1.0, 1.0])
    window = GaussianWindowFeature(center=[0.0, 0.1], widths=[0.5, 0.5])
    for f in (PointFeature([0.0, 0.1]), GaussianWindowFeature([0.0, 0.1], [0.5, 0.0])):
        with pytest.raises(ValueError, match="positive widths"):
            feature_point_cov_quadrature(f, k, [0.3, 0.3])
        with pytest.raises(ValueError, match="positive widths"):
            feature_feature_cov_quadrature(f, window, k)
        with pytest.raises(ValueError, match="positive widths"):
            feature_feature_cov_quadrature(window, f, k)


def _normal_mass(lo, hi, centre, width):
    scale = width * math.sqrt(2.0)
    return 0.5 * (math.erf((hi - centre) / scale) - math.erf((lo - centre) / scale))


def test_adaptive_gl_integrates_every_component_of_a_vector_integrand():
    # k scaled Gaussian densities, from narrow to wide, some cut off by
    # the interval; each component must meet the tolerance on its own
    centres = np.array([-1.0, 0.0, 0.4, 0.9, 2.5])
    widths = np.array([0.02, 0.3, 1.0, 0.07, 2.0])
    amps = np.array([1.0, 2.5, 0.7, 3.0, 1.6])
    lo, hi, tol = -1.5, 1.0, 1e-9

    def densities(s):
        z = (s - centres[:, None]) / widths[:, None]
        return amps[:, None] * np.exp(-0.5 * z * z) / (widths[:, None] * math.sqrt(2 * math.pi))

    exact = [a * _normal_mass(lo, hi, c, w) for a, c, w in zip(amps, centres, widths)]
    out = _adaptive_gl(densities, lo, hi, tol)
    assert out.shape == (len(amps),)
    assert np.max(np.abs(out - exact)) <= tol
    for i in range(len(amps)):
        alone = _adaptive_gl(lambda s, i=i: densities(s)[i], lo, hi, tol)
        assert isinstance(alone, float)
        assert abs(alone - exact[i]) <= tol


def test_mixed_window_point_pair():
    k = Kernel(variance=1.0, lengthscales=1.0)
    w = GaussianWindowFeature(center=[0.2], widths=[0.5])
    p = PointFeature([1.0])
    both = feature_feature_cov(w, p, k)
    assert both == pytest.approx(feature_point_cov(w, k, np.array([[1.0]]))[0], rel=1e-14)
    assert feature_feature_cov(p, w, k) == pytest.approx(both, rel=1e-14)


def test_narrow_window_approaches_point():
    # width 1e-8 behaves like evaluation at the center
    rng = np.random.default_rng(2)
    k = Kernel(variance=1.3, lengthscales=[0.9])
    X = rng.uniform(-2, 2, size=(5, 1))
    w = GaussianWindowFeature(center=[0.4], widths=[1e-8])
    p = PointFeature([0.4])
    np.testing.assert_allclose(
        feature_point_cov(w, k, X), feature_point_cov(p, k, X), atol=1e-6
    )
    assert feature_feature_cov(w, w, k) == pytest.approx(
        kernel_matrix(k, [[0.4]], [[0.4]])[0, 0], abs=1e-6
    )


def test_wider_window_shrinks_variance():
    k = Kernel(variance=2.0, lengthscales=1.0)
    prev = np.inf
    for width in (0.1, 0.5, 1.0, 2.0):
        f = GaussianWindowFeature(center=[0.0], widths=[width])
        v = feature_feature_cov(f, f, k)
        assert 0 < v < prev
        prev = v


def test_exchange_symmetry():
    rng = np.random.default_rng(3)
    k = Kernel(variance=1.0, lengthscales=[1.0, 0.7])
    f1 = GaussianWindowFeature(center=rng.uniform(-1, 1, 2), widths=[0.3, 0.6])
    f2 = GaussianWindowFeature(center=rng.uniform(-1, 1, 2), widths=[0.5, 0.2])
    assert feature_feature_cov(f1, f2, k) == pytest.approx(
        feature_feature_cov(f2, f1, k), rel=1e-14
    )


@pytest.mark.parametrize(
    "lengthscales, feats",
    [
        (
            [0.8],
            (
                PointFeature([0.0]),
                GaussianWindowFeature(center=[0.5], widths=[0.4]),
                PointFeature([1.5]),
            ),
        ),
        (
            [0.8, 0.3],
            (
                GaussianWindowFeature(center=[0.1, 0.7], widths=[0.4, 0.05]),
                PointFeature([0.0, 0.2]),
                GaussianWindowFeature(center=[0.9, -0.3], widths=[0.2, 0.6]),
                PointFeature([1.5, 0.4]),
                GaussianWindowFeature(center=[0.1, 0.7], widths=[0.3, 0.1]),
            ),
        ),
    ],
    ids=["1d", "2d-mixed"],
)
def test_assembled_matrices(lengthscales, feats):
    rng = np.random.default_rng(4)
    k = Kernel(variance=1.1, lengthscales=lengthscales)
    X = rng.uniform(-1, 2, size=(6, len(lengthscales)))
    Kuu = assemble_Kuu(feats, k)
    Kuf = assemble_Kuf(feats, k, X)
    np.testing.assert_array_equal(Kuu, Kuu.T)
    assert np.linalg.eigvalsh(Kuu).min() >= -1e-10
    for i, f in enumerate(feats):
        np.testing.assert_allclose(Kuf[i], feature_point_cov(f, k, X), rtol=1e-13)
        for j, g in enumerate(feats):
            assert Kuu[i, j] == pytest.approx(feature_feature_cov(f, g, k), rel=1e-13)


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e2], ids=lambda s: f"scale{s:g}")
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d{d}")
def test_all_point_assembly_matches_kernel_matrix(d, scale):
    rng = np.random.default_rng(5)
    k = Kernel(variance=0.8, lengthscales=scale * np.array([1.2, 0.6, 0.9])[:d])
    Z = scale * rng.uniform(-1, 1, size=(4, d))
    feats = tuple(PointFeature(z) for z in Z)
    X = scale * rng.uniform(-1, 1, size=(7, d))
    np.testing.assert_array_equal(assemble_Kuu(feats, k), kernel_matrix(k, Z, Z))
    np.testing.assert_array_equal(assemble_Kuf(feats, k, X), kernel_matrix(k, Z, X))


def broadcast_vjp(features, kernel, X, Q_uu, Q_uf):
    """The oracle route of :func:`assemble_vjp`: both blocks pulled back through
    (M, n, d) broadcasts by :func:`_se_cov_vjp`, then summed."""
    C, W = _stack(features, kernel)
    ell = kernel.lengthscales
    W2 = W * W
    comb_uu = ell**2 + (W2[:, None, :] + W2[None, :, :])
    var_uu, ell_uu, dc_uu, dcomb_uu = _se_cov_vjp(
        kernel, C[:, None, :], C[None, :, :], comb_uu, Q_uu
    )
    comb_uf = (ell**2 + W2)[:, None, :]
    var_uf, ell_uf, dc_uf, dcomb_uf = _se_cov_vjp(
        kernel, C[:, None, :], X[None, :, :], comb_uf, Q_uf
    )
    d_w2 = dcomb_uu.sum(axis=1) + dcomb_uu.sum(axis=0) + dcomb_uf.sum(axis=1)
    d_comb = dcomb_uu.sum(axis=(0, 1)) + dcomb_uf.sum(axis=(0, 1))
    return {
        "kernel_variance": var_uu + var_uf,
        "kernel_lengthscales": ell_uu + ell_uf + 2.0 * ell * d_comb,
        "feature_centers": dc_uu.sum(axis=1) - dc_uu.sum(axis=0) + dc_uf.sum(axis=1),
        "feature_widths": 2.0 * W * d_w2,
    }


@pytest.mark.parametrize("M, n", [(3, 7), (8, 150), (16, 500), (20, 4000)])
@pytest.mark.parametrize("window", [False, True], ids=["point", "window"])
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d{d}")
def test_assemble_vjp_matches_the_broadcast_pullback(d, window, M, n):
    rng = np.random.default_rng(100 * d + M)
    k = Kernel(variance=1.3, lengthscales=rng.uniform(0.1, 1.0, size=d), mean_const=0.2)
    C = rng.uniform(0.0, 1.0, size=(M, d))
    feats = tuple(
        GaussianWindowFeature(c, rng.uniform(0.02, 0.3, size=d)) if window else PointFeature(c)
        for c in C
    )
    X = rng.uniform(0.0, 1.0, size=(n, d))
    Q_uu = rng.standard_normal((M, M)) * assemble_Kuu(feats, k)
    Q_uf = rng.standard_normal((M, n)) * assemble_Kuf(feats, k, X)
    got = assemble_vjp(feats, k, X, Q_uu, Q_uf)
    expected = broadcast_vjp(feats, k, X, Q_uu, Q_uf)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        value, other = np.asarray(value), np.asarray(got[key])
        assert other.shape == value.shape, key
        assert np.abs(other - value).max() <= 1e-12 * np.abs(value).max(), key
    if not window:
        assert not got["feature_widths"].any()


def test_prior_mean_is_constant():
    # point evaluations and density windows map the constant mean to itself
    k = Kernel(variance=1.0, lengthscales=1.0, mean_const=3.25)
    feats = (PointFeature([0.0]), GaussianWindowFeature(center=[1.0], widths=[0.5]))
    state = SVGPState(feats, np.zeros(2), np.eye(2), k)
    np.testing.assert_array_equal(state.prior_dist().mean, [3.25, 3.25])


def test_serialization_roundtrip():
    feats = [
        PointFeature([0.25, -1.5]),
        GaussianWindowFeature(center=[0.1], widths=[0.75]),
    ]
    for f in feats:
        back = feature_from_dict(feature_to_dict(f))
        assert type(back) is type(f)
        np.testing.assert_array_equal(back.center, f.center)
        np.testing.assert_array_equal(back.widths, f.widths)


def test_point_feature_is_the_zero_width_window():
    f = PointFeature([0.25, -1.5])
    assert type(f) is GaussianWindowFeature
    np.testing.assert_array_equal(f.widths, [0.0, 0.0])
    assert f.location is f.center
    # a scalar width applies to every dimension
    np.testing.assert_array_equal(GaussianWindowFeature([0.1, 0.2], 0.5).widths, [0.5, 0.5])


def test_zero_width_window_writes_a_point_record():
    f = GaussianWindowFeature(center=[0.25, -1.5], widths=[0.0, 0.0])
    record = feature_to_dict(f)
    assert record == {"type": "point", "loc": [0.25, -1.5]}
    back = feature_from_dict(record)
    np.testing.assert_array_equal(back.center, f.center)
    np.testing.assert_array_equal(back.widths, f.widths)


def test_window_record_with_one_zero_width_reads_back():
    record = {"type": "gwindow", "center": [0.1, 0.2], "widths": [0.0, 0.5]}
    back = feature_from_dict(record)
    np.testing.assert_array_equal(back.center, [0.1, 0.2])
    np.testing.assert_array_equal(back.widths, [0.0, 0.5])
    assert feature_to_dict(back) == record


def test_serialization_rejects_bad_records():
    with pytest.raises(ValueError, match="unknown feature type"):
        feature_from_dict({"type": "mystery", "loc": [0.0]})
    with pytest.raises(ValueError, match="malformed"):
        feature_from_dict({"type": "point", "loc": [0.0], "extra": 1})
    with pytest.raises(ValueError, match="malformed"):
        feature_from_dict({"type": "gwindow", "center": [0.0]})


def test_record_without_type_is_rejected():
    with pytest.raises(ValueError, match="must be a dict with a 'type' key"):
        feature_from_dict({"loc": [0.0]})


def test_feature_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        GaussianWindowFeature(center=[0.0], widths=[-0.1])
    with pytest.raises(ValueError, match="finite"):
        GaussianWindowFeature(center=[0.0], widths=[np.inf])
    with pytest.raises(ValueError, match="equal length"):
        GaussianWindowFeature(center=[0.0, 1.0], widths=[0.5])
    with pytest.raises(ValueError, match="finite"):
        PointFeature([np.nan])


def test_dimension_mismatch_with_kernel():
    k = Kernel(variance=1.0, lengthscales=[1.0, 1.0])
    f = PointFeature([0.0])
    with pytest.raises(ValueError):
        feature_point_cov(f, k, np.zeros((2, 2)))
