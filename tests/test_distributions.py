import numpy as np
import pytest
from scipy.stats import ks_2samp

from locmix import (
    Degenerate,
    GeneralizedAsymmetricLaplace,
    RngStream,
    TruncatedNormalAbs,
    nu_cov,
    nu_mean,
    sample_chi_squared,
    sample_noncentral_chi_squared,
    sample_noncentral_f,
    sample_nu,
    sample_std_normal_vec,
)
from locmix.errors import InvalidDimensionError, InvalidInputError, NotPositiveDefiniteError


def test_std_normal_vec_shape_and_finiteness():
    v = sample_std_normal_vec(3, RngStream(1, 0))
    assert v.shape == (3,)
    assert np.all(np.isfinite(v))


def test_std_normal_vec_rejects_zero_dim():
    with pytest.raises(InvalidDimensionError):
        sample_std_normal_vec(0, RngStream(1, 0))


def test_stream_determinism():
    a = sample_std_normal_vec(5, RngStream(7, 3))
    b = sample_std_normal_vec(5, RngStream(7, 3))
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = sample_std_normal_vec(5, RngStream(7, 3))
    b = sample_std_normal_vec(5, RngStream(7, 4))
    c = sample_std_normal_vec(5, RngStream(8, 3))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_std_normal_mean_small():
    rng = RngStream(11, 0)
    draws = np.array([sample_std_normal_vec(1, rng)[0] for _ in range(100_000)])
    assert abs(draws.mean()) < 0.02


def test_chi_squared_moments():
    rng = RngStream(12, 0)
    draws = np.array([sample_chi_squared(100, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 100) / 100 < 0.01
    assert abs(draws.var(ddof=1) - 200) / 200 < 0.05


def test_chi_squared_support_and_errors():
    rng = RngStream(13, 0)
    assert all(sample_chi_squared(1, rng) > 0 for _ in range(100))
    with pytest.raises(InvalidDimensionError):
        sample_chi_squared(0, rng)


def test_noncentral_chi_squared_degenerate_and_moments():
    assert sample_noncentral_chi_squared(0, 0.0, RngStream(14, 0)) == 0.0
    rng = RngStream(14, 1)
    draws = np.array(
        [sample_noncentral_chi_squared(50, 25.0, rng) for _ in range(100_000)]
    )
    assert abs(draws.mean() - 75) / 75 < 0.01


def test_noncentral_chi_squared_lambda_zero_reduces_to_central():
    rng_a, rng_b = RngStream(15, 0), RngStream(15, 1)
    nc = np.array([sample_noncentral_chi_squared(7, 0.0, rng_a) for _ in range(10_000)])
    central = np.array([sample_chi_squared(7, rng_b) for _ in range(10_000)])
    assert ks_2samp(nc, central).statistic <= 0.02


def test_noncentral_chi_squared_zero_dof_with_noncentrality():
    # The Poisson-mixture construction supports k = 0 with lambda > 0.
    rng = RngStream(16, 0)
    draws = np.array(
        [sample_noncentral_chi_squared(0, 8.0, rng) for _ in range(50_000)]
    )
    assert np.all(draws >= 0)
    assert abs(draws.mean() - 8.0) / 8.0 < 0.02


def test_noncentral_f_moments_and_support():
    rng = RngStream(17, 0)
    draws = np.array([sample_noncentral_f(10, 10, 0.0, rng) for _ in range(100_000)])
    assert np.all(draws > 0)
    assert abs(draws.mean() - 1.25) / 1.25 < 0.03

    rng = RngStream(17, 1)
    target = 30 * (5 + 20) / (5 * 28)
    draws = np.array([sample_noncentral_f(5, 30, 20.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - target) / target < 0.03


def test_noncentral_f_rejects_zero_dof():
    with pytest.raises(InvalidDimensionError):
        sample_noncentral_f(0, 10, 1.0, RngStream(18, 0))
    with pytest.raises(InvalidDimensionError):
        sample_noncentral_f(10, 0, 1.0, RngStream(18, 0))


def test_truncated_normal_abs_support_and_mean():
    dist = TruncatedNormalAbs(np.eye(3))
    rng = RngStream(19, 0)
    draws = np.array([sample_nu(dist, rng) for _ in range(100_000)])
    assert np.all(draws >= 0)
    target = np.sqrt(2 / np.pi)
    assert np.max(np.abs(draws.mean(axis=0) - target)) / target < 0.02


def test_gal_mean():
    dist = GeneralizedAsymmetricLaplace(np.ones(3), np.eye(3), 10.0)
    rng = RngStream(20, 0)
    draws = np.array([sample_nu(dist, rng) for _ in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0) - 10.0)) / 10.0 < 0.02


def test_degenerate_returns_value():
    dist = Degenerate(np.array([1.5, -2.0]))
    draw = sample_nu(dist, RngStream(21, 0))
    np.testing.assert_array_equal(draw, [1.5, -2.0])


def test_nu_distribution_validation():
    with pytest.raises(NotPositiveDefiniteError):
        TruncatedNormalAbs(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        GeneralizedAsymmetricLaplace(np.ones(2), np.eye(2), 0.0)
    with pytest.raises(InvalidDimensionError):
        GeneralizedAsymmetricLaplace(np.ones(3), np.eye(2), 1.0)


def test_nu_moments_against_monte_carlo():
    # Correlated half-normal covariance uses the arcsine closed form.
    omega = np.array([[1.0, 0.6], [0.6, 2.0]])
    dist = TruncatedNormalAbs(omega)
    rng = RngStream(22, 0)
    draws = np.array([sample_nu(dist, rng) for _ in range(200_000)])
    np.testing.assert_allclose(draws.mean(axis=0), nu_mean(dist), rtol=0.02)
    np.testing.assert_allclose(
        np.cov(draws.T), nu_cov(dist), rtol=0.05, atol=0.01
    )

    gal = GeneralizedAsymmetricLaplace(np.array([1.0, 0.5]), omega, 4.0)
    rng = RngStream(22, 1)
    draws = np.array([sample_nu(gal, rng) for _ in range(200_000)])
    np.testing.assert_allclose(draws.mean(axis=0), nu_mean(gal), rtol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), nu_cov(gal), rtol=0.05)

    deg = Degenerate(np.array([2.0]))
    np.testing.assert_array_equal(nu_mean(deg), [2.0])
    np.testing.assert_array_equal(nu_cov(deg), [[0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mixing_laws_reject_non_finite(bad):
    with pytest.raises(InvalidInputError):
        TruncatedNormalAbs(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(InvalidInputError):
        GeneralizedAsymmetricLaplace(np.array([1.0, bad]), np.eye(2), 10.0)
    with pytest.raises(InvalidInputError):
        GeneralizedAsymmetricLaplace(np.ones(2), np.array([[bad, 0.0], [0.0, 1.0]]), 10.0)
    with pytest.raises(InvalidInputError):
        GeneralizedAsymmetricLaplace(np.ones(2), np.eye(2), bad)
    with pytest.raises(InvalidInputError):
        Degenerate(np.array([0.0, bad]))
