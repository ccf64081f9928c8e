import numpy as np
import pytest
from scipy.stats import ks_2samp

from locmix import (
    Degenerate,
    GeneralizedAsymmetricLaplace,
    RngStream,
    TruncatedNormalAbs,
    nu_mean,
    sample_chi_squared,
    sample_noncentral_f,
    sample_nu,
)
from locmix.distributions import nu_cov, sample_noncentral_chi_squared
from locmix.errors import InvalidInputError, NotPositiveDefiniteError


def test_stream_determinism():
    a = RngStream(7, 3).generator.standard_normal(5)
    b = RngStream(7, 3).generator.standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(7, 3).generator.standard_normal(5)
    b = RngStream(7, 4).generator.standard_normal(5)
    c = RngStream(8, 3).generator.standard_normal(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_std_normal_mean_small():
    draws = RngStream(11, 0).generator.standard_normal(100_000)
    assert abs(draws.mean()) < 0.02


def test_chi_squared_moments():
    draws = sample_chi_squared(100, RngStream(12, 0), 100_000)
    assert abs(draws.mean() - 100) / 100 < 0.01
    assert abs(draws.var(ddof=1) - 200) / 200 < 0.05


def test_chi_squared_support_and_errors():
    rng = RngStream(13, 0)
    assert np.all(sample_chi_squared(1, rng, 100) > 0)
    with pytest.raises(InvalidInputError):
        sample_chi_squared(0, rng, 1)


def test_noncentral_chi_squared_degenerate_and_moments():
    with pytest.raises(InvalidInputError, match="degrees of freedom must be >= 1"):
        sample_noncentral_chi_squared(0, 8.0, RngStream(14, 0), 1)
    draws = sample_noncentral_chi_squared(50, 25.0, RngStream(14, 1), 100_000)
    assert abs(draws.mean() - 75) / 75 < 0.01


def test_noncentral_chi_squared_lambda_zero_reduces_to_central():
    nc = sample_noncentral_chi_squared(7, 0.0, RngStream(15, 0), 10_000)
    central = sample_chi_squared(7, RngStream(15, 1), 10_000)
    assert ks_2samp(nc, central).statistic <= 0.02


def test_noncentral_f_moments_and_support():
    draws = sample_noncentral_f(10, 10, 0.0, RngStream(17, 0), 100_000)
    assert np.all(draws > 0)
    assert abs(draws.mean() - 1.25) / 1.25 < 0.03

    target = 30 * (5 + 20) / (5 * 28)
    draws = sample_noncentral_f(5, 30, 20.0, RngStream(17, 1), 100_000)
    assert abs(draws.mean() - target) / target < 0.03


def test_noncentral_f_rejects_zero_dof():
    with pytest.raises(InvalidInputError):
        sample_noncentral_f(0, 10, 1.0, RngStream(18, 0), 1)
    with pytest.raises(InvalidInputError):
        sample_noncentral_f(10, 0, 1.0, RngStream(18, 0), 1)


def test_noncentral_blocks_take_one_noncentrality_per_draw():
    lam = np.array([0.0, 8.0, 0.0, 3.0])
    # A block draws one Poisson variate per draw at its own lam, then the
    # chi-squared variates.
    draws = sample_noncentral_chi_squared(1, lam, RngStream(24, 0), size=4)
    gen = RngStream(24, 0).generator
    expected = gen.chisquare(1 + 2 * gen.poisson(lam / 2.0))
    np.testing.assert_array_equal(draws, expected)
    # An F block draws its Poisson variates, then numerators, then denominators.
    rng = RngStream(24, 1)
    f_block = sample_noncentral_f(2, 5, lam, rng, size=4)
    gen = RngStream(24, 1).generator
    dof = 2 + 2 * gen.poisson(lam / 2.0)
    expected = (gen.chisquare(dof) / 2) / (gen.chisquare(5, 4) / 5)
    np.testing.assert_array_equal(f_block, expected)


def test_truncated_normal_abs_support_and_mean():
    dist = TruncatedNormalAbs(np.eye(3))
    draws = sample_nu(dist, RngStream(19, 0), 100_000)
    assert np.all(draws >= 0)
    target = np.sqrt(2 / np.pi)
    assert np.max(np.abs(draws.mean(axis=0) - target)) / target < 0.02


def test_gal_mean():
    dist = GeneralizedAsymmetricLaplace(np.ones(3), np.eye(3), 10.0)
    draws = sample_nu(dist, RngStream(20, 0), 100_000)
    assert np.max(np.abs(draws.mean(axis=0) - 10.0)) / 10.0 < 0.02


def test_degenerate_returns_value():
    dist = Degenerate(np.array([1.5, -2.0]))
    draws = sample_nu(dist, RngStream(21, 0), 3)
    np.testing.assert_array_equal(draws, [[1.5, -2.0]] * 3)


def test_nu_distribution_validation():
    with pytest.raises(NotPositiveDefiniteError):
        TruncatedNormalAbs(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        GeneralizedAsymmetricLaplace(np.ones(2), np.eye(2), 0.0)
    with pytest.raises(InvalidInputError):
        GeneralizedAsymmetricLaplace(np.ones(3), np.eye(2), 1.0)


def test_nu_moments_against_monte_carlo():
    # Correlated half-normal covariance uses the arcsine closed form.
    omega = np.array([[1.0, 0.6], [0.6, 2.0]])
    dist = TruncatedNormalAbs(omega)
    draws = sample_nu(dist, RngStream(22, 0), 200_000)
    np.testing.assert_allclose(draws.mean(axis=0), nu_mean(dist), rtol=0.02)
    np.testing.assert_allclose(
        np.cov(draws.T), nu_cov(dist), rtol=0.05, atol=0.01
    )

    gal = GeneralizedAsymmetricLaplace(np.array([1.0, 0.5]), omega, 4.0)
    draws = sample_nu(gal, RngStream(22, 1), 200_000)
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
