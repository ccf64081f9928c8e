import numpy as np
import pytest
from scipy.stats import ks_2samp

from locmix import (
    Degenerate,
    ModelSpec,
    RngStream,
    precompute_quadratics,
    sample_cov_product,
    sample_data_matrix,
    sample_mean_and_cov,
    sample_nu,
    sample_precision_product,
)
from locmix.errors import RegimeError, ZeroVectorError

from conftest import make_dense_model


def oracle_draws(model, l, n, seed, count, precision=False):
    out = np.empty(count)
    for i in range(count):
        x, _ = sample_data_matrix(model, n, RngStream(seed, i))
        m = sample_mean_and_cov(x)
        if precision:
            out[i] = l @ np.linalg.solve(m.s_matrix, m.xbar)
        else:
            out[i] = l @ m.s_matrix @ m.xbar
    return out


def test_delta_sq_examples():
    model = ModelSpec(
        mu=np.array([1.0, 2.0, 3.0]),
        sigma=np.eye(3),
        b=np.zeros((3, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    cache = precompute_quadratics(model, np.array([1.0, 0.0, 0.0]))
    _, _, delta_sq = cache.precision_forms(cache.mu_nu_eig(np.zeros(1)))
    assert delta_sq == pytest.approx(13.0, abs=1e-12)

    # Shift parallel to l: the projection residual vanishes.
    parallel = ModelSpec(
        mu=np.array([2.0, 0.0, 0.0]),
        sigma=np.eye(3),
        b=np.zeros((3, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    cache = precompute_quadratics(parallel, np.array([1.0, 0.0, 0.0]))
    _, _, delta_sq = cache.precision_forms(cache.mu_nu_eig(np.zeros(1)))
    assert delta_sq == pytest.approx(0.0, abs=1e-12)


def test_delta_sq_matches_dense_projection():
    model, l = make_dense_model(5, 2, seed=21)
    nu_val = sample_nu(model.nu, RngStream(5, 0))
    cache = precompute_quadratics(model, l)
    _, _, delta_sq = cache.precision_forms(cache.mu_nu_eig(nu_val))
    sigma_inv = np.linalg.inv(model.sigma)
    r_l = sigma_inv - np.outer(sigma_inv @ l, sigma_inv @ l) / (l @ sigma_inv @ l)
    mv = model.mu + model.b @ nu_val
    dense = mv @ r_l @ mv
    assert abs(delta_sq - dense) <= 1e-10 * max(1.0, abs(dense))


def test_cov_product_zero_l_short_circuits():
    model, _ = make_dense_model(4, 2, seed=22)
    draws = [
        sample_cov_product(model, np.zeros(4), 10, RngStream(6, i))[0]
        for i in range(20)
    ]
    assert draws == [0.0] * 20


def test_cov_product_p1_has_no_noise_term():
    # In dimension one the Cauchy-Schwarz bracket vanishes, so the draw is
    # an exact function of (nu, z, xi); replay the documented draw order.
    model = ModelSpec(
        mu=np.array([0.4]),
        sigma=np.array([[2.5]]),
        b=np.array([[0.3]]),
        nu=Degenerate(np.array([2.0])),
    )
    l = np.array([1.7])
    n = 9
    value, _ = sample_cov_product(model, l, n, RngStream(7, 1))
    gen = RngStream(7, 1).generator
    z = gen.standard_normal(1)
    xbar = 0.4 + 0.3 * 2.0 + np.sqrt(2.5) * z[0] / np.sqrt(n)
    xi = gen.chisquare(n - 1)
    gen.standard_normal()  # z0 is consumed but must not contribute
    expected = xi / (n - 1) * (1.7 * 2.5 * xbar)
    assert value == pytest.approx(expected, rel=1e-14)


def test_linearity_exact_ratio():
    model, l = make_dense_model(6, 2, seed=23)
    n = 20
    for i in range(50):
        a = sample_cov_product(model, l, n, RngStream(8, i))[0]
        b = sample_cov_product(model, 2.0 * l, n, RngStream(8, i))[0]
        assert b == 2.0 * a
    for i in range(50):
        a = sample_precision_product(model, l, n, RngStream(9, i))[0]
        b = sample_precision_product(model, 2.0 * l, n, RngStream(9, i))[0]
        assert b == 2.0 * a


def test_fixed_nu_is_honored():
    model, l = make_dense_model(4, 2, seed=24)
    nu_val = np.array([0.5, 1.5])
    value, nu_used = sample_cov_product(model, l, 15, RngStream(10, 0), fixed_nu=nu_val)
    np.testing.assert_array_equal(nu_used, nu_val)
    repeat, _ = sample_cov_product(model, l, 15, RngStream(10, 0), fixed_nu=nu_val)
    assert value == repeat


def test_cache_matches_direct_path():
    model, l = make_dense_model(5, 2, seed=25)
    cache = precompute_quadratics(model, l)
    for i in range(10):
        direct = sample_cov_product(model, l, 12, RngStream(11, i))[0]
        cached = sample_cov_product(model, l, 12, RngStream(11, i), cache=cache)[0]
        assert direct == cached


def test_precision_requires_regime_and_nonzero_l():
    model, l = make_dense_model(5, 2, seed=26)
    with pytest.raises(RegimeError):
        sample_precision_product(model, l, 6, RngStream(12, 0))
    with pytest.raises(ZeroVectorError):
        sample_precision_product(model, np.zeros(5), 20, RngStream(12, 0))


def test_precision_p1_degenerate_branch():
    model = ModelSpec(
        mu=np.array([0.4]),
        sigma=np.array([[2.5]]),
        b=np.array([[0.3]]),
        nu=Degenerate(np.array([2.0])),
    )
    l = np.array([1.7])
    n = 12
    value, _ = sample_precision_product(model, l, n, RngStream(13, 0))
    gen = RngStream(13, 0).generator
    xi = gen.chisquare(n - 1)
    z0 = gen.standard_normal()
    a = 1.7 * (0.4 + 0.6) / 2.5
    expected = (n - 1) / xi * (a + np.sqrt(1.7**2 / 2.5) * z0 / np.sqrt(n))
    assert value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("family", ["tn", "gal"])
def test_cov_product_matches_oracle(family):
    model, l = make_dense_model(5, 2, seed=27, family=family)
    n, count = 20, 4000
    cache = precompute_quadratics(model, l)
    rep = np.array(
        [
            sample_cov_product(model, l, n, RngStream(14, i), cache=cache)[0]
            for i in range(count)
        ]
    )
    orc = oracle_draws(model, l, n, seed=15, count=count)
    assert ks_2samp(rep, orc).statistic <= 0.04


@pytest.mark.parametrize("family", ["tn", "gal"])
def test_precision_product_matches_oracle(family):
    model, l = make_dense_model(5, 2, seed=28, family=family)
    n, count = 30, 4000
    cache = precompute_quadratics(model, l)
    rep = np.array(
        [
            sample_precision_product(model, l, n, RngStream(16, i), cache=cache)[0]
            for i in range(count)
        ]
    )
    orc = oracle_draws(model, l, n, seed=17, count=count, precision=True)
    assert ks_2samp(rep, orc).statistic <= 0.04


def test_cov_product_singular_regime_matches_oracle():
    model, l = make_dense_model(15, 2, seed=29)
    n, count = 10, 3000
    cache = precompute_quadratics(model, l)
    rep = np.array(
        [
            sample_cov_product(model, l, n, RngStream(18, i), cache=cache)[0]
            for i in range(count)
        ]
    )
    orc = oracle_draws(model, l, n, seed=19, count=count)
    assert ks_2samp(rep, orc).statistic <= 0.05
