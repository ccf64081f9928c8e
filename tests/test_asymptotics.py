from dataclasses import replace

import numpy as np
import pytest

from locmix import (
    Degenerate,
    ModelSpec,
    ProductKind,
    QuadraticCache,
    RngStream,
    limit_moments,
    nu_mean,
    sample_cov_product,
    sample_nu,
    standardize,
)
from locmix.errors import InvalidInputError, RegimeError
from locmix.kde import ks_statistic
from locmix.verify import dense_test_model, variance_form_identity

COV, PRECISION = ProductKind.COV_TIMES_MEAN, ProductKind.PRECISION_TIMES_MEAN


def _plain_cache(l):
    p = len(l)
    model = ModelSpec(
        mu=np.zeros(p), sigma=np.eye(p), b=np.zeros((p, 1)), nu=Degenerate(np.zeros(1))
    )
    return QuadraticCache(model, l)


def test_sigma2_identity_case():
    cache = _plain_cache(np.array([1.0, 0.0, 0.0]))
    # mu = 0, B = 0, Sigma = I: variance is 1 + c.
    assert limit_moments(cache, 0.5, np.zeros(1), COV)[1] == pytest.approx(1.5)
    assert limit_moments(cache, 0.0, np.zeros(1), COV)[1] == pytest.approx(1.0)


def test_sigma2_hand_value():
    model = ModelSpec(
        mu=np.array([1.0, 0.0]),
        sigma=np.diag([1.0, 4.0]),
        b=np.zeros((2, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    cache = QuadraticCache(model, np.array([1.0, 0.0]))
    _, val = limit_moments(cache, 0.1, np.zeros(1), COV)
    assert val == pytest.approx(3.85)


def test_sigma2_rejects_negative_c():
    with pytest.raises(RegimeError):
        limit_moments(_plain_cache(np.ones(2)), -0.1, np.zeros(1), COV)


def test_sigma2_tilde_collapse_and_hand_value():
    l = np.array([1.0, 2.0, 0.0, -1.0])
    c = 0.4
    assert limit_moments(_plain_cache(l), c, np.zeros(1), PRECISION)[1] == pytest.approx(
        np.dot(l, l) / (1 - c) ** 3
    )
    hand = ModelSpec(
        mu=np.array([1.0, 1.0]),
        sigma=np.eye(2),
        b=np.zeros((2, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    cache = QuadraticCache(hand, np.array([1.0, 0.0]))
    _, val = limit_moments(cache, 0.0, np.zeros(1), PRECISION)
    assert val == pytest.approx(4.0)


def test_sigma2_tilde_regime_and_zero_vector():
    with pytest.raises(RegimeError):
        limit_moments(_plain_cache(np.ones(2)), 1.0, np.zeros(1), PRECISION)
    with pytest.raises(InvalidInputError):
        limit_moments(_plain_cache(np.zeros(2)), 0.2, np.zeros(1), PRECISION)


def test_variance_form_identity_thousand_instances():
    result = variance_form_identity(seed=3)
    assert result.passed, result


def test_sigma2_tilde_monotone_in_c():
    cache = QuadraticCache(*dense_test_model(4, 2, seed=31))
    nu_val = sample_nu(cache.nu, RngStream(30, 0), 1)[0]
    values = [limit_moments(cache, c, nu_val, PRECISION)[1] for c in np.linspace(0, 0.95, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_variances_strictly_positive_for_nonzero_l():
    for seed in range(20):
        cache = QuadraticCache(*dense_test_model(4, 2, seed=200 + seed))
        nu_val = sample_nu(cache.nu, RngStream(35, seed), 1)[0]
        assert limit_moments(cache, 0.3, nu_val, COV)[1] > 0
        assert limit_moments(cache, 0.3, nu_val, PRECISION)[1] > 0


def test_corollary_substitution_identities():
    model, l = dense_test_model(4, 2, seed=32)
    cache = QuadraticCache(model, l)
    # The corollary is the conditional call at the shift mean, nu_mean(cache.nu).
    # omega = 0 reduces to the conditional formula at nu = 0.
    _, sigma2 = limit_moments(cache, 0.3, nu_mean(Degenerate(np.zeros(2))), COV)
    assert sigma2 == pytest.approx(limit_moments(cache, 0.3, np.zeros(2), COV)[1])
    # B = 0 makes the formulas shift-independent.
    zero_b = QuadraticCache(replace(model, b=np.zeros((4, 2))), l)
    for nu_val in (np.zeros(2), np.array([1.0, 3.0])):
        assert limit_moments(zero_b, 0.3, nu_val, COV)[1] == pytest.approx(
            limit_moments(zero_b, 0.3, np.zeros(2), COV)[1]
        )
    # Half-normal mean plugged in matches direct evaluation.
    omega = np.sqrt(2 / np.pi) * np.ones(2)
    _, sigma2 = limit_moments(cache, 0.3, nu_mean(cache.nu), COV)
    _, sigma2_tilde = limit_moments(cache, 0.3, nu_mean(cache.nu), PRECISION)
    assert sigma2 == pytest.approx(limit_moments(cache, 0.3, omega, COV)[1], rel=1e-12)
    assert sigma2_tilde == pytest.approx(
        limit_moments(cache, 0.3, omega, PRECISION)[1], rel=1e-12
    )


def test_standardize_centering_and_scaling():
    cache = QuadraticCache(*dense_test_model(3, 2, seed=33))
    nu_val = sample_nu(cache.nu, RngStream(31, 0), 1)[0]
    n = 50
    center, variance = limit_moments(cache, cache.p / n, nu_val, COV)
    values = [center, center + 2.0 * np.sqrt(variance) / np.sqrt(n)]
    out = standardize(values, [nu_val, nu_val], cache, n, ProductKind.COV_TIMES_MEAN)
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("kind", list(ProductKind))
def test_standardize_batch_matches_params_row_by_row(kind):
    cache = QuadraticCache(*dense_test_model(6, 3, seed=36))
    gen = np.random.default_rng(36)
    nus = np.abs(gen.standard_normal((50, 3)))
    values = gen.uniform(-2.0, 2.0, 50)
    n, c = 40, 0.15  # c = p / n
    out = standardize(values, nus, cache, n, kind)
    for value, nu_val, z in zip(values, nus, out):
        center, variance = limit_moments(cache, c, nu_val, kind)
        assert np.ndim(center) == np.ndim(variance) == 0
        expected = np.sqrt(n) * (value - center) / np.sqrt(variance)
        assert abs(z - expected) <= 1e-12 * max(1.0, abs(expected))


def test_standardize_rejects_empty_and_zero_l():
    model, l = dense_test_model(3, 2, seed=34)
    with pytest.raises(InvalidInputError):
        standardize([], np.empty((0, 2)), QuadraticCache(model, l), 10, COV)
    with pytest.raises(InvalidInputError):
        zero_l = QuadraticCache(model, np.zeros(3))
        standardize([1.0], np.zeros((1, 2)), zero_l, 10, COV)


def test_standardized_sample_is_close_to_normal():
    # Reduced-size version of the first study configuration.
    from locmix.harness import default_nu, generate_paper_model

    p, n, q, count = 50, 500, 10, 20_000
    model = generate_paper_model(p, default_nu("tn", q), 0)
    cache = QuadraticCache(model, np.ones(p))
    values, nus = sample_cov_product(cache, n, RngStream(32, 0), count)
    out = standardize(values, nus, cache, n, ProductKind.COV_TIMES_MEAN)
    assert ks_statistic(out) <= 0.02


def test_conditional_variance_reduced():
    # Small-size version of the fixed-shift variance checks.
    from locmix.harness import default_nu, generate_paper_model

    p, n, count = 50, 500, 20_000
    model = generate_paper_model(p, default_nu("tn", 10), 0)
    nu_fix = sample_nu(model.nu, RngStream(33, 0), 1)[0]
    cache = QuadraticCache(replace(model, nu=Degenerate(nu_fix)), np.ones(p))
    vals, _ = sample_cov_product(cache, n, RngStream(34, 0), count)
    center, target = limit_moments(cache, p / n, nu_fix, COV)
    observed = np.var(np.sqrt(n) * (vals - center), ddof=1)
    assert abs(observed - target) / target < 0.10

