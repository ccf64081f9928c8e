import numpy as np
import pytest

from locmix import (
    Degenerate,
    ModelSpec,
    ProductKind,
    RngStream,
    asymptotic_params,
    corollary_params,
    precompute_quadratics,
    sample_cov_product,
    sample_nu,
    sigma2_nu,
    sigma2_tilde_nu,
    standardize,
)
from locmix.errors import InvalidInputError, RegimeError, ZeroVectorError
from locmix.kde import ks_statistic
from locmix.verify import variance_form_identity

from conftest import make_dense_model


def _plain_model(p):
    return ModelSpec(
        mu=np.zeros(p), sigma=np.eye(p), b=np.zeros((p, 1)), nu=Degenerate(np.zeros(1))
    )


def test_sigma2_identity_case():
    model = _plain_model(3)
    l = np.array([1.0, 0.0, 0.0])
    # mu = 0, B = 0, Sigma = I: variance is 1 + c.
    assert sigma2_nu(model, l, 0.5, np.zeros(1)) == pytest.approx(1.5)
    assert sigma2_nu(model, l, 0.0, np.zeros(1)) == pytest.approx(1.0)


def test_sigma2_hand_value():
    model = ModelSpec(
        mu=np.array([1.0, 0.0]),
        sigma=np.diag([1.0, 4.0]),
        b=np.zeros((2, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    val = sigma2_nu(model, np.array([1.0, 0.0]), 0.1, np.zeros(1))
    assert val == pytest.approx(3.85)


def test_sigma2_rejects_negative_c():
    model = _plain_model(2)
    with pytest.raises(RegimeError):
        sigma2_nu(model, np.ones(2), -0.1, np.zeros(1))


def test_sigma2_tilde_collapse_and_hand_value():
    model = _plain_model(4)
    l = np.array([1.0, 2.0, 0.0, -1.0])
    c = 0.4
    assert sigma2_tilde_nu(model, l, c, np.zeros(1)) == pytest.approx(
        np.dot(l, l) / (1 - c) ** 3
    )
    hand = ModelSpec(
        mu=np.array([1.0, 1.0]),
        sigma=np.eye(2),
        b=np.zeros((2, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    assert sigma2_tilde_nu(hand, np.array([1.0, 0.0]), 0.0, np.zeros(1)) == pytest.approx(4.0)


def test_sigma2_tilde_regime_and_zero_vector():
    model = _plain_model(2)
    with pytest.raises(RegimeError):
        sigma2_tilde_nu(model, np.ones(2), 1.0, np.zeros(1))
    with pytest.raises(ZeroVectorError):
        sigma2_tilde_nu(model, np.zeros(2), 0.2, np.zeros(1))


def test_variance_form_identity_thousand_instances():
    result = variance_form_identity(seed=3)
    assert result.passed, result


def test_sigma2_tilde_monotone_in_c():
    model, l = make_dense_model(4, 2, seed=31)
    nu_val = sample_nu(model.nu, RngStream(30, 0))
    values = [sigma2_tilde_nu(model, l, c, nu_val) for c in np.linspace(0, 0.95, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_variances_strictly_positive_for_nonzero_l():
    for seed in range(20):
        model, l = make_dense_model(4, 2, seed=200 + seed)
        nu_val = sample_nu(model.nu, RngStream(35, seed))
        assert sigma2_nu(model, l, 0.3, nu_val) > 0
        assert sigma2_tilde_nu(model, l, 0.3, nu_val) > 0


def test_corollary_substitution_identities():
    model, l = make_dense_model(4, 2, seed=32)
    # omega = 0 reduces to the conditional formula at nu = 0.
    params = corollary_params(model, l, 0.3, np.zeros(2))
    assert params.sigma2 == pytest.approx(sigma2_nu(model, l, 0.3, np.zeros(2)))
    # B = 0 makes the formulas shift-independent.
    zero_b = ModelSpec(mu=model.mu, sigma=model.sigma, b=np.zeros((4, 2)), nu=model.nu)
    for nu_val in (np.zeros(2), np.array([1.0, 3.0])):
        assert sigma2_nu(zero_b, l, 0.3, nu_val) == pytest.approx(
            corollary_params(zero_b, l, 0.3, np.zeros(2)).sigma2
        )
    # Half-normal mean plugged in matches direct evaluation.
    omega = np.sqrt(2 / np.pi) * np.ones(2)
    params = corollary_params(model, l, 0.3, omega)
    assert params.sigma2 == pytest.approx(
        sigma2_nu(model, l, 0.3, omega), rel=1e-12
    )
    assert params.sigma2_tilde == pytest.approx(
        sigma2_tilde_nu(model, l, 0.3, omega), rel=1e-12
    )


def test_standardize_centering_and_scaling():
    model, l = make_dense_model(3, 2, seed=33)
    nu_val = sample_nu(model.nu, RngStream(31, 0))
    n, c = 50, 0.1
    params = asymptotic_params(model, l, c, nu_val, ProductKind.COV_TIMES_MEAN)
    values = [params.center, params.center + 2.0 * np.sqrt(params.variance) / np.sqrt(n)]
    out = standardize(values, [nu_val, nu_val], model, l, c, n, ProductKind.COV_TIMES_MEAN)
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("kind", list(ProductKind))
def test_standardize_batch_matches_params_row_by_row(kind):
    model, l = make_dense_model(6, 3, seed=36)
    gen = np.random.default_rng(36)
    nus = np.abs(gen.standard_normal((50, 3)))
    values = gen.uniform(-2.0, 2.0, 50)
    n, c = 40, 0.15
    out = standardize(values, nus, model, l, c, n, kind)
    for value, nu_val, z in zip(values, nus, out):
        params = asymptotic_params(model, l, c, nu_val, kind)
        expected = np.sqrt(n) * (value - params.center) / np.sqrt(params.variance)
        assert abs(z - expected) <= 1e-12 * max(1.0, abs(expected))


def test_standardize_rejects_empty_and_zero_l():
    model, l = make_dense_model(3, 2, seed=34)
    with pytest.raises(InvalidInputError):
        standardize([], np.empty((0, 2)), model, l, 0.1, 10, ProductKind.COV_TIMES_MEAN)
    with pytest.raises(ZeroVectorError):
        standardize(
            [1.0], np.zeros((1, 2)), model, np.zeros(3), 0.1, 10, ProductKind.COV_TIMES_MEAN
        )


def test_standardized_sample_is_close_to_normal():
    # Reduced-size version of the first study configuration.
    from locmix.harness import default_nu, generate_paper_model

    p, n, q, count = 50, 500, 10, 20_000
    model = generate_paper_model(p, q, model_seed=0, nu=default_nu("tn", q))
    l = np.ones(p)
    cache = precompute_quadratics(model, l)
    values, nus = zip(
        *(sample_cov_product(model, l, n, RngStream(32, i), cache=cache) for i in range(count))
    )
    out = standardize(values, nus, model, l, p / n, n, ProductKind.COV_TIMES_MEAN, cache=cache)
    assert ks_statistic(out) <= 0.02


def test_conditional_variance_reduced():
    # Small-size version of the fixed-shift variance checks.
    from locmix.harness import default_nu, generate_paper_model

    p, n, count = 50, 500, 20_000
    model = generate_paper_model(p, 10, model_seed=0, nu=default_nu("tn", 10))
    l = np.ones(p)
    cache = precompute_quadratics(model, l)
    nu_fix = sample_nu(model.nu, RngStream(33, 0))
    vals = np.array(
        [
            sample_cov_product(model, l, n, RngStream(34, i), fixed_nu=nu_fix, cache=cache)[0]
            for i in range(count)
        ]
    )
    params = asymptotic_params(model, l, p / n, nu_fix, ProductKind.COV_TIMES_MEAN, cache=cache)
    center, target = params.center, params.variance
    observed = np.var(np.sqrt(n) * (vals - center), ddof=1)
    assert abs(observed - target) / target < 0.10
