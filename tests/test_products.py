import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from locmix import (
    Degenerate,
    ModelSpec,
    ProductKind,
    QuadraticCache,
    RngStream,
    limit_moments,
    sample_cov_product,
    sample_nu,
    sample_precision_product,
)
from locmix.distributions import sample_chi_squared
from locmix.errors import InvalidInputError, RegimeError
from locmix.harness import default_nu, generate_paper_model
from locmix.verify import dense_test_model, oracle_product_draws

COV, PRECISION = ProductKind.COV_TIMES_MEAN, ProductKind.PRECISION_TIMES_MEAN


def test_delta_sq_examples():
    model = ModelSpec(
        mu=np.array([1.0, 2.0, 3.0]),
        sigma=np.eye(3),
        b=np.zeros((3, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    cache = QuadraticCache(model, np.array([1.0, 0.0, 0.0]))
    _, delta_sq = cache.precision_forms(np.zeros(1))
    assert delta_sq == pytest.approx(13.0, abs=1e-12)

    # Shift parallel to l: the projection residual vanishes.
    parallel = ModelSpec(
        mu=np.array([2.0, 0.0, 0.0]),
        sigma=np.eye(3),
        b=np.zeros((3, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    cache = QuadraticCache(parallel, np.array([1.0, 0.0, 0.0]))
    _, delta_sq = cache.precision_forms(np.zeros(1))
    assert delta_sq == pytest.approx(0.0, abs=1e-12)


def test_delta_sq_matches_dense_projection():
    model, l = dense_test_model(5, 2, seed=21)
    nu_val = sample_nu(model.nu, RngStream(5, 0), 1)[0]
    cache = QuadraticCache(model, l)
    _, delta_sq = cache.precision_forms(nu_val)
    sigma_inv = np.linalg.inv(model.sigma)
    r_l = sigma_inv - np.outer(sigma_inv @ l, sigma_inv @ l) / (l @ sigma_inv @ l)
    mv = model.mu + model.b @ nu_val
    dense = mv @ r_l @ mv
    assert abs(delta_sq - dense) <= 1e-10 * max(1.0, abs(dense))


def _direct_shift_forms(model, l, nu):
    """(l'Sigma mu_nu, mu_nu'Sigma mu_nu, a, b, m, delta^2) as p-sums of mu_nu.

    ``a = l'Sigma^{-1} mu_nu``, ``b = l'Sigma^{-1} l`` and ``m =
    mu_nu'Sigma^{-1} mu_nu``, in the original basis.
    """
    mu_nu = model.mu + model.b @ nu
    sigma_inv_l = np.linalg.solve(model.sigma, l)
    sigma_inv_mu = np.linalg.solve(model.sigma, mu_nu)
    a = l @ sigma_inv_mu
    b = l @ sigma_inv_l
    resid = mu_nu - a / b * l
    return (
        l @ model.sigma @ mu_nu,
        mu_nu @ model.sigma @ mu_nu,
        a,
        b,
        mu_nu @ sigma_inv_mu,
        resid @ np.linalg.solve(model.sigma, resid),
    )


@pytest.mark.parametrize("p, q", [(1, 3), (5, 2), (40, 3)])
def test_shift_forms_match_direct_sums(p, q):
    # (1, 3) has q + 1 > p, so the triangular factors have min(p, q+1) rows.
    model, l = dense_test_model(p, q, seed=35)
    cache = QuadraticCache(model, l)
    nus = sample_nu(model.nu, RngStream(36, p), 6)

    def forms(nu):
        return (*cache.cov_forms(nu), *cache.precision_forms(nu))

    ratios = (0.0, 0.3, 0.9)

    def precision_variances(nu):
        return [limit_moments(cache, c, nu, PRECISION)[1] for c in ratios]

    batch = forms(nus)
    batch_variances = precision_variances(nus)
    for row, nu_val in enumerate(nus):
        cov_l, cov_quad, a, b, m, delta_sq = _direct_shift_forms(model, l, nu_val)
        for one, many, want in zip(forms(nu_val), batch, (cov_l, cov_quad, a, delta_sq)):
            tol = 1e-12 * max(1.0, abs(want))
            assert np.ndim(one) == 0 and abs(one - want) <= tol
            assert abs(many[row] - want) <= tol
        # limit_moments spells sigma2_tilde with delta^2; the direct spelling uses m.
        for c, one, many in zip(ratios, precision_variances(nu_val), batch_variances):
            want = (a * a + b * (1.0 + m)) / (1.0 - c) ** 3
            tol = 1e-9 * max(1.0, abs(want))
            assert np.ndim(one) == 0 and abs(one - want) <= tol
            assert abs(many[row] - want) <= tol


@pytest.mark.parametrize("p, q", [(5, 2), (40, 3)])
def test_delta_sq_near_parallel_shift(p, q):
    # mu_nu = 2 l + 1e-6 e: delta^2 is about 1e-12 of mu_nu'Sigma^{-1}mu_nu.
    # Taking m - a^2/b loses most digits there; the projected residual's
    # own sum of squares keeps them.  The reference projects the stored
    # deviation mu - 2 l, which is exact, so it has no cancellation.
    model, l = dense_test_model(p, q, seed=35)
    e = np.zeros(p)
    e[-1] = 1.0
    mu = 2.0 * l + 1e-6 * e
    parallel = ModelSpec(mu=mu, sigma=model.sigma, b=model.b, nu=model.nu)
    _, delta_sq = QuadraticCache(parallel, l).precision_forms(np.zeros(q))
    dev = mu - 2.0 * l
    resid = dev - (l @ np.linalg.solve(model.sigma, dev)) / (
        l @ np.linalg.solve(model.sigma, l)
    ) * l
    expected = resid @ np.linalg.solve(model.sigma, resid)
    assert abs(delta_sq - expected) <= 1e-9 * expected


def test_cov_product_zero_l_short_circuits():
    model, _ = dense_test_model(4, 2, seed=22)
    cache = QuadraticCache(model, np.zeros(4))
    draws, _ = sample_cov_product(cache, 10, RngStream(6, 0), 20)
    assert draws.tolist() == [0.0] * 20


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
    (value,), _ = sample_cov_product(QuadraticCache(model, l), n, RngStream(7, 1), 1)
    gen = RngStream(7, 1).generator
    z = gen.standard_normal(1)
    xbar = 0.4 + 0.3 * 2.0 + np.sqrt(2.5) * z[0] / np.sqrt(n)
    xi = gen.chisquare(n - 1)
    gen.standard_normal()  # z0 is consumed but must not contribute
    expected = xi / (n - 1) * (1.7 * 2.5 * xbar)
    assert value == pytest.approx(expected, rel=1e-14)


def test_linearity_exact_ratio():
    model, l = dense_test_model(6, 2, seed=23)
    n = 20
    one, two = QuadraticCache(model, l), QuadraticCache(model, 2.0 * l)
    for sampler, seed in ((sample_cov_product, 8), (sample_precision_product, 9)):
        a, _ = sampler(one, n, RngStream(seed, 0), 50)
        b, _ = sampler(two, n, RngStream(seed, 0), 50)
        np.testing.assert_array_equal(b, 2.0 * a)


def test_degenerate_law_cache_conditions_on_its_shift():
    model, l = dense_test_model(4, 2, seed=24)
    nu_val = np.array([0.5, 1.5])
    cache = QuadraticCache(replace(model, nu=Degenerate(nu_val)), l)
    for sampler in (sample_cov_product, sample_precision_product):
        values, nus = sampler(cache, 15, RngStream(10, 0), 6)
        np.testing.assert_array_equal(nus, [nu_val] * 6)
        repeat, _ = sampler(cache, 15, RngStream(10, 0), 6)
        np.testing.assert_array_equal(values, repeat)
        other, _ = sampler(cache, 15, RngStream(10, 1), 6)
        assert not np.any(values == other)


def test_precision_requires_regime_and_nonzero_l():
    model, l = dense_test_model(5, 2, seed=26)
    with pytest.raises(RegimeError):
        sample_precision_product(QuadraticCache(model, l), 6, RngStream(12, 0), 1)
    zero_l = QuadraticCache(model, np.zeros(5))
    with pytest.raises(InvalidInputError):
        sample_precision_product(zero_l, 20, RngStream(12, 0), 1)


def test_precision_p1_degenerate_branch():
    model = ModelSpec(
        mu=np.array([0.4]),
        sigma=np.array([[2.5]]),
        b=np.array([[0.3]]),
        nu=Degenerate(np.array([2.0])),
    )
    l = np.array([1.7])
    n = 12
    cache = QuadraticCache(model, l)
    (value,), _ = sample_precision_product(cache, n, RngStream(13, 0), 1)
    gen = RngStream(13, 0).generator
    xi = gen.chisquare(n - 1)
    z0 = gen.standard_normal()
    a = 1.7 * (0.4 + 0.6) / 2.5
    expected = (n - 1) / xi * (a + np.sqrt(1.7**2 / 2.5) * z0 / np.sqrt(n))
    assert value == pytest.approx(expected, rel=1e-14)


def test_p1_blocks_replay_documented_draw_order():
    # A block draws each kind of variate for all its replicates before the
    # next kind: cov (z, xi, z0), precision (xi_tilde, z0).
    model = ModelSpec(
        mu=np.array([0.4]),
        sigma=np.array([[2.5]]),
        b=np.array([[0.3]]),
        nu=Degenerate(np.array([2.0])),
    )
    l = np.array([1.7])
    n = 12
    cache = QuadraticCache(model, l)
    values, nus = sample_cov_product(cache, n, RngStream(7, 2), 3)
    gen = RngStream(7, 2).generator
    z = gen.standard_normal((3, 1))[:, 0]
    xi = gen.chisquare(n - 1, 3)
    xbar = 0.4 + 0.3 * 2.0 + np.sqrt(2.5) * z / np.sqrt(n)
    np.testing.assert_allclose(values, xi / (n - 1) * (1.7 * 2.5 * xbar), rtol=1e-14)
    np.testing.assert_array_equal(nus, [[2.0]] * 3)

    values, _ = sample_precision_product(cache, n, RngStream(13, 2), 3)
    gen = RngStream(13, 2).generator
    xi = gen.chisquare(n - 1, 3)
    z0 = gen.standard_normal(3)
    a = 1.7 * (0.4 + 0.6) / 2.5
    expected = (n - 1) / xi * (a + np.sqrt(1.7**2 / 2.5) * z0 / np.sqrt(n))
    np.testing.assert_allclose(values, expected, rtol=1e-14)


@pytest.mark.parametrize("family", ["tn", "gal"])
def test_cov_product_matches_oracle(family):
    model, l = dense_test_model(5, 2, seed=27, family=family)
    n, count = 20, 4000
    cache = QuadraticCache(model, l)
    rep, _ = sample_cov_product(cache, n, RngStream(14, 0), count)
    orc = oracle_product_draws(model, l, n, 15, count, COV)
    assert ks_2samp(rep, orc).statistic <= 0.04


@pytest.mark.parametrize("family", ["tn", "gal"])
def test_precision_product_matches_oracle(family):
    model, l = dense_test_model(5, 2, seed=28, family=family)
    n, count = 30, 4000
    cache = QuadraticCache(model, l)
    rep, _ = sample_precision_product(cache, n, RngStream(16, 0), count)
    orc = oracle_product_draws(model, l, n, 17, count, PRECISION)
    assert ks_2samp(rep, orc).statistic <= 0.04


def test_cov_product_singular_regime_matches_oracle():
    model, l = dense_test_model(15, 2, seed=29)
    n, count = 10, 3000
    cache = QuadraticCache(model, l)
    rep, _ = sample_cov_product(cache, n, RngStream(18, 0), count)
    orc = oracle_product_draws(model, l, n, 19, count, COV)
    assert ks_2samp(rep, orc).statistic <= 0.05


def _one_shot_cov_product(cache, n, rng, size):
    """The covariance sampler with all ``(size, p)`` normals drawn and contracted at once."""
    nus = sample_nu(cache.nu, rng, size)
    gen = rng.generator
    z = gen.standard_normal((size, cache.p))
    zw = z @ (np.sqrt(cache.eigenvalues / n)[:, None] * cache.lam_l_m)
    g_mu, quad_mu = cache.cov_forms(nus)
    g = zw[:, 0] + g_mu
    cross = zw[:, 1] + np.einsum("ij,ij->i", zw[:, 2:], nus)
    quad = np.einsum("ij,ij,j->i", z, z, cache.eigenvalues**2 / n) + 2.0 * cross + quad_mu
    xi = sample_chi_squared(n - 1, rng, size)
    z0 = gen.standard_normal(size)
    bracket = np.maximum(quad * cache.l_sigma_l - g * g, 0.0)
    return xi / (n - 1) * g + np.sqrt(xi) * np.sqrt(bracket) * z0 / (n - 1), nus


@pytest.mark.parametrize(
    "p, q, size",
    [(950, 1, 4096), (1200, 3, 4096), (300, 1, 4096), (950, 10, 1696), (50, 10, 4096), (950, 10, 1)],
)
def test_cov_product_tiles_keep_one_shot_bytes(p, q, size):
    # Tiling the normals must change neither the draw order nor the GEMM's
    # rounding; q <= 3 is where a too-small tile would reach OpenBLAS's
    # small-matrix kernel.
    cache = QuadraticCache(generate_paper_model(p, default_nu("tn", q), 2), np.ones(p))
    values, nus = sample_cov_product(cache, 1000, RngStream(3, p + q), size)
    ref_values, ref_nus = _one_shot_cov_product(cache, 1000, RngStream(3, p + q), size)
    np.testing.assert_array_equal(nus, ref_nus)
    np.testing.assert_array_equal(values, ref_values)


def test_cov_product_memory_is_one_tile():
    # 4096 x 2000 normals are 66 MB at once; a tile holds at most 8 MiB.
    p = 2000
    cache = QuadraticCache(generate_paper_model(p, default_nu("tn", 10), 0), np.ones(p))
    tracemalloc.start()
    try:
        sample_cov_product(cache, 400, RngStream(1, 0), 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_paper_model_cache_memory_is_linear_in_p():
    # The paper model holds Sigma as its (p,) diagonal, so no p x p array
    # (200 MB at p = 5000) is built on the way to the cache.
    p = 5000
    tracemalloc.start()
    try:
        QuadraticCache(generate_paper_model(p, default_nu("tn", 10), 0), np.ones(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
