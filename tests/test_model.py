import numpy as np
import pytest

from locmix import (
    Degenerate,
    ModelSpec,
    QuadraticCache,
    RngStream,
    TruncatedNormalAbs,
    build_workspace,
    decompose_sigma,
    generate_paper_model,
    log_density,
    sample_cov_product,
    sample_data_matrix,
    sample_mean_and_cov,
    sample_nu,
    sample_precision_product,
)
from locmix.distributions import nu_mean
from locmix.harness import default_nu
from locmix.errors import InvalidInputError, NotPositiveDefiniteError
from locmix.verify import dense_test_model


def _root(sigma):
    """The dense factor ``U diag(sqrt(lambda))`` that the matrix oracle draws with."""
    dec = decompose_sigma(sigma)
    return dec.unrotate(np.eye(dec.eigenvalues.size), np.sqrt(dec.eigenvalues))


def test_decompose_identity():
    dec = decompose_sigma(np.eye(4))
    np.testing.assert_array_equal(dec.eigenvalues, np.ones(4))
    np.testing.assert_array_equal(dec.rotate(np.eye(4)), np.eye(4))


def test_decompose_diagonal_orders_ascending():
    dec = decompose_sigma(np.diag([4.0, 1.0]))
    np.testing.assert_array_equal(dec.eigenvalues, [1.0, 4.0])
    # Eigenvectors are the coordinate axes up to permutation.
    assert set(map(tuple, np.abs(dec.rotate(np.eye(2))).tolist())) == {
        (1.0, 0.0),
        (0.0, 1.0),
    }


def test_decompose_diagonal_with_ties_matches_permuted_identity():
    diag = np.array([3.0, 1.0, 3.0, 0.5, 1.0, 2.0, 0.5])
    dec = decompose_sigma(np.diag(diag))
    order = np.argsort(diag, kind="stable")
    np.testing.assert_array_equal(dec.eigenvalues, diag[order])
    u = np.eye(diag.size)[:, order]
    np.testing.assert_array_equal(dec.rotate(np.eye(diag.size)), u.T)
    np.testing.assert_array_equal(dec.unrotate(np.eye(diag.size), np.ones(diag.size)), u)


def test_decompose_reconstruction_random_spd():
    gen = np.random.default_rng(5)
    a = gen.standard_normal((6, 6))
    sigma = a @ a.T + np.eye(6)
    dec = decompose_sigma(sigma)
    recon = dec.unrotate(dec.rotate(np.eye(6)), dec.eigenvalues)
    rel = np.linalg.norm(recon - sigma) / np.linalg.norm(sigma)
    assert rel <= 1e-10


def test_decompose_rejects_non_positive_definite():
    with pytest.raises(NotPositiveDefiniteError) as err:
        decompose_sigma(np.diag([1.0, -0.5]))
    assert err.value.lambda_min == pytest.approx(-0.5)


@pytest.mark.parametrize("p", [1, 3])
def test_decompose_rejects_zero_matrix(p):
    # The eigenvalue check covers it: a zero matrix has lambda_min = 0.
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite") as err:
        decompose_sigma(np.zeros((p, p)))
    assert err.value.lambda_min == 0.0


@pytest.mark.parametrize("shape", ["matrix", "vector"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_non_finite(bad, shape):
    diag = np.array([bad, 1.0])
    with pytest.raises(InvalidInputError, match="sigma must be finite"):
        decompose_sigma(np.diag(diag) if shape == "matrix" else diag)


def test_decompose_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        decompose_sigma(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_model_spec_validation():
    with pytest.raises(InvalidInputError):
        ModelSpec(
            mu=np.zeros(2),
            sigma=np.eye(3),
            b=np.zeros((2, 1)),
            nu=Degenerate(np.zeros(1)),
        )
    with pytest.raises(InvalidInputError):
        ModelSpec(
            mu=np.zeros(2),
            sigma=np.eye(2),
            b=np.zeros((2, 2)),
            nu=Degenerate(np.zeros(1)),
        )


def test_sample_data_matrix_near_degenerate_noise():
    model = ModelSpec(
        mu=np.array([2.0, -3.0]),
        sigma=1e-12 * np.eye(2),
        b=np.zeros((2, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    x, _ = sample_data_matrix(model, 50, RngStream(1, 0), 1)
    assert np.max(np.abs(x[0] - model.mu[:, None])) < 1e-4


def test_sample_data_matrix_column_mean():
    model, _ = dense_test_model(2, 2, seed=9)
    x, _ = sample_data_matrix(model, 100_000, RngStream(2, 0), 1)
    target = model.mu + model.b @ nu_mean(model.nu)
    # One shared shift draw: compare against mu + B nu for the drawn nu.
    assert x.shape == (1, 2, 100_000)
    # Residual mean around the realized shifted mean vanishes as n grows.
    x2, nus = sample_data_matrix(model, 200_000, RngStream(2, 1), 1)
    resid = x2[0].mean(axis=1) - (model.mu + model.b @ nus[0])
    assert np.max(np.abs(resid)) < 0.02
    # And across independent matrices the column mean approaches mu + B E[nu].
    means = sample_data_matrix(model, 100, RngStream(3, 0), 2000)[0].mean(axis=2)
    assert np.max(np.abs(means.mean(axis=0) - target)) < 0.05


@pytest.mark.parametrize(
    "model, n, stream",
    [
        (generate_paper_model(5, default_nu("tn", 2), 0), 10, (1, 0)),
        (generate_paper_model(30, default_nu("tn", 5), 0), 60, (1, 0)),
        (
            ModelSpec(
                mu=np.zeros(3),
                sigma=np.diag([1.0, 0.5, 2.0]),
                b=np.array([[1.0, 0.4, 0.0], [0.2, 0.9, 0.3], [0.5, 0.1, 0.8]]),
                nu=TruncatedNormalAbs(np.eye(3)),
            ),
            4,
            (7, 5),
        ),
    ],
    ids=["paper-5-2", "paper-30-5", "diagonal-3-3"],
)
def test_sample_data_matrix_single_draw_keeps_its_bytes(model, n, stream):
    # The one-matrix formula, replayed on the same stream.
    x, nus = sample_data_matrix(model, n, RngStream(*stream), 1)
    assert x.shape == (1, model.p, n) and nus.shape == (1, model.q)
    rng = RngStream(*stream)
    expected_nu = sample_nu(model.nu, rng, 1)[0]
    z = rng.generator.standard_normal((model.p, n))
    shifted = (model.mu + model.b @ expected_nu)[:, None]
    np.testing.assert_array_equal(nus[0], expected_nu)
    np.testing.assert_array_equal(x[0], shifted + _root(model.sigma) @ z)


@pytest.mark.parametrize(
    "diag",
    [
        np.array([0.7]),
        np.array([3.0, 1.0, 3.0, 0.5, 1.0, 2.0, 0.5]),
        RngStream(21, 0).generator.uniform(0.05, 1.0, 50),
    ],
    ids=["p1", "p7-ties", "p50"],
)
def test_diagonal_sigma_as_vector_matches_matrix(diag):
    # A diagonal Sigma gives the same bytes as its (p,) vector or as a matrix.
    p, q, n = diag.size, 3, 60
    gen = RngStream(22, p).generator
    mu, loading, l = gen.uniform(-1, 1, p), gen.uniform(0, 1, (p, q)), gen.uniform(-1, 1, p)
    vec, mat = (
        ModelSpec(mu=mu, sigma=sigma, b=loading, nu=TruncatedNormalAbs(np.eye(q) + 0.5))
        for sigma in (diag, np.diag(diag))
    )
    cache_vec, cache_mat = QuadraticCache(vec, l), QuadraticCache(mat, l)
    nus = sample_nu(vec.nu, RngStream(23, 0), 100)
    for form in ("cov_forms", "precision_forms"):
        for got, want in zip(getattr(cache_vec, form)(nus), getattr(cache_mat, form)(nus)):
            np.testing.assert_array_equal(got, want)
    for sampler in (sample_cov_product, sample_precision_product):
        np.testing.assert_array_equal(
            sampler(cache_vec, n, RngStream(24, 0), 500)[0],
            sampler(cache_mat, n, RngStream(24, 0), 500)[0],
        )
    x = sample_data_matrix(vec, 5, RngStream(25, 0), 3)[0]
    np.testing.assert_array_equal(x, sample_data_matrix(mat, 5, RngStream(25, 0), 3)[0])
    assert log_density(build_workspace(vec, 5), x[0]) == log_density(
        build_workspace(mat, 5), x[0]
    )


def test_sample_data_matrix_block_draw_order():
    # All shifts first, then one (size, p, n) block of normals.
    model, _ = dense_test_model(4, 2, seed=14, family="gal")
    x, nus = sample_data_matrix(model, 6, RngStream(8, 0), 3)
    rng = RngStream(8, 0)
    np.testing.assert_array_equal(nus, sample_nu(model.nu, rng, 3))
    z = rng.generator.standard_normal((3, 4, 6))
    shifted = (model.mu + nus @ model.b.T)[:, :, None]
    np.testing.assert_allclose(x, shifted + _root(model.sigma) @ z, rtol=0, atol=1e-12)


def test_sample_data_matrix_requires_two_columns():
    model, _ = dense_test_model(2, 1, seed=10)
    with pytest.raises(InvalidInputError):
        sample_data_matrix(model, 1, RngStream(1, 0), 1)


def test_sample_mean_and_cov_hand_values():
    moments = sample_mean_and_cov(np.array([[1.0, 3.0]]))
    assert moments.xbar[0] == pytest.approx(2.0)
    assert moments.s_matrix[0, 0] == pytest.approx(2.0)


def test_sample_mean_and_cov_degenerate():
    x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    moments = sample_mean_and_cov(x)
    np.testing.assert_array_equal(moments.s_matrix, np.zeros((2, 2)))


@pytest.mark.parametrize("p, n", [(1, 2), (4, 20), (15, 10)])
def test_sample_mean_and_cov_stack_matches_each_matrix(p, n):
    # (15, 10) is the singular case p > n - 1.
    x = RngStream(9, p).generator.standard_normal((6, p, n)) + np.arange(p)[:, None]
    stacked = sample_mean_and_cov(x)
    assert stacked.xbar.shape == (6, p) and stacked.s_matrix.shape == (6, p, p)
    for k in range(6):
        one = sample_mean_and_cov(x[k])
        np.testing.assert_allclose(stacked.xbar[k], one.xbar, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked.s_matrix[k], one.s_matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            one.s_matrix, np.atleast_2d(np.cov(x[k])), rtol=0, atol=1e-12
        )


def test_sample_mean_and_cov_errors():
    with pytest.raises(InvalidInputError):
        sample_mean_and_cov(np.ones((3, 1)))


def test_wishart_mean_small():
    # (n-1) E[S] = (n-1) Sigma; averaged over replicates.
    model, _ = dense_test_model(4, 2, seed=11)
    p, n, reps = 4, 20, 4000
    x, _ = sample_data_matrix(model, n, RngStream(4, 0), reps)
    acc = sample_mean_and_cov(x).s_matrix.mean(axis=0)
    rel = np.linalg.norm(acc - model.sigma) / np.linalg.norm(model.sigma)
    assert rel < 0.03


@pytest.mark.parametrize("field", ["mu", "sigma", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite(field, bad):
    parts = {"mu": np.zeros(2), "sigma": np.eye(2), "b": np.ones((2, 1))}
    parts[field] = parts[field].copy()
    parts[field].flat[0] = bad
    with pytest.raises(InvalidInputError):
        ModelSpec(**parts, nu=Degenerate(np.zeros(1)))
