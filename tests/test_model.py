import numpy as np
import pytest

from locmix import (
    Degenerate,
    ModelSpec,
    RngStream,
    decompose_sigma,
    sample_data_matrix,
    sample_mean_and_cov,
    verify_assumptions,
)
from locmix.distributions import nu_mean
from locmix.errors import (
    InvalidDimensionError,
    InvalidInputError,
    NotPositiveDefiniteError,
)

from conftest import make_dense_model


def test_decompose_identity():
    dec = decompose_sigma(np.eye(4))
    np.testing.assert_array_equal(dec.eigenvalues, np.ones(4))
    np.testing.assert_allclose(
        dec.sqrt_factor @ dec.sqrt_factor.T, np.eye(4), atol=1e-14
    )


def test_decompose_diagonal_orders_ascending():
    dec = decompose_sigma(np.diag([4.0, 1.0]))
    np.testing.assert_array_equal(dec.eigenvalues, [1.0, 4.0])
    # Eigenvectors are the coordinate axes up to permutation.
    assert set(map(tuple, np.abs(dec.eigenvectors.T).tolist())) == {
        (1.0, 0.0),
        (0.0, 1.0),
    }


def test_decompose_reconstruction_random_spd():
    gen = np.random.default_rng(5)
    a = gen.standard_normal((6, 6))
    sigma = a @ a.T + np.eye(6)
    dec = decompose_sigma(sigma)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    rel = np.linalg.norm(recon - sigma) / np.linalg.norm(sigma)
    assert rel <= 1e-10
    rel_sqrt = np.linalg.norm(dec.sqrt_factor @ dec.sqrt_factor.T - sigma) / np.linalg.norm(sigma)
    assert rel_sqrt <= 1e-10


def test_decompose_rejects_non_positive_definite():
    with pytest.raises(NotPositiveDefiniteError) as err:
        decompose_sigma(np.diag([1.0, -0.5]))
    assert err.value.lambda_min == pytest.approx(-0.5)


def test_decompose_rejects_asymmetric():
    with pytest.raises(InvalidInputError):
        decompose_sigma(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_verify_assumptions_diagonal_case():
    model = ModelSpec(
        mu=np.array([0.5, -0.2]),
        sigma=np.diag([1.0, 4.0]),
        b=np.zeros((2, 1)),
        nu=Degenerate(np.zeros(1)),
    )
    report = verify_assumptions(model, np.ones(2))
    assert report.max_abs_u_mu == pytest.approx(0.5)
    assert report.max_abs_u_b == 0.0
    assert report.max_abs_u_l == pytest.approx(1.0)
    assert report.lambda_min == pytest.approx(1.0)
    assert report.lambda_max == pytest.approx(4.0)


def test_verify_assumptions_dimension_mismatch():
    model = ModelSpec(
        mu=np.zeros(2), sigma=np.eye(2), b=np.zeros((2, 1)), nu=Degenerate(np.zeros(1))
    )
    with pytest.raises(InvalidDimensionError):
        verify_assumptions(model, np.ones(3))


def test_model_spec_validation():
    with pytest.raises(InvalidDimensionError):
        ModelSpec(
            mu=np.zeros(2),
            sigma=np.eye(3),
            b=np.zeros((2, 1)),
            nu=Degenerate(np.zeros(1)),
        )
    with pytest.raises(InvalidDimensionError):
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
    x, _ = sample_data_matrix(model, 50, RngStream(1, 0))
    assert np.max(np.abs(x - model.mu[:, None])) < 1e-4


def test_sample_data_matrix_column_mean():
    model, _ = make_dense_model(2, 2, seed=9)
    x, _ = sample_data_matrix(model, 100_000, RngStream(2, 0))
    target = model.mu + model.b @ nu_mean(model.nu)
    # One shared shift draw: compare against mu + B nu for the drawn nu.
    assert x.shape == (2, 100_000)
    # Residual mean around the realized shifted mean vanishes as n grows.
    x2, nu_val = sample_data_matrix(model, 200_000, RngStream(2, 1))
    resid = x2.mean(axis=1) - (model.mu + model.b @ nu_val)
    assert np.max(np.abs(resid)) < 0.02
    # And across independent matrices the column mean approaches mu + B E[nu].
    means = np.array(
        [
            sample_data_matrix(model, 100, RngStream(3, i))[0].mean(axis=1)
            for i in range(2000)
        ]
    )
    assert np.max(np.abs(means.mean(axis=0) - target)) < 0.05


def test_sample_data_matrix_requires_two_columns():
    model, _ = make_dense_model(2, 1, seed=10)
    with pytest.raises(InvalidDimensionError):
        sample_data_matrix(model, 1, RngStream(1, 0))


def test_sample_mean_and_cov_hand_values():
    moments = sample_mean_and_cov(np.array([[1.0, 3.0]]))
    assert moments.xbar[0] == pytest.approx(2.0)
    assert moments.s_matrix[0, 0] == pytest.approx(2.0)


def test_sample_mean_and_cov_degenerate():
    x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
    moments = sample_mean_and_cov(x)
    np.testing.assert_array_equal(moments.s_matrix, np.zeros((2, 2)))


def test_sample_mean_and_cov_errors():
    with pytest.raises(InvalidDimensionError):
        sample_mean_and_cov(np.ones((3, 1)))


def test_wishart_mean_small():
    # (n-1) E[S] = (n-1) Sigma; averaged over replicates.
    model, _ = make_dense_model(4, 2, seed=11)
    p, n, reps = 4, 20, 4000
    acc = np.zeros((p, p))
    for i in range(reps):
        x, _ = sample_data_matrix(model, n, RngStream(4, i))
        acc += sample_mean_and_cov(x).s_matrix
    acc /= reps
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
