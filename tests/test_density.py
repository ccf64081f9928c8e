import numpy as np
import pytest

from locmix import (
    Degenerate,
    ModelSpec,
    RngStream,
    TruncatedNormalAbs,
    build_workspace,
    log_density,
    log_density_mixture_quad,
    mvn_orthant_cdf,
)
from locmix.errors import (
    AccuracyNotMetError,
    InvalidDimensionError,
    InvalidInputError,
    UnsupportedMixingError,
)
from locmix.verify import (
    collapse_check,
    determinant_identity_check,
    mixture_agreement_check,
    normalization_check,
)

from conftest import make_dense_model


def test_workspace_b_zero_gives_omega():
    omega = np.array([[2.0, 0.3], [0.3, 1.0]])
    model = ModelSpec(
        mu=np.zeros(3),
        sigma=np.eye(3),
        b=np.zeros((3, 2)),
        nu=TruncatedNormalAbs(omega),
    )
    ws = build_workspace(model, 4)
    np.testing.assert_allclose(ws.d_matrix, omega, atol=1e-12)


def test_workspace_scalar_shift():
    # q = 1: D = 1 / (n b'Sigma^{-1} b + 1/omega).
    model = ModelSpec(
        mu=np.zeros(2),
        sigma=np.diag([2.0, 4.0]),
        b=np.array([[1.0], [2.0]]),
        nu=TruncatedNormalAbs(np.array([[1.5]])),
    )
    n = 3
    ws = build_workspace(model, n)
    expected = 1.0 / (n * (1.0 / 2.0 + 4.0 / 4.0) + 1.0 / 1.5)
    assert ws.d_matrix[0, 0] == pytest.approx(expected, rel=1e-13)


def test_workspace_rejects_other_mixing():
    model = ModelSpec(
        mu=np.zeros(2), sigma=np.eye(2), b=np.zeros((2, 1)), nu=Degenerate(np.zeros(1))
    )
    with pytest.raises(UnsupportedMixingError):
        build_workspace(model, 3)


def test_determinant_identity_dense_oracle():
    assert determinant_identity_check(2, 3, 2, seed=71).passed
    assert determinant_identity_check(3, 2, 1, seed=72).passed


def test_collapse_to_matrix_normal():
    assert collapse_check(seed=5).passed


def test_density_normalization():
    result = normalization_check(seed=0)
    assert result.passed, result


def test_density_matches_mixture_quadrature():
    result = mixture_agreement_check(seed=0)
    assert result.passed, result


def test_log_density_dimension_mismatch(tiny_tn_model):
    ws = build_workspace(tiny_tn_model, 2)
    with pytest.raises(InvalidDimensionError):
        log_density(ws, tiny_tn_model, np.zeros((1, 3)))


def test_quadrature_fallback_limits(tiny_tn_model):
    with pytest.raises(UnsupportedMixingError):
        model, _ = make_dense_model(2, 2, seed=1)
        log_density_mixture_quad(model, 2, np.zeros((2, 2)))


def test_orthant_q1_exact():
    assert mvn_orthant_cdf(np.zeros(1), np.array([[3.7]]), 1e-4) == 0.5
    # Nonzero mean: P(Z <= 0) = Phi(-mean/sd).
    from scipy.special import ndtr

    val = mvn_orthant_cdf(np.array([1.0]), np.array([[4.0]]), 1e-4)
    assert val == pytest.approx(float(ndtr(-0.5)), abs=1e-15)


def test_orthant_q2_values():
    rng = RngStream(40, 0)
    assert mvn_orthant_cdf(np.zeros(2), np.eye(2), 1e-5, rng=rng) == pytest.approx(
        0.25, abs=1e-4
    )
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    target = 0.25 + np.arcsin(0.5) / (2 * np.pi)
    assert mvn_orthant_cdf(np.zeros(2), cov, 1e-5, rng=rng) == pytest.approx(
        target, abs=1e-4
    )


def test_orthant_q3_against_independence():
    # Diagonal case factorizes exactly.
    cov = np.diag([1.0, 2.0, 0.5])
    mean = np.array([0.3, -0.4, 0.1])
    from scipy.special import ndtr

    target = float(np.prod(ndtr(-mean / np.sqrt(np.diag(cov)))))
    val = mvn_orthant_cdf(mean, cov, 1e-5, rng=RngStream(41, 0))
    assert val == pytest.approx(target, abs=3e-5)


def test_orthant_validates_inputs():
    with pytest.raises(InvalidInputError):
        mvn_orthant_cdf(np.zeros(2), np.eye(2), 0.05)
    with pytest.raises(InvalidDimensionError):
        mvn_orthant_cdf(np.zeros(2), np.eye(3), 1e-3)


def test_orthant_accuracy_not_met():
    gen = np.random.default_rng(9)
    a = gen.standard_normal((6, 6))
    cov = a @ a.T + 0.05 * np.eye(6)
    mean = gen.uniform(-1, 1, 6)
    with pytest.raises(AccuracyNotMetError) as err:
        mvn_orthant_cdf(mean, cov, 1e-9, rng=RngStream(42, 0), max_points=4096)
    assert err.value.achieved > 0


def test_log_density_deterministic_with_stream(tiny_tn_model):
    ws = build_workspace(tiny_tn_model, 2)
    z = np.array([[0.5, 1.25]])
    a = log_density(ws, tiny_tn_model, z, rng=RngStream(43, 0))
    b = log_density(ws, tiny_tn_model, z, rng=RngStream(43, 0))
    assert a == b
