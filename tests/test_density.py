from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from locmix import density
from locmix import (
    Degenerate,
    ModelSpec,
    RngStream,
    TruncatedNormalAbs,
    build_workspace,
    generate_paper_model,
    log_density,
    mvn_orthant_cdf,
    sample_data_matrix,
)
from locmix.errors import (
    AccuracyNotMetError,
    InvalidInputError,
    NotPositiveDefiniteError,
    RegimeError,
)
from locmix.verify import (
    TINY_MODEL,
    collapse_check,
    dense_test_model,
    determinant_identity_check,
    log_density_mixture_quad,
    mixture_agreement_check,
    normalization_check,
)


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
    with pytest.raises(RegimeError):
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
    with pytest.raises(InvalidInputError):
        log_density(ws, np.zeros((1, 3)))


@pytest.mark.parametrize("loading", [0.0, 0.7])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_density_rejects_non_finite_data(loading, bad):
    # A zero loading returns before the orthant step, so the data are read first.
    ws = build_workspace(replace(TINY_MODEL, b=np.array([[loading]])), 2)
    with pytest.raises(InvalidInputError, match="data must be finite"):
        log_density(ws, np.array([[0.5, bad]]))


def test_quadrature_fallback_limits(tiny_tn_model):
    with pytest.raises(RegimeError):
        model, _ = dense_test_model(2, 2, seed=1)
        log_density_mixture_quad(model, np.zeros((2, 2)))


def test_orthant_q1_exact():
    assert mvn_orthant_cdf(np.zeros(1), np.array([[3.7]])) == 0.5
    # Nonzero mean: P(Z <= 0) = Phi(-mean/sd).
    from scipy.special import ndtr

    val = mvn_orthant_cdf(np.array([1.0]), np.array([[4.0]]))
    assert val == pytest.approx(float(ndtr(-0.5)), abs=1e-15)


def test_orthant_q2_values():
    rng = RngStream(40, 0)
    assert mvn_orthant_cdf(np.zeros(2), np.eye(2), rng=rng) == pytest.approx(
        0.25, abs=1e-4
    )
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    target = 0.25 + np.arcsin(0.5) / (2 * np.pi)
    assert mvn_orthant_cdf(np.zeros(2), cov, rng=rng) == pytest.approx(
        target, abs=1e-4
    )


def test_orthant_q3_against_independence():
    # Diagonal case factorizes exactly.
    cov = np.diag([1.0, 2.0, 0.5])
    mean = np.array([0.3, -0.4, 0.1])
    from scipy.special import ndtr

    target = float(np.prod(ndtr(-mean / np.sqrt(np.diag(cov)))))
    val = mvn_orthant_cdf(mean, cov, rng=RngStream(41, 0))
    assert val == pytest.approx(target, abs=1e-15)


@pytest.mark.parametrize("q", range(1, 11))
def test_orthant_identity_is_exact(q):
    assert mvn_orthant_cdf(np.zeros(q), np.eye(q)) == 0.5**q


def test_orthant_diagonal_draws_nothing():
    rng = RngStream(44, 0)
    state = rng.generator.bit_generator.state
    mvn_orthant_cdf(np.array([0.2, -1.0, 0.5]), np.diag([1.0, 3.0, 0.2]), rng=rng)
    assert rng.generator.bit_generator.state == state


@pytest.fixture
def no_sobol(monkeypatch):
    """Fail the test if it runs any QMC: the point memo is emptied, so every
    point set would need a new Sobol engine, and building one fails."""
    from scipy.stats import qmc

    def refuse(*args, **kwargs):
        raise AssertionError("a Sobol engine was built")

    density._memo_sobol_points.cache_clear()
    monkeypatch.setattr(qmc, "Sobol", refuse)


def test_identity_omega_needs_no_sobol(no_sobol):
    model = ModelSpec(
        mu=np.zeros(3), sigma=np.eye(3), b=np.zeros((3, 4)), nu=TruncatedNormalAbs(np.eye(4))
    )
    ws = build_workspace(model, 2)
    assert ws.log_c == 4 * np.log(0.5)
    value = log_density(ws, np.ones((3, 2)))
    assert value == pytest.approx(-0.5 * (6 * np.log(2 * np.pi) + 6.0), abs=1e-12)


def test_orthant_validates_inputs():
    with pytest.raises(InvalidInputError):
        mvn_orthant_cdf(np.zeros(2), np.eye(3))
    with pytest.raises(InvalidInputError):
        mvn_orthant_cdf(np.zeros(0), np.eye(0))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_orthant_non_positive_variance(q, bad):
    cov = np.eye(q)
    cov[-1, -1] = bad
    with pytest.raises(NotPositiveDefiniteError):
        mvn_orthant_cdf(np.zeros(q), cov)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("where", ["mean", "cov"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_orthant_non_finite_input(no_sobol, q, where, bad):
    mean = np.zeros(q)
    cov = np.full((q, q), 0.5) + 0.5 * np.eye(q)
    (mean if where == "mean" else cov)[0] = bad
    with pytest.raises(InvalidInputError):
        mvn_orthant_cdf(mean, cov)


def test_orthant_accepts_one_round_budget(monkeypatch):
    monkeypatch.setattr(density, "_MAX_POINTS", 8 << 7)
    monkeypatch.setattr(density, "_ORTHANT_SE", 1e-2)
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    target = 0.25 + np.arcsin(0.5) / (2 * np.pi)
    assert mvn_orthant_cdf(np.zeros(2), cov) == pytest.approx(target, abs=1e-3)


def _per_batch_orthant(mean, cov, accuracy, rng=None):
    """The orthant QMC as one Sobol engine and one integrand call per batch."""
    from scipy.stats import qmc

    q = len(mean)
    chol, upper = density._ordered_cholesky(cov, -mean)
    seed_rng = rng if rng is not None else RngStream(0x0A7B, 0)
    log2_m = 7
    while True:
        seeds = seed_rng.generator.integers(0, 2**63 - 1, size=8)
        batch_means = np.empty(8)
        for j in range(8):
            engine = qmc.Sobol(d=q - 1, scramble=True, seed=int(seeds[j]))
            u = engine.random_base2(log2_m)
            batch_means[j] = float(np.mean(density._sov_integrand(chol, upper, u)))
        se = float(np.std(batch_means, ddof=1) / np.sqrt(8))
        if se <= accuracy:
            return min(max(float(np.mean(batch_means)), 0.0), 1.0)
        log2_m += 1


def _correlated(q, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((q, q))
    return gen.uniform(-1.0, 1.0, q), a @ a.T / q + 0.2 * np.eye(q)


@pytest.mark.parametrize("q", [2, 5, 10])
@pytest.mark.parametrize("stream", [None, 41])
def test_orthant_memo_matches_per_batch_engines(monkeypatch, q, stream):
    # At 1e-7 every q runs past the memoized rounds into rounds whose
    # batches are split over several integrand passes.
    monkeypatch.setattr(density, "_ORTHANT_SE", 1e-7)
    mean, cov = _correlated(q, q)
    make = (lambda: None) if stream is None else (lambda: RngStream(stream, 0))
    expected = _per_batch_orthant(mean, cov, 1e-7, make())
    density._memo_sobol_points.cache_clear()
    cold = mvn_orthant_cdf(mean, cov, rng=make())
    assert density._memo_sobol_points.cache_info().currsize > 0
    warm = mvn_orthant_cdf(mean, cov, rng=make())
    assert cold == expected and warm == expected


def test_memoized_points_are_read_only():
    u = density._sobol_points(3, 12345, 7)
    assert u.shape == (128, 3) and not u.flags.writeable
    assert density._sobol_points(3, 12345, 7) is u


def test_log_density_threads_share_the_memo():
    model = ModelSpec(
        mu=np.zeros(3),
        sigma=np.diag([1.0, 0.5, 2.0]),
        b=np.array([[1.0, 0.4, 0.0], [0.2, 0.9, 0.3], [0.5, 0.1, 0.8]]),
        nu=TruncatedNormalAbs(np.eye(3)),
    )
    ws = build_workspace(model, 4)
    zs = [sample_data_matrix(model, 4, RngStream(7, k), 1)[0][0] for k in range(6)]
    serial = [log_density(ws, z) for z in zs]
    density._memo_sobol_points.cache_clear()
    with ThreadPoolExecutor(4) as pool:
        runs = list(pool.map(lambda _: [log_density(ws, z) for z in zs], range(4)))
    assert runs == [serial] * 4


def test_orthant_memo_skips_large_rounds(monkeypatch):
    # q = 6 through rounds 2^7 .. 2^12 per batch: only the rounds of at
    # most _MEMO_MAX_VALUES values are memoized.
    monkeypatch.setattr(density, "_MAX_POINTS", 8 << 12)
    monkeypatch.setattr(density, "_ORTHANT_SE", 1e-12)
    mean, cov = _correlated(6, 3)
    density._memo_sobol_points.cache_clear()
    with pytest.raises(AccuracyNotMetError):
        mvn_orthant_cdf(mean, cov)
    small = [k for k in range(7, 13) if 5 << k <= density._MEMO_MAX_VALUES]
    assert 0 < len(small) < 6
    assert density._memo_sobol_points.cache_info().currsize == 8 * len(small)


def test_orthant_accuracy_not_met(monkeypatch):
    monkeypatch.setattr(density, "_MAX_POINTS", 4096)
    monkeypatch.setattr(density, "_ORTHANT_SE", 1e-9)
    gen = np.random.default_rng(9)
    a = gen.standard_normal((6, 6))
    cov = a @ a.T + 0.05 * np.eye(6)
    mean = gen.uniform(-1, 1, 6)
    with pytest.raises(AccuracyNotMetError) as err:
        mvn_orthant_cdf(mean, cov, rng=RngStream(42, 0))
    assert err.value.achieved > 0


def test_log_density_deterministic_with_stream():
    # A correlated D (q = 2, nonzero b) runs QMC on the fixed default stream.
    model = ModelSpec(
        mu=np.zeros(2),
        sigma=np.diag([1.0, 0.5]),
        b=np.array([[1.0, 0.4], [0.2, 0.9]]),
        nu=TruncatedNormalAbs(np.eye(2)),
    )
    ws = build_workspace(model, 3)
    assert np.any(ws.d_matrix - np.diag(np.diag(ws.d_matrix)))
    z = np.array([[0.5, 1.25, -0.3], [0.1, 0.7, 1.1]])
    assert log_density(ws, z) == log_density(ws, z)


def _mpmath_reference(model, z):
    """Log density with its quadratic form, log|F|, nuhat and D at 50 digits.

    Written for a ``(p,)`` diagonal Sigma and Omega = I as the plain Woodbury
    formula ``quad = sum_j m_j'Sigma^{-1}m_j - g'Dg``, whose cancellation
    50 digits absorb.  The orthant term comes from ``mvn_orthant_cdf``
    on the rounded ``nuhat`` and ``D``.
    """
    import mpmath as mp

    p, n = z.shape
    q = model.q
    with mp.workdps(50):
        s = [mp.mpf(float(v)) for v in model.sigma]
        m = [[mp.mpf(float(z[i, j])) - mp.mpf(float(model.mu[i])) for j in range(n)]
             for i in range(p)]
        b = mp.matrix(model.b.tolist())
        d_inv = mp.eye(q)
        for k in range(q):
            for l in range(q):
                d_inv[k, l] += n * mp.fsum(b[i, k] * b[i, l] / s[i] for i in range(p))
        d = d_inv**-1
        row_sums = [mp.fsum(row) for row in m]
        g = mp.matrix([mp.fsum(b[i, k] * row_sums[i] / s[i] for i in range(p))
                       for k in range(q)])
        nu_hat = d * g
        quad = mp.fsum(v * v / s[i] for i in range(p) for v in m[i]) - (g.T * nu_hat)[0]
        log_det_f = n * mp.fsum(mp.log(v) for v in s) + mp.log(mp.det(d_inv))
        log_phi = float(-(p * n * mp.log(2 * mp.pi) + log_det_f + quad) / 2)
        d_float = np.array(d.tolist(), dtype=float)
        nu_float = np.array(nu_hat.tolist(), dtype=float).reshape(-1)
    orthant = mvn_orthant_cdf(-nu_float, d_float)
    return log_phi + np.log(orthant) - q * np.log(0.5)


@pytest.mark.parametrize("sigma_min", [1e-6, 1e-8])
def test_log_density_small_sigma_entry_against_mpmath(sigma_min):
    pytest.importorskip("mpmath")
    paper = generate_paper_model(30, TruncatedNormalAbs(np.eye(5)), 0)
    sigma = paper.sigma.copy()
    sigma[0] = sigma_min
    model = ModelSpec(mu=paper.mu, sigma=sigma, b=paper.b, nu=paper.nu)
    z = sample_data_matrix(model, 60, RngStream(1, 0), 1)[0][0]
    value = log_density(build_workspace(model, 60), z)
    assert value == pytest.approx(_mpmath_reference(model, z), abs=1e-6)
