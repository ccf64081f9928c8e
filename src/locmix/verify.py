"""Statistical verification suites: oracle agreement, moments, variances, density.

Each check compares an implementation path against an independent route
(brute-force matrix simulation, closed-form moments, dense linear
algebra, quadrature) and reports its tolerance, the observed value, and
a verdict.  The suites back both the ``locmix verify`` command and the
acceptance test module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.integrate import quad
from scipy.stats import ks_2samp

from .asymptotics import limit_moments
from .density import _LOG_2PI, build_workspace, log_density, mvn_orthant_cdf
from .distributions import (
    Degenerate,
    GeneralizedAsymmetricLaplace,
    TruncatedNormalAbs,
    nu_mean,
    sample_chi_squared,
    sample_noncentral_chi_squared,
    sample_noncentral_f,
    sample_nu,
)
from .errors import InvalidInputError, RegimeError
from .harness import default_nu, draw_blocks, generate_paper_model, product_sampler
from .model import ModelSpec, SampleMoments, sample_data_matrix, sample_mean_and_cov
from .products import ProductKind, QuadraticCache
from .rng import RngStream

# Check k on the verify seed draws its blocks on streams k * _STRIDE on;
# every other master seed (seed + offset) belongs to one check or one
# model.  So no two checks, and no two oracle models, share a
# (master_seed, stream) pair, and distinct pairs are independent (NEP 19).
_STRIDE = 1_000_000

# The (p, n, q) = (1, 2, 1) half-normal model of the density checks.
TINY_MODEL = ModelSpec(
    mu=np.array([0.3]),
    sigma=np.array([[0.8]]),
    b=np.array([[0.7]]),
    nu=TruncatedNormalAbs(np.array([[1.5]])),
)


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    tolerance: float
    observed: float
    passed: bool
    detail: str = ""


def _check(name: str, observed: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        tolerance=float(tolerance),
        observed=float(observed),
        passed=bool(observed <= tolerance),
        detail=detail,
    )


def _rel_err(
    name: str, estimate: float | NDArray, target: float, tolerance: float, detail: str = ""
) -> CheckResult:
    """Largest relative error of a scalar or componentwise ``estimate`` of ``target``."""
    worst = float(np.max(np.abs(np.subtract(estimate, target))))
    return _check(name, worst / abs(target), tolerance, detail)


def _ks_check(name: str, a: NDArray, b: NDArray, bound: float, detail: str = "") -> CheckResult:
    """Two-sample KS distance between the draws ``a`` and ``b``."""
    return _check(name, ks_2samp(a, b).statistic, bound, detail)


def _se_check(
    name: str, mean: ArrayLike, target: ArrayLike, se: ArrayLike, detail: str = ""
) -> CheckResult:
    """Largest ``|mean - target|`` of a scalar or componentwise mean, in units of 3 ``se``."""
    worst = np.max(np.abs(np.subtract(mean, target)) / np.multiply(3.0, se))
    return _check(f"{name} (units of 3 se)", worst, 1.0, detail)


def dense_test_model(
    p: int, q: int, seed: int, family: str = "tn"
) -> tuple[ModelSpec, NDArray]:
    """Well-conditioned random dense model and weight vector for oracles and tests."""
    gen = RngStream(seed, 0).generator
    a = gen.standard_normal((p, p))
    sigma = a @ a.T / p + np.eye(p)
    mu = gen.uniform(-1.0, 1.0, p)
    b = gen.uniform(0.0, 1.0, (p, q))
    l = gen.uniform(-1.0, 1.0, p)
    if not np.any(l):
        l[0] = 1.0
    return ModelSpec(mu=mu, sigma=sigma, b=b, nu=default_nu(family, q)), l


def _oracle_products(m: SampleMoments, l: NDArray, kind: ProductKind) -> NDArray:
    """``l'S xbar`` or ``l'S^{-1} xbar`` of every matrix; each ``S`` is solved on its own."""
    if kind is ProductKind.PRECISION_TIMES_MEAN:
        return np.linalg.solve(m.s_matrix, m.xbar[..., None])[..., 0] @ l
    return np.einsum("kij,kj->ki", m.s_matrix, m.xbar) @ l


def oracle_product_draws(
    model: ModelSpec, l: NDArray, n: int, master_seed: int, count: int, kind: ProductKind
) -> NDArray:
    """Brute force: simulate full matrices and form the products directly.

    Matrices come in blocks from stream 0 of ``master_seed`` on; every S
    is formed and, for the precision product, solved on its own.
    """
    x, _ = draw_blocks(count, master_seed, 0, sample_data_matrix, model, n)
    return _oracle_products(sample_mean_and_cov(x), l, kind)


# Draws per side of the representation-vs-oracle KS checks, and their
# bound: the two-sample 1 percent critical value plus a margin.
_ORACLE_DRAWS = 5000
_ORACLE_KS = 0.04


def _oracle_ks_check(
    name: str, detail: str, model: ModelSpec, l: NDArray, n: int, kind: ProductKind,
    rep_seed: int, rep_stream: int, oracle: NDArray,
) -> CheckResult:
    """Two-sample KS between a product's representation draws and the ``oracle`` draws.

    The representation draws come in blocks from stream ``rep_stream`` of
    ``rep_seed`` on.
    """
    sampler = product_sampler(kind)
    rep = draw_blocks(_ORACLE_DRAWS, rep_seed, rep_stream, sampler, QuadraticCache(model, l), n)[0]
    return _ks_check(name, rep, oracle, _ORACLE_KS, detail)


def representation_vs_oracle(seed: int) -> list[CheckResult]:
    """Two-sample KS between representation samplers and the matrix oracle.

    Covers all (p, n, q) combinations, both products and both mixing
    families, at the two-sample KS bound (1 percent critical plus margin).
    """
    results = []
    shapes = [(pnq, f) for pnq in [(3, 12, 1), (5, 20, 2), (8, 25, 3)] for f in ("tn", "gal")]
    for j, ((p, n, q), family) in enumerate(shapes):
        model, l = dense_test_model(p, q, seed + 40 + j, family)
        x, _ = draw_blocks(_ORACLE_DRAWS, seed + 7919 + j, 0, sample_data_matrix, model, n)
        moments = sample_mean_and_cov(x)
        for i, kind in enumerate(ProductKind):
            results.append(
                _oracle_ks_check(
                    f"representation-vs-oracle {kind.value} p={p} n={n} q={q} nu={family}",
                    f"two-sample KS at N={_ORACLE_DRAWS} per side",
                    model, l, n, kind, seed, (20 + 2 * j + i) * _STRIDE,
                    _oracle_products(moments, l, kind),
                )
            )
    return results


def singular_regime_vs_oracle(seed: int) -> list[CheckResult]:
    """Covariance product in the rank-deficient regime p > n - 1."""
    p, n, q = 15, 10, 2
    cov = ProductKind.COV_TIMES_MEAN
    results = []
    for k, family in enumerate(("tn", "gal")):
        model, l = dense_test_model(p, q, seed + 31 + k, family)
        oracle = oracle_product_draws(model, l, n, seed + 104729 + k, _ORACLE_DRAWS, cov)
        name = f"singular-regime cov p={p} n={n} nu={family}"
        detail = "S has rank n-1 < p; representation must still match"
        stream = k * _STRIDE
        results.append(_oracle_ks_check(name, detail, model, l, n, cov, seed + 1, stream, oracle))
    return results


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    return representation_vs_oracle(seed) + singular_regime_vs_oracle(seed)


def _moment_checks(seed: int) -> list[CheckResult]:
    results = []
    n_big = 100_000

    draws = RngStream(seed, 1 * _STRIDE).generator.standard_normal(n_big)
    results.append(_check("std-normal mean (dim=1)", abs(draws.mean()), 0.02))

    draws = sample_chi_squared(100, RngStream(seed, 2 * _STRIDE), n_big)
    results.append(_rel_err("chi2(100) mean rel err", draws.mean(), 100, 0.01))
    results.append(_rel_err("chi2(100) variance rel err", draws.var(ddof=1), 200, 0.05))

    draws = sample_noncentral_chi_squared(50, 25.0, RngStream(seed, 3 * _STRIDE), n_big)
    results.append(_rel_err("noncentral chi2(50, 25) mean rel err", draws.mean(), 75, 0.01))

    # At 20 000 per side the 1% critical value of D is 0.0163, under the bound.
    n_ks = 20_000
    nc0 = sample_noncentral_chi_squared(7, 0.0, RngStream(seed, 4 * _STRIDE), n_ks)
    central = sample_chi_squared(7, RngStream(seed, 5 * _STRIDE), n_ks)
    name = "noncentral chi2 lambda=0 reduction (two-sample KS)"
    results.append(_ks_check(name, nc0, central, 0.02))

    draws = sample_noncentral_f(10, 10, 0.0, RngStream(seed, 6 * _STRIDE), n_big)
    results.append(_rel_err("F(10,10) mean rel err", draws.mean(), 1.25, 0.03))
    target = 30 * (5 + 20) / (5 * 28)
    draws = sample_noncentral_f(5, 30, 20.0, RngStream(seed, 7 * _STRIDE), n_big)
    results.append(_rel_err("noncentral F(5,30,20) mean rel err", draws.mean(), target, 0.03))

    q = 4
    tn = TruncatedNormalAbs(np.eye(q))
    draws = sample_nu(tn, RngStream(seed, 8 * _STRIDE), n_big)
    results.append(
        _rel_err(
            "half-normal componentwise mean rel err",
            draws.mean(axis=0),
            math.sqrt(2.0 / math.pi),
            0.02,
        )
    )

    gal = GeneralizedAsymmetricLaplace(np.ones(q), np.eye(q), 10.0)
    draws = sample_nu(gal, RngStream(seed, 9 * _STRIDE), n_big)
    results.append(
        _rel_err("gamma-mixture componentwise mean rel err", draws.mean(axis=0), 10.0, 0.02)
    )
    return results


def wishart_and_independence_checks(seed: int) -> list[CheckResult]:
    """Wishart mean of (n-1)S and independence of S from the mean product."""
    results = []
    p, n, q, reps = 4, 20, 2, 10_000
    model, l = dense_test_model(p, q, seed + 57)
    x, _ = draw_blocks(reps, seed, 10 * _STRIDE, sample_data_matrix, model, n)
    m = sample_mean_and_cov(x)
    s_mean = m.s_matrix.mean(axis=0)
    tr_s = np.trace(m.s_matrix, axis1=1, axis2=2)
    l_s_l = m.s_matrix @ l @ l
    l_xbar = m.xbar @ l
    rel_frob = np.linalg.norm(s_mean - model.sigma) / np.linalg.norm(model.sigma)
    results.append(_check("Wishart mean rel Frobenius (p=4,n=20)", rel_frob, 0.02))
    for label, values in (("tr S", tr_s), ("l'S l", l_s_l)):
        corr = abs(np.corrcoef(values, l_xbar)[0, 1])
        results.append(_check(f"independence |corr({label}, l'xbar)|", corr, 0.05))
    return results


def _sampling_moment_checks(seed: int) -> list[CheckResult]:
    """Mean-vector marginal and mixing-invariance of S in the oracle."""
    results = []
    q = 2
    # Marginal of the mean vector: xbar - B nu ~ N(mu, sigma/n).
    p, n, reps = 4, 50, 10_000
    model, _ = dense_test_model(p, q, seed + 58)
    x, nus = draw_blocks(reps, seed, 11 * _STRIDE, sample_data_matrix, model, n)
    resid = x.mean(axis=2) - nus @ model.b.T
    target_cov = model.sigma / n
    se = np.sqrt(np.diag(target_cov) / reps)
    results.append(
        _se_check("mean-vector marginal: componentwise mean", resid.mean(axis=0), model.mu, se)
    )
    cov_rel = np.linalg.norm(np.cov(resid.T) - target_cov) / np.linalg.norm(target_cov)
    results.append(_check("mean-vector marginal: cov rel Frobenius", cov_rel, 0.05))

    # S does not depend on the mixing law.
    reps = 10_000
    p, n = 4, 20
    model_tn, _ = dense_test_model(p, q, seed + 59)
    model_gal = ModelSpec(
        mu=model_tn.mu, sigma=model_tn.sigma, b=model_tn.b, nu=default_nu("gal", q)
    )
    x_tn, _ = draw_blocks(reps, seed + 2, 12 * _STRIDE, sample_data_matrix, model_tn, n)
    x_gal, _ = draw_blocks(reps, seed + 3, 13 * _STRIDE, sample_data_matrix, model_gal, n)
    tr_tn = np.trace(sample_mean_and_cov(x_tn).s_matrix, axis1=1, axis2=2)
    tr_gal = np.trace(sample_mean_and_cov(x_gal).s_matrix, axis1=1, axis2=2)
    name = "S invariant to mixing law (tr S two-sample KS)"
    results.append(_ks_check(name, tr_tn, tr_gal, 1.63 * math.sqrt(2.0 / reps)))
    return results


def suite_moments(seed: int = 0) -> list[CheckResult]:
    return (
        _moment_checks(seed)
        + wishart_and_independence_checks(seed)
        + _sampling_moment_checks(seed)
    )


def _fixed_shift_variance(
    kind: ProductKind, p: int, n: int, seed: int, shift_seed: int, stream: int
) -> tuple[CheckResult, float, float, float]:
    """Variance of one product's draws at a fixed shift against its limit.

    The model is the study's at ``seed``.  The shift is drawn once from
    stream 0 of ``shift_seed`` and held by a point-mass cache; the
    product's 100 000 draws come in blocks from stream ``stream`` of
    ``seed`` on.  Returns the limit-variance check, the limit centre, and
    the draws' mean and its standard error.
    """
    n_reps = 100_000
    model = generate_paper_model(p, default_nu("tn", 10), seed)
    nu_fix = sample_nu(model.nu, RngStream(shift_seed, 0), 1)[0]
    cache = QuadraticCache(replace(model, nu=Degenerate(nu_fix)), np.ones(p))
    vals = draw_blocks(n_reps, seed, stream, product_sampler(kind), cache, n)[0]
    center, target = limit_moments(cache, p / n, nu_fix, kind)
    observed = np.var(np.sqrt(n) * (vals - center), ddof=1)
    check = _rel_err(
        f"{kind.value} conditional variance rel err (p={p}, n={n})",
        observed,
        target,
        0.05,
        f"sample {observed:.6g} vs formula {target:.6g} at N={n_reps}",
    )
    return check, center, vals.mean(), vals.std(ddof=1) / math.sqrt(n_reps)


def conditional_variance_cov(seed: int) -> list[CheckResult]:
    """Fixed-shift variance (and mean) of the covariance product."""
    check, center, mean, se_mean = _fixed_shift_variance(
        ProductKind.COV_TIMES_MEAN, 200, 2000, seed, seed + 11, 14 * _STRIDE
    )
    return [check, _se_check("cov conditional mean", mean, center, se_mean)]


def conditional_variance_precision(seed: int) -> list[CheckResult]:
    """Fixed-shift variance and centering of the precision product.

    The exact conditional mean is ``(n-1)/(n-p-2) * l'Sigma^{-1}mu_nu``
    (inverse chi-squared moment); the asymptotic centre ``1/(1-c)`` form
    must agree with it to O(1/n) relative error.
    """
    p, n = 100, 1000
    check, center_asym, mean, se_mean = _fixed_shift_variance(
        ProductKind.PRECISION_TIMES_MEAN, p, n, seed + 10, seed + 12, 15 * _STRIDE
    )
    # l'Sigma^{-1}mu_nu recovered from the asymptotic centre a / (1 - c).
    center_exact = (n - 1) / (n - p - 2) * center_asym * (1.0 - p / n)
    return [
        check,
        _se_check(
            "precision centering vs exact mean", mean, center_exact, se_mean,
            "exact conditional mean (n-1)/(n-p-2) * l'Sigma^{-1}mu_nu",
        ),
        _rel_err(
            "precision asymptotic centre rel err vs exact mean",
            center_asym,
            center_exact,
            0.005,
            "1/(1-c) centre agrees with the finite-sample mean to O(1/n)",
        ),
    ]


def variance_form_identity(seed: int) -> CheckResult:
    """The two spellings of the precision limit variance must coincide."""
    n_instances = 1000
    gen = RngStream(seed, 16 * _STRIDE).generator
    worst = 0.0
    for _ in range(n_instances):
        p = int(gen.integers(2, 9))
        a = gen.standard_normal((p, p))
        sigma = a @ a.T / p + np.eye(p)
        mu_v = gen.uniform(-2.0, 2.0, p)
        l = gen.uniform(-1.0, 1.0, p)
        if not np.any(l):
            l[0] = 1.0
        c = float(gen.uniform(0.0, 0.95))
        sigma_inv = np.linalg.inv(sigma)
        av = float(l @ sigma_inv @ mu_v)
        bv = float(l @ sigma_inv @ l)
        mv = float(mu_v @ sigma_inv @ mu_v)
        delta_sq = mv - av * av / bv
        statement = (av * av + bv * (1.0 + mv)) / (1.0 - c) ** 3
        proof = (2.0 * av * av + bv * (1.0 + delta_sq)) / (1.0 - c) ** 3
        worst = max(worst, abs(statement - proof) / abs(statement))
    return _check(
        f"variance form identity over {n_instances} instances (rel)",
        worst,
        1e-12,
    )


def _variance_regularity_checks(seed: int) -> list[CheckResult]:
    """Continuity at c = 0 and monotonicity in c of the limit variances."""
    results = []
    model, l = dense_test_model(6, 2, seed + 61)
    cache = QuadraticCache(model, l)
    nu_val = nu_mean(model.nu)
    cov, precision = ProductKind.COV_TIMES_MEAN, ProductKind.PRECISION_TIMES_MEAN
    _, s0 = limit_moments(cache, 0.0, nu_val, cov)
    _, s_small = limit_moments(cache, 1e-12, nu_val, cov)
    results.append(_rel_err("sigma2 continuity at c=0 (rel)", s_small, s0, 1e-9))
    # Classical fixed-p form, assembled from dense matrices.
    sigma, m_v = model.sigma, model.mu + model.b @ nu_val
    classical = (m_v @ sigma @ m_v) * (l @ sigma @ l) + (l @ sigma @ m_v) ** 2 + (
        l @ sigma @ sigma @ sigma @ l
    )
    results.append(_rel_err("sigma2 at c=0 equals classical form (rel)", classical, s0, 1e-12))
    _, t0 = limit_moments(cache, 0.0, nu_val, precision)
    _, t_small = limit_moments(cache, 1e-12, nu_val, precision)
    results.append(_rel_err("sigma2_tilde continuity at c=0 (rel)", t_small, t0, 1e-9))
    grid = np.linspace(0.0, 0.98, 50)
    tilde = [limit_moments(cache, c, nu_val, precision)[1] for c in grid]
    monotone = all(b > a for a, b in zip(tilde, tilde[1:]))
    results.append(
        _check("sigma2_tilde strictly increasing in c", 0.0 if monotone else 1.0, 0.0)
    )
    return results


def suite_variance(seed: int = 0) -> list[CheckResult]:
    return (
        conditional_variance_cov(seed)
        + conditional_variance_precision(seed)
        + [variance_form_identity(seed)]
        + _variance_regularity_checks(seed)
    )


def determinant_identity_check(p: int, n: int, q: int, seed: int) -> CheckResult:
    """log|F| from the identity versus a dense assembly of F."""
    model, _ = dense_test_model(p, q, seed)
    ws = build_workspace(model, n)
    sigma_inv = np.linalg.inv(model.sigma)
    e_mat = np.kron(np.ones(n)[None, :], model.b.T @ sigma_inv)
    f_inv = np.kron(np.eye(n), sigma_inv) - e_mat.T @ ws.d_matrix @ e_mat
    _, logdet_f = np.linalg.slogdet(np.linalg.inv(f_inv))
    name = f"determinant identity (p={p}, n={n}, q={q}) rel err"
    return _rel_err(name, ws.log_det_f, logdet_f, 1e-8)


def _tiny_density(z1: NDArray, z2: NDArray) -> NDArray:
    """Closed-form density of :data:`TINY_MODEL` at data ``[[z1[i], z2[j]]]``, as entry (i, j)."""
    ws = build_workspace(TINY_MODEL, 2)
    return np.array([[math.exp(log_density(ws, np.array([[a, b]]))) for b in z2] for a in z1])


def normalization_check(seed: int) -> CheckResult:
    """The (1, 2, 1) matrix density integrates to one over a wide grid."""
    mu, sd = float(TINY_MODEL.mu[0]), math.sqrt(float(TINY_MODEL.sigma[0, 0]))
    shift_scale = float(TINY_MODEL.b[0, 0]) * math.sqrt(float(TINY_MODEL.nu.omega[0, 0]))
    lo = mu - 10.0 * sd
    hi = mu + shift_scale * 6.0 + 10.0 * sd
    nodes, weights = np.polynomial.legendre.leggauss(160)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    integral = float(w @ _tiny_density(x, x) @ w)
    return _check("density normalization at (1,2,1)", abs(integral - 1.0), 1e-3)


def _matrix_normal_log_density(sigma: NDArray):
    """``log_pdf(m)`` of a centred ``(p, n)`` matrix with iid N(0, sigma) columns."""
    sigma_inv = np.linalg.inv(sigma)
    _, log_det_sigma = np.linalg.slogdet(sigma)

    def log_pdf(m: NDArray) -> float:
        p, n = m.shape
        quad_form = float(np.sum(m * (sigma_inv @ m)))
        return -0.5 * (p * n * _LOG_2PI + n * log_det_sigma + quad_form)

    return log_pdf


def log_density_mixture_quad(model: ModelSpec, z: NDArray) -> float:
    """Quadrature oracle for the q = 1 half-normal mixture density.

    Integrates the matrix-normal density against the half-normal mixing
    density directly.  Slow and limited to one mixing dimension; intended
    for validating :func:`log_density` at desk scale.
    """
    if not isinstance(model.nu, TruncatedNormalAbs):
        raise RegimeError("quadrature fallback requires half-normal mixing")
    if model.q != 1:
        raise RegimeError("quadrature fallback supports q = 1 only")
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] != model.p:
        raise InvalidInputError("data must be (p, n)")
    omega = float(model.nu.omega[0, 0])
    log_normal = _matrix_normal_log_density(
        model.sigma if model.sigma.ndim == 2 else np.diag(model.sigma)
    )
    b = model.b[:, 0]

    def integrand(v: float) -> float:
        """Matrix-normal density at shift v times the half-normal density of v."""
        normal = np.exp(log_normal(z - (model.mu + b * v)[:, None]))
        return normal * (2.0 / np.sqrt(2.0 * np.pi * omega) * np.exp(-0.5 * v * v / omega))

    return float(np.log(quad(integrand, 0.0, np.inf, limit=400)[0]))


def mixture_agreement_check(seed: int) -> CheckResult:
    """Closed-form density versus direct mixing-integral quadrature."""
    grid = np.linspace(-2.0, 4.0, 7)
    quad_ref = [
        [math.exp(log_density_mixture_quad(TINY_MODEL, np.array([[a, b]]))) for b in grid]
        for a in grid
    ]
    worst = np.max(np.abs(_tiny_density(grid, grid) - quad_ref))
    return _check("density vs mixing-integral quadrature at (1,2,1)", worst, 1e-6)


def _orthant_checks(seed: int) -> list[CheckResult]:
    results = []
    results.append(
        _check(
            "orthant q=1 symmetry",
            abs(mvn_orthant_cdf(np.zeros(1), np.eye(1) * 2.3) - 0.5),
            1e-15,
        )
    )
    rng = RngStream(seed, 17 * _STRIDE)
    results.append(
        _check(
            "orthant q=2 independent",
            abs(mvn_orthant_cdf(np.zeros(2), np.eye(2), rng=rng) - 0.25),
            1e-4,
        )
    )
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    exact = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    results.append(
        _check(
            "orthant q=2 rho=0.5 closed form",
            abs(mvn_orthant_cdf(np.zeros(2), cov, rng=rng) - exact),
            1e-4,
        )
    )
    return results


def collapse_check(seed: int) -> CheckResult:
    """Zero loading reduces the density to the matrix normal."""
    gen = RngStream(seed, 18 * _STRIDE).generator
    p, n, q = 2, 3, 2
    a = gen.standard_normal((p, p))
    sigma = a @ a.T + np.eye(p)
    mu = gen.uniform(-1.0, 1.0, p)
    omega_a = gen.standard_normal((q, q))
    omega = omega_a @ omega_a.T + np.eye(q)
    model = ModelSpec(mu=mu, sigma=sigma, b=np.zeros((p, q)), nu=TruncatedNormalAbs(omega))
    ws = build_workspace(model, n)
    log_normal = _matrix_normal_log_density(sigma)
    worst = 0.0
    for _ in range(5):
        z = gen.standard_normal((p, n)) + mu[:, None]
        worst = max(worst, abs(log_density(ws, z) - log_normal(z - mu[:, None])))
    return _check("zero-loading collapse to matrix normal (abs log diff)", worst, 1e-10)


def _kde_density_consistency(seed: int) -> CheckResult:
    """2-D KDE of oracle draws against the closed-form density at (1,2,1)."""
    n_draws = 100_000
    x, _ = draw_blocks(n_draws, seed, 19 * _STRIDE, sample_data_matrix, TINY_MODEL, 2)
    draws = x[:, 0, :]
    # Pointwise error at density ~0.05 is variance-dominated at this N, so
    # oversmooth relative to the MISE rate; the density is smooth enough
    # that the extra bias stays far below the tolerance.
    h = 2.0 * draws.std(axis=0, ddof=1) * n_draws ** (-1.0 / 6.0)

    def kde2(point: NDArray) -> float:
        u = (point - draws) / h
        inside = (np.abs(u[:, 0]) <= 1) & (np.abs(u[:, 1]) <= 1)
        k = 0.5625 * (1 - u[inside, 0] ** 2) * (1 - u[inside, 1] ** 2)
        return float(k.sum() / (n_draws * h[0] * h[1]))

    grid = np.linspace(0.0, 2.0, 5)
    dens = _tiny_density(grid, grid)
    worst = max(
        abs(kde2(grid[[i, j]]) - dens[i, j]) / dens[i, j] for i, j in np.argwhere(dens > 0.05)
    )
    return _check("sampling vs density (2-D KDE rel err where density > 0.05)", worst, 0.10)


def suite_density(seed: int = 0) -> list[CheckResult]:
    return [
        determinant_identity_check(2, 3, 2, seed + 71),
        determinant_identity_check(3, 2, 1, seed + 72),
        normalization_check(seed),
        mixture_agreement_check(seed),
        *_orthant_checks(seed),
        collapse_check(seed),
        _kde_density_consistency(seed),
    ]


SUITES = {
    "oracle": suite_oracle,
    "moments": suite_moments,
    "variance": suite_variance,
    "density": suite_density,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them."""
    if seed < 0:
        raise InvalidInputError(f"verify seed must be nonnegative (got {seed})")
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    if name not in SUITES:
        raise InvalidInputError(f"unknown suite {name!r}")
    return SUITES[name](seed)
