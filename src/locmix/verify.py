"""Statistical verification suites: oracle agreement, moments, variances, density.

Each check compares an implementation path against an independent route
(brute-force matrix simulation, closed-form moments, dense linear
algebra, quadrature) and reports its tolerance, the observed value, and
a verdict.  The suites back both the ``locmix verify`` command and the
acceptance test module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.stats import ks_2samp

from .asymptotics import asymptotic_params, sigma2_nu, sigma2_tilde_nu
from .density import (
    build_workspace,
    log_density,
    log_density_mixture_quad,
    mvn_orthant_cdf,
)
from .distributions import (
    GeneralizedAsymmetricLaplace,
    TruncatedNormalAbs,
    nu_mean,
    sample_chi_squared,
    sample_noncentral_chi_squared,
    sample_noncentral_f,
    sample_nu,
    sample_std_normal_vec,
)
from .harness import default_nu, generate_paper_model
from .model import ModelSpec, sample_data_matrix, sample_mean_and_cov
from .products import (
    ProductKind,
    precompute_quadratics,
    sample_cov_product,
    sample_precision_product,
)
from .rng import RngStream

# Disjoint stream-index blocks keep every check on independent streams.
_BLOCK = 1_000_000

# The (p, n, q) = (1, 2, 1) half-normal model of the density checks.
_TINY_MODEL = ModelSpec(
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

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tolerance": self.tolerance,
            "observed": self.observed,
            "passed": self.passed,
            "detail": self.detail,
        }


def _check(name: str, observed: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        tolerance=float(tolerance),
        observed=float(observed),
        passed=bool(observed <= tolerance),
        detail=detail,
    )


def _dense_test_model(p: int, q: int, seed: int, family: str) -> tuple[ModelSpec, NDArray]:
    """Well-conditioned random dense model and weight vector for oracles."""
    gen = RngStream(seed, 0).generator
    a = gen.standard_normal((p, p))
    sigma = a @ a.T / p + np.eye(p)
    mu = gen.uniform(-1.0, 1.0, p)
    b = gen.uniform(0.0, 1.0, (p, q))
    l = gen.uniform(-1.0, 1.0, p)
    if not np.any(l):
        l[0] = 1.0
    return ModelSpec(mu=mu, sigma=sigma, b=b, nu=default_nu(family, q)), l


def _oracle_product_draws(
    model: ModelSpec, l: NDArray, n: int, master_seed: int, count: int, precision: bool
) -> NDArray:
    """Brute force: simulate the full matrix and form the product directly."""
    out = np.empty(count)
    for i in range(count):
        x, _ = sample_data_matrix(model, n, RngStream(master_seed, i))
        moments = sample_mean_and_cov(x)
        if precision:
            out[i] = l @ np.linalg.solve(moments.s_matrix, moments.xbar)
        else:
            out[i] = l @ moments.s_matrix @ moments.xbar
    return out


def representation_vs_oracle(
    seed: int, n_draws: int = 5000, tolerance: float = 0.04
) -> list[CheckResult]:
    """Two-sample KS between representation samplers and the matrix oracle.

    Covers all (p, n, q) combinations, both products and both mixing
    families, at the two-sample KS bound (1 percent critical plus margin).
    """
    results = []
    block = 0
    for p, n, q in [(3, 12, 1), (5, 20, 2), (8, 25, 3)]:
        for family in ("tn", "gal"):
            model, l = _dense_test_model(p, q, seed + block, family)
            cache = precompute_quadratics(model, l)
            for product, sampler in (
                ("cov", sample_cov_product),
                ("precision", sample_precision_product),
            ):
                block += 1
                rep = np.empty(n_draws)
                for i in range(n_draws):
                    rng = RngStream(seed, block * _BLOCK + i)
                    rep[i] = sampler(model, l, n, rng, cache=cache)[0]
                block += 1
                oracle = _oracle_product_draws(
                    model, l, n, seed + 7919, n_draws, product == "precision"
                )
                ks = ks_2samp(rep, oracle).statistic
                results.append(
                    _check(
                        f"representation-vs-oracle {product} p={p} n={n} q={q} nu={family}",
                        ks,
                        tolerance,
                        f"two-sample KS at N={n_draws} per side",
                    )
                )
    return results


def singular_regime_vs_oracle(
    seed: int, n_draws: int = 5000, tolerance: float = 0.04
) -> list[CheckResult]:
    """Covariance product in the rank-deficient regime p > n - 1."""
    results = []
    p, n, q = 15, 10, 2
    for k, family in enumerate(("tn", "gal")):
        model, l = _dense_test_model(p, q, seed + 31 + k, family)
        cache = precompute_quadratics(model, l)
        rep = np.empty(n_draws)
        for i in range(n_draws):
            rng = RngStream(seed + 1, k * _BLOCK + i)
            rep[i] = sample_cov_product(model, l, n, rng, cache=cache)[0]
        oracle = _oracle_product_draws(model, l, n, seed + 104729 + k, n_draws, False)
        ks = ks_2samp(rep, oracle).statistic
        results.append(
            _check(
                f"singular-regime cov p={p} n={n} nu={family}",
                ks,
                tolerance,
                "S has rank n-1 < p; representation must still match",
            )
        )
    return results


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    return representation_vs_oracle(seed) + singular_regime_vs_oracle(seed)


def _moment_checks(seed: int) -> list[CheckResult]:
    results = []
    n_big = 100_000

    rng = RngStream(seed, 1 * _BLOCK)
    draws = np.array([sample_std_normal_vec(1, rng)[0] for _ in range(n_big)])
    results.append(_check("std-normal mean (dim=1)", abs(draws.mean()), 0.02))

    rng = RngStream(seed, 2 * _BLOCK)
    draws = np.array([sample_chi_squared(100, rng) for _ in range(n_big)])
    results.append(_check("chi2(100) mean rel err", abs(draws.mean() - 100) / 100, 0.01))
    results.append(
        _check("chi2(100) variance rel err", abs(draws.var(ddof=1) - 200) / 200, 0.05)
    )

    rng = RngStream(seed, 3 * _BLOCK)
    draws = np.array(
        [sample_noncentral_chi_squared(50, 25.0, rng) for _ in range(n_big)]
    )
    results.append(
        _check("noncentral chi2(50, 25) mean rel err", abs(draws.mean() - 75) / 75, 0.01)
    )

    n_ks = 10_000
    rng_a = RngStream(seed, 4 * _BLOCK)
    rng_b = RngStream(seed, 5 * _BLOCK)
    nc0 = np.array([sample_noncentral_chi_squared(7, 0.0, rng_a) for _ in range(n_ks)])
    central = np.array([sample_chi_squared(7, rng_b) for _ in range(n_ks)])
    results.append(
        _check(
            "noncentral chi2 lambda=0 reduction (two-sample KS)",
            ks_2samp(nc0, central).statistic,
            0.02,
        )
    )

    rng = RngStream(seed, 6 * _BLOCK)
    draws = np.array([sample_noncentral_f(10, 10, 0.0, rng) for _ in range(n_big)])
    results.append(
        _check("F(10,10) mean rel err", abs(draws.mean() - 1.25) / 1.25, 0.03)
    )
    rng = RngStream(seed, 7 * _BLOCK)
    target = 30 * (5 + 20) / (5 * 28)
    draws = np.array([sample_noncentral_f(5, 30, 20.0, rng) for _ in range(n_big)])
    results.append(
        _check(
            "noncentral F(5,30,20) mean rel err", abs(draws.mean() - target) / target, 0.03
        )
    )

    q = 4
    rng = RngStream(seed, 8 * _BLOCK)
    tn = TruncatedNormalAbs(np.eye(q))
    draws = np.array([sample_nu(tn, rng) for _ in range(n_big)])
    half_normal_mean = math.sqrt(2.0 / math.pi)
    results.append(
        _check(
            "half-normal componentwise mean rel err",
            float(np.max(np.abs(draws.mean(axis=0) - half_normal_mean)))
            / half_normal_mean,
            0.02,
        )
    )

    rng = RngStream(seed, 9 * _BLOCK)
    gal = GeneralizedAsymmetricLaplace(np.ones(q), np.eye(q), 10.0)
    draws = np.array([sample_nu(gal, rng) for _ in range(n_big)])
    results.append(
        _check(
            "gamma-mixture componentwise mean rel err",
            float(np.max(np.abs(draws.mean(axis=0) - 10.0))) / 10.0,
            0.02,
        )
    )
    return results


def wishart_and_independence_checks(seed: int, reps: int = 10_000) -> list[CheckResult]:
    """Wishart mean of (n-1)S and independence of S from the mean product."""
    results = []
    p, n, q = 4, 20, 2
    model, l = _dense_test_model(p, q, seed + 57, "tn")
    s_mean = np.zeros((p, p))
    tr_s = np.empty(reps)
    l_s_l = np.empty(reps)
    l_xbar = np.empty(reps)
    for i in range(reps):
        x, _ = sample_data_matrix(model, n, RngStream(seed, 10 * _BLOCK + i))
        m = sample_mean_and_cov(x)
        s_mean += m.s_matrix
        tr_s[i] = np.trace(m.s_matrix)
        l_s_l[i] = l @ m.s_matrix @ l
        l_xbar[i] = l @ m.xbar
    s_mean /= reps
    rel_frob = np.linalg.norm((n - 1) * (s_mean - model.sigma)) / np.linalg.norm(
        (n - 1) * model.sigma
    )
    results.append(_check("Wishart mean rel Frobenius (p=4,n=20)", rel_frob, 0.02))
    results.append(
        _check(
            "independence |corr(tr S, l'xbar)|",
            abs(np.corrcoef(tr_s, l_xbar)[0, 1]),
            0.05,
        )
    )
    results.append(
        _check(
            "independence |corr(l'S l, l'xbar)|",
            abs(np.corrcoef(l_s_l, l_xbar)[0, 1]),
            0.05,
        )
    )
    return results


def _sampling_moment_checks(seed: int) -> list[CheckResult]:
    """Mean-vector marginal and mixing-invariance of S in the oracle."""
    results = []
    q = 2
    # Marginal of the mean vector: xbar - B nu ~ N(mu, sigma/n).
    p, n, reps = 4, 50, 10_000
    model, _ = _dense_test_model(p, q, seed + 58, "tn")
    resid = np.empty((reps, p))
    for i in range(reps):
        x, nu_val = sample_data_matrix(model, n, RngStream(seed, 11 * _BLOCK + i))
        resid[i] = x.mean(axis=1) - model.b @ nu_val
    target_cov = model.sigma / n
    se = np.sqrt(np.diag(target_cov) / reps)
    mean_dev = float(np.max(np.abs(resid.mean(axis=0) - model.mu) / (3.0 * se)))
    results.append(
        _check("mean-vector marginal: componentwise mean (units of 3 se)", mean_dev, 1.0)
    )
    cov_rel = np.linalg.norm(np.cov(resid.T) - target_cov) / np.linalg.norm(target_cov)
    results.append(_check("mean-vector marginal: cov rel Frobenius", cov_rel, 0.05))

    # S does not depend on the mixing law.
    reps = 10_000
    p, n = 4, 20
    model_tn, _ = _dense_test_model(p, q, seed + 59, "tn")
    model_gal = ModelSpec(
        mu=model_tn.mu, sigma=model_tn.sigma, b=model_tn.b, nu=default_nu("gal", q)
    )
    tr_tn = np.empty(reps)
    tr_gal = np.empty(reps)
    for i in range(reps):
        x, _ = sample_data_matrix(model_tn, n, RngStream(seed + 2, 12 * _BLOCK + i))
        tr_tn[i] = np.trace(sample_mean_and_cov(x).s_matrix)
        x, _ = sample_data_matrix(model_gal, n, RngStream(seed + 3, 13 * _BLOCK + i))
        tr_gal[i] = np.trace(sample_mean_and_cov(x).s_matrix)
    results.append(
        _check(
            "S invariant to mixing law (tr S two-sample KS)",
            ks_2samp(tr_tn, tr_gal).statistic,
            1.63 * math.sqrt(2.0 / reps),
        )
    )
    return results


def suite_moments(seed: int = 0) -> list[CheckResult]:
    return (
        _moment_checks(seed)
        + wishart_and_independence_checks(seed)
        + _sampling_moment_checks(seed)
    )


def conditional_variance_cov(
    seed: int, p: int = 200, n: int = 2000, n_reps: int = 100_000
) -> list[CheckResult]:
    """Fixed-shift variance (and mean) of the covariance product."""
    q = 10
    model = generate_paper_model(p, q, model_seed=seed, nu=default_nu("tn", q))
    l = np.ones(p)
    cache = precompute_quadratics(model, l)
    nu_fix = sample_nu(model.nu, RngStream(seed + 11, 0))
    c = p / n
    vals = np.empty(n_reps)
    for i in range(n_reps):
        vals[i] = sample_cov_product(
            model, l, n, RngStream(seed, 14 * _BLOCK + i), fixed_nu=nu_fix, cache=cache
        )[0]
    params = asymptotic_params(model, l, c, nu_fix, ProductKind.COV_TIMES_MEAN, cache=cache)
    center, target = params.center, params.variance
    observed = np.var(np.sqrt(n) * (vals - center), ddof=1)
    se_mean = vals.std(ddof=1) / math.sqrt(n_reps)
    return [
        _check(
            f"cov conditional variance rel err (p={p}, n={n})",
            abs(observed - target) / target,
            0.05,
            f"sample {observed:.6g} vs formula {target:.6g} at N={n_reps}",
        ),
        _check(
            "cov conditional mean (units of 3 se)",
            abs(vals.mean() - center) / (3.0 * se_mean),
            1.0,
        ),
    ]


def conditional_variance_precision(
    seed: int, p: int = 100, n: int = 1000, n_reps: int = 100_000
) -> list[CheckResult]:
    """Fixed-shift variance and centering of the precision product.

    The exact conditional mean is ``(n-1)/(n-p-2) * l'Sigma^{-1}mu_nu``
    (inverse chi-squared moment); the asymptotic centre ``1/(1-c)`` form
    must agree with it to O(1/n) relative error.
    """
    q = 10
    model = generate_paper_model(p, q, model_seed=seed, nu=default_nu("tn", q))
    l = np.ones(p)
    cache = precompute_quadratics(model, l)
    nu_fix = sample_nu(model.nu, RngStream(seed + 12, 0))
    c = p / n
    vals = np.empty(n_reps)
    for i in range(n_reps):
        vals[i] = sample_precision_product(
            model, l, n, RngStream(seed, 15 * _BLOCK + i), fixed_nu=nu_fix, cache=cache
        )[0]
    params = asymptotic_params(
        model, l, c, nu_fix, ProductKind.PRECISION_TIMES_MEAN, cache=cache
    )
    center_asym, target = params.center, params.variance
    # l'Sigma^{-1}mu_nu recovered from the asymptotic centre a / (1 - c).
    center_exact = (n - 1) / (n - p - 2) * center_asym * (1.0 - c)
    observed = np.var(np.sqrt(n) * (vals - center_asym), ddof=1)
    se_mean = vals.std(ddof=1) / math.sqrt(n_reps)
    return [
        _check(
            f"precision conditional variance rel err (p={p}, n={n})",
            abs(observed - target) / target,
            0.05,
            f"sample {observed:.6g} vs formula {target:.6g} at N={n_reps}",
        ),
        _check(
            "precision centering vs exact mean (units of 3 se)",
            abs(vals.mean() - center_exact) / (3.0 * se_mean),
            1.0,
            "exact conditional mean (n-1)/(n-p-2) * l'Sigma^{-1}mu_nu",
        ),
        _check(
            "precision asymptotic centre rel err vs exact mean",
            abs(center_asym - center_exact) / abs(center_exact),
            0.005,
            "1/(1-c) centre agrees with the finite-sample mean to O(1/n)",
        ),
    ]


def variance_form_identity(seed: int, n_instances: int = 1000) -> CheckResult:
    """The two spellings of the precision limit variance must coincide."""
    gen = RngStream(seed, 16 * _BLOCK).generator
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
    model, l = _dense_test_model(6, 2, seed + 61, "tn")
    nu_val = nu_mean(model.nu)
    s0 = sigma2_nu(model, l, 0.0, nu_val)
    s_small = sigma2_nu(model, l, 1e-12, nu_val)
    results.append(
        _check("sigma2 continuity at c=0 (rel)", abs(s_small - s0) / s0, 1e-9)
    )
    # Classical fixed-p form, assembled from dense matrices.
    sigma, m_v = model.sigma, model.mu + model.b @ nu_val
    classical = (m_v @ sigma @ m_v) * (l @ sigma @ l) + (l @ sigma @ m_v) ** 2 + (
        l @ sigma @ sigma @ sigma @ l
    )
    results.append(
        _check("sigma2 at c=0 equals classical form (rel)", abs(s0 - classical) / s0, 1e-12)
    )
    t0 = sigma2_tilde_nu(model, l, 0.0, nu_val)
    t_small = sigma2_tilde_nu(model, l, 1e-12, nu_val)
    results.append(
        _check("sigma2_tilde continuity at c=0 (rel)", abs(t_small - t0) / t0, 1e-9)
    )
    grid = np.linspace(0.0, 0.98, 50)
    tilde = [sigma2_tilde_nu(model, l, c, nu_val) for c in grid]
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
    model, _ = _dense_test_model(p, q, seed, "tn")
    ws = build_workspace(model, n)
    sigma_inv = np.linalg.inv(model.sigma)
    e_mat = np.kron(np.ones(n)[None, :], model.b.T @ sigma_inv)
    f_inv = np.kron(np.eye(n), sigma_inv) - e_mat.T @ ws.d_matrix @ e_mat
    _, logdet_f = np.linalg.slogdet(np.linalg.inv(f_inv))
    return _check(
        f"determinant identity (p={p}, n={n}, q={q}) rel err",
        abs(logdet_f - ws.log_det_f) / abs(logdet_f),
        1e-8,
    )


def normalization_check(seed: int) -> CheckResult:
    """The (1, 2, 1) matrix density integrates to one over a wide grid."""
    model = _TINY_MODEL
    ws = build_workspace(model, 2)
    shift_scale = 0.7 * math.sqrt(1.5)
    lo = 0.3 - 10.0 * math.sqrt(0.8)
    hi = 0.3 + shift_scale * 6.0 + 10.0 * math.sqrt(0.8)
    nodes, weights = np.polynomial.legendre.leggauss(160)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * weights
    vals = np.array(
        [
            [math.exp(log_density(ws, model, np.array([[x1, x2]]))) for x2 in x]
            for x1 in x
        ]
    )
    integral = float(w @ vals @ w)
    return _check("density normalization at (1,2,1)", abs(integral - 1.0), 1e-3)


def mixture_agreement_check(seed: int) -> CheckResult:
    """Closed-form density versus direct mixing-integral quadrature."""
    model = _TINY_MODEL
    ws = build_workspace(model, 2)
    worst = 0.0
    for z1 in np.linspace(-2.0, 4.0, 7):
        for z2 in np.linspace(-2.0, 4.0, 7):
            z = np.array([[z1, z2]])
            dens = math.exp(log_density(ws, model, z))
            ref = math.exp(log_density_mixture_quad(model, 2, z))
            worst = max(worst, abs(dens - ref))
    return _check("density vs mixing-integral quadrature at (1,2,1)", worst, 1e-6)


def _orthant_checks(seed: int) -> list[CheckResult]:
    results = []
    results.append(
        _check(
            "orthant q=1 symmetry",
            abs(mvn_orthant_cdf(np.zeros(1), np.eye(1) * 2.3, 1e-4) - 0.5),
            1e-15,
        )
    )
    rng = RngStream(seed, 17 * _BLOCK)
    results.append(
        _check(
            "orthant q=2 independent",
            abs(mvn_orthant_cdf(np.zeros(2), np.eye(2), 1e-5, rng=rng) - 0.25),
            1e-4,
        )
    )
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    exact = 0.25 + math.asin(0.5) / (2.0 * math.pi)
    results.append(
        _check(
            "orthant q=2 rho=0.5 closed form",
            abs(mvn_orthant_cdf(np.zeros(2), cov, 1e-5, rng=rng) - exact),
            1e-4,
        )
    )
    return results


def collapse_check(seed: int) -> CheckResult:
    """Zero loading reduces the density to the matrix normal."""
    gen = RngStream(seed, 18 * _BLOCK).generator
    p, n, q = 2, 3, 2
    a = gen.standard_normal((p, p))
    sigma = a @ a.T + np.eye(p)
    mu = gen.uniform(-1.0, 1.0, p)
    omega_a = gen.standard_normal((q, q))
    omega = omega_a @ omega_a.T + np.eye(q)
    model = ModelSpec(mu=mu, sigma=sigma, b=np.zeros((p, q)), nu=TruncatedNormalAbs(omega))
    ws = build_workspace(model, n)
    sigma_inv = np.linalg.inv(sigma)
    _, logdet_sigma = np.linalg.slogdet(sigma)
    worst = 0.0
    for _ in range(5):
        z = gen.standard_normal((p, n)) + mu[:, None]
        m = z - mu[:, None]
        ref = -0.5 * (
            p * n * math.log(2.0 * math.pi)
            + n * logdet_sigma
            + float(np.sum(m * (sigma_inv @ m)))
        )
        worst = max(worst, abs(log_density(ws, model, z) - ref))
    return _check("zero-loading collapse to matrix normal (abs log diff)", worst, 1e-10)


def _kde_density_consistency(seed: int, n_draws: int = 100_000) -> CheckResult:
    """2-D KDE of oracle draws against the closed-form density at (1,2,1)."""
    model = _TINY_MODEL
    ws = build_workspace(model, 2)
    draws = np.empty((n_draws, 2))
    for i in range(n_draws):
        x, _ = sample_data_matrix(model, 2, RngStream(seed, 19 * _BLOCK + i))
        draws[i] = x[0]
    # Pointwise error at density ~0.05 is variance-dominated at this N, so
    # oversmooth relative to the MISE rate; the density is smooth enough
    # that the extra bias stays far below the tolerance.
    h = 2.0 * draws.std(axis=0, ddof=1) * n_draws ** (-1.0 / 6.0)

    def kde2(point: NDArray) -> float:
        u = (point - draws) / h
        inside = (np.abs(u[:, 0]) <= 1) & (np.abs(u[:, 1]) <= 1)
        k = 0.5625 * (1 - u[inside, 0] ** 2) * (1 - u[inside, 1] ** 2)
        return float(k.sum() / (n_draws * h[0] * h[1]))

    worst = 0.0
    grid = np.linspace(0.0, 2.0, 5)
    for z1 in grid:
        for z2 in grid:
            dens = math.exp(log_density(ws, model, np.array([[z1, z2]])))
            if dens <= 0.05:
                continue
            worst = max(worst, abs(kde2(np.array([z1, z2])) - dens) / dens)
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
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](seed)
