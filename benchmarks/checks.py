"""Correctness checks of the benchmark, made apart from the program.

Every check returns a list of problems; an empty list means the output
passed.  Nothing here imports ``locmix``: the panel check recomputes the
Kolmogorov-Smirnov distance with scipy.  Two density oracles use scipy's
multivariate normal log-pdf and orthant probability: one assembles the
full ``np x np`` covariance densely (small shapes only), the other
conditions on the column mean and needs only p x p matrices (every shape).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import stats
from scipy.special import ndtr

# The study's bound on the KS distance to N(0, 1), by concentration ratio.
KS_BOUND = {0.1: 0.02, 0.95: 0.08}
# Two KS values of one sample agree to rounding when closer than this.
KS_ROUNDING = 1e-12

# Standard error the program targets for each orthant probability
# (``orthant_accuracy`` of ``locmix.density``), the absolute error asked
# of scipy's orthant probability, and how many combined standard errors a
# log-density may be off before the check fails.
ORTHANT_SE = 1e-6
ORACLE_ABSEPS = 1e-7
N_SE = 6.0
# Relative rounding allowance on the Gaussian part of the log-density.
GAUSS_RTOL = 1e-9


def read_samples(path: Path) -> np.ndarray:
    """The ``standardized`` column of a ``samples.csv`` file."""
    lines = path.read_text().split("\n")
    if lines[0] != "standardized":
        raise ValueError(f"{path}: header is {lines[0]!r}, expected 'standardized'")
    return np.array([v for v in lines[1:] if v], dtype=float)


def check_panel(out_dir: Path, n_reps: int, c: float) -> list[str]:
    """Check one panel's ``samples.csv`` and ``report.json``.

    The sample must hold exactly ``n_reps`` finite values, its KS distance
    to N(0, 1) (recomputed with scipy) must lie under the study's bound for
    ``c``, and it must equal the report's ``ks`` to rounding.
    """
    try:
        samples = read_samples(out_dir / "samples.csv")
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if samples.size != n_reps:
        problems.append(f"sample holds {samples.size} values, expected {n_reps}")
    if not np.all(np.isfinite(samples)):
        problems.append(f"{int(np.sum(~np.isfinite(samples)))} non-finite values")
        return problems
    ks = float(stats.kstest(samples, "norm").statistic)
    bound = KS_BOUND[c]
    if not ks < bound:
        problems.append(f"KS {ks:.6g} is not under the study's bound {bound} at c={c}")
    reported = report.get("ks")
    if not isinstance(reported, (int, float)) or abs(ks - reported) > KS_ROUNDING:
        problems.append(f"report.json ks {reported!r} differs from recomputed KS {ks!r}")
    return problems


def _orthant(mean: np.ndarray, cov: np.ndarray) -> float:
    """P(Z >= 0) for Z ~ N(mean, cov), with scipy."""
    if mean.size == 1:
        return float(ndtr(mean[0] / math.sqrt(cov[0, 0])))
    if np.count_nonzero(cov - np.diag(np.diag(cov))) == 0:
        return float(np.prod(ndtr(mean / np.sqrt(np.diag(cov)))))
    return float(
        stats.multivariate_normal.cdf(
            np.zeros(mean.size), mean=-mean, cov=cov,
            abseps=ORACLE_ABSEPS, releps=0.0, rng=np.random.default_rng(0),
        )
    )


def _mixed(
    log_phi: float, cond_mean: np.ndarray, cond_cov: np.ndarray, omega: np.ndarray
) -> tuple[float, float]:
    """``log_phi + log P(psi >= 0 | data) - log P(psi >= 0)`` and its tolerance.

    The tolerance is ``N_SE`` combined standard errors of the two orthant
    probabilities, carried into log space, plus a rounding allowance on
    the Gaussian part ``log_phi``.
    """
    prob = _orthant(cond_mean, 0.5 * (cond_cov + cond_cov.T))
    prob0 = _orthant(np.zeros(omega.shape[0]), omega)
    se = ORTHANT_SE + ORACLE_ABSEPS
    tol = N_SE * (se / prob + se / prob0) + GAUSS_RTOL * (1.0 + abs(log_phi))
    return log_phi + math.log(prob) - math.log(prob0), tol


def dense_log_density(
    mu: np.ndarray, sigma: np.ndarray, b: np.ndarray, omega: np.ndarray, x: np.ndarray
) -> tuple[float, float]:
    """Log density of a (p, n) matrix under half-normal mixing, assembled densely.

    With columns ``x_i = mu + B nu + e_i``, ``e_i ~ N(0, Sigma)`` and ``nu``
    a N(0, Omega) vector truncated to the positive orthant, the stacked
    data ``v = vec(x)`` and ``psi ~ N(0, Omega)`` are jointly Gaussian, so

        f(v) = phi(v; 1 (x) mu, F) * P(psi >= 0 | v) / P(psi >= 0),
        F = I_n (x) Sigma + C Omega C',  C = 1_n (x) B.

    Returns the log density and its tolerance (see :func:`_mixed`).
    """
    p, n = x.shape
    c_mat = np.tile(b, (n, 1))
    f_mat = np.kron(np.eye(n), sigma) + c_mat @ omega @ c_mat.T
    mean = np.tile(mu, n)
    v = x.T.reshape(-1)
    cov = stats.Covariance.from_cholesky(np.linalg.cholesky(f_mat))
    log_phi = float(stats.multivariate_normal(mean=mean, cov=cov).logpdf(v))
    gain = np.linalg.solve(f_mat, c_mat @ omega).T
    return _mixed(log_phi, gain @ (v - mean), omega - gain @ c_mat @ omega, omega)


def mean_log_density(
    mu: np.ndarray, sigma: np.ndarray, b: np.ndarray, omega: np.ndarray, x: np.ndarray
) -> tuple[float, float]:
    """The same log density as :func:`dense_log_density`, through the column mean.

    Given ``psi``, the columns are i.i.d. N(mu + B psi, Sigma), so the data
    enter the mixing only through ``xbar ~ N(mu + B psi, Sigma / n)``.
    With ``S = sum_i (x_i - xbar)' Sigma^{-1} (x_i - xbar)``,

        log phi(v; 1 (x) mu, F) = -((n - 1) p log(2 pi) + (n - 1) log|Sigma|
                                    + p log n + S) / 2 + log phi(xbar; mu, F_bar),
        F_bar = Sigma / n + B Omega B',

    and ``psi | v`` is ``psi | xbar``, with mean ``Omega B' F_bar^{-1} (xbar - mu)``
    and covariance ``Omega - Omega B' F_bar^{-1} B Omega``.  Only p x p and
    q x q matrices appear, so this oracle covers every shape.  Returns the
    log density and its tolerance (see :func:`_mixed`).
    """
    p, n = x.shape
    xbar = x.mean(axis=1)
    sigma_chol = np.linalg.cholesky(sigma)
    white = np.linalg.solve(sigma_chol, x - xbar[:, None])
    log_det_sigma = 2.0 * float(np.sum(np.log(np.diag(sigma_chol))))
    f_bar = sigma / n + b @ omega @ b.T
    f_chol = np.linalg.cholesky(f_bar)
    cov = stats.Covariance.from_cholesky(f_chol)
    log_phi = (
        -0.5 * ((n - 1) * p * math.log(2.0 * math.pi) + (n - 1) * log_det_sigma
                + p * math.log(n) + float(np.sum(white * white)))
        + float(stats.multivariate_normal(mean=mu, cov=cov).logpdf(xbar))
    )
    gain = scipy.linalg.cho_solve((f_chol, True), b @ omega).T
    return _mixed(log_phi, gain @ (xbar - mu), omega - gain @ b @ omega, omega)


def check_density(value: float, oracles: list[tuple[str, float, float]]) -> list[str]:
    """A log-density must be finite and within tolerance of every oracle.

    ``oracles`` holds (name, log density, tolerance) triples.
    """
    if not isinstance(value, float) or not math.isfinite(value):
        return [f"log density {value!r} is not finite"]
    return [
        f"log density {value!r} is off the {name} oracle {oracle!r} by more than {tol:.3g}"
        for name, oracle, tol in oracles
        if not abs(value - oracle) <= tol
    ]
