"""Exact density of the observation matrix under half-normal mixing.

When the location shift is ``nu = |psi|`` with ``psi ~ N_q(0, omega)``,
the matrix density factors into a Gaussian orthant probability times a
``pn``-variate normal density whose covariance ``F`` has a low-rank
(Woodbury) structure.  ``F`` is ``np x np`` and is never materialized:
its log-determinant follows from the identity

    log|F| = n log|Sigma| + log|Omega| - log|D|,
    D = (n B'Sigma^{-1}B + Omega^{-1})^{-1},

and its quadratic form reduces to per-column precision forms minus a
q-dimensional correction.  Everything is evaluated in log space.

Orthant probabilities with a diagonal covariance (q = 1 among them, and
the normalizer under Omega = I) are a product of normal CDFs, exact in
closed form.  Any other covariance goes through a Genz-style
separation-of-variables transform integrated with randomized (scrambled
Sobol) quasi-Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .distributions import TruncatedNormalAbs
from .errors import (
    AccuracyNotMetError,
    InvalidDimensionError,
    InvalidInputError,
    NotPositiveDefiniteError,
    UnsupportedMixingError,
)
from .model import ModelSpec
from .rng import RngStream

_LOG_2PI = np.log(2.0 * np.pi)


def _chol_logdet(mat: NDArray, name: str) -> tuple[NDArray, float]:
    """Lower Cholesky factor and log-determinant of an SPD matrix."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(mat)[0])
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (lambda_min={lam_min:.3e})", lam_min
        ) from None
    return chol, 2.0 * float(np.sum(np.log(np.diag(chol))))


def _ordered_cholesky(cov: NDArray, upper: NDArray) -> tuple[NDArray, NDArray]:
    """Cholesky factor with Genz variable reordering for P(Z <= upper).

    At each elimination step the remaining variable with the smallest
    conditional probability mass is pivoted to the front, which reduces
    the variance of the subsequent quasi-Monte Carlo integration.
    """
    from scipy.special import ndtr

    a = np.array(cov, dtype=float)
    b = np.array(upper, dtype=float)
    q = a.shape[0]
    chol = np.zeros_like(a)
    y = np.zeros(q)
    order = np.arange(q)
    for k in range(q):
        best, best_e = k, np.inf
        for i in range(k, q):
            dii = a[i, i] - chol[i, :k] @ chol[i, :k]
            if dii <= 0:
                continue
            s = chol[i, :k] @ y[:k]
            e = ndtr((b[i] - s) / np.sqrt(dii))
            if e < best_e:
                best, best_e = i, e
        if best != k:
            a[[k, best], :] = a[[best, k], :]
            a[:, [k, best]] = a[:, [best, k]]
            chol[[k, best], :k] = chol[[best, k], :k]
            b[[k, best]] = b[[best, k]]
            order[[k, best]] = order[[best, k]]
        dkk = a[k, k] - chol[k, :k] @ chol[k, :k]
        if dkk <= 0:
            raise NotPositiveDefiniteError(
                "covariance is numerically singular during reordering", float(dkk)
            )
        chol[k, k] = np.sqrt(dkk)
        for i in range(k + 1, q):
            chol[i, k] = (a[i, k] - chol[i, :k] @ chol[k, :k]) / chol[k, k]
        # Conditional mean of y_k given y_k below its bound, used by the
        # reordering heuristic at later steps.
        h = (b[k] - chol[k, :k] @ y[:k]) / chol[k, k]
        e = ndtr(h)
        y[k] = -np.exp(-0.5 * h * h) / (np.sqrt(2 * np.pi) * max(e, 1e-300))
    return chol, b


def _sov_integrand(chol: NDArray, upper: NDArray, u: NDArray) -> NDArray:
    """Genz separation-of-variables integrand on the unit cube.

    ``u`` has shape (m, q-1); returns the m integrand values whose mean
    estimates P(L y <= upper) for standard normal y.
    """
    from scipy.special import ndtr, ndtri

    q = chol.shape[0]
    m = u.shape[0]
    e = np.full(m, ndtr(upper[0] / chol[0, 0]))
    f = e.copy()
    y = np.empty((q - 1, m))
    for i in range(1, q):
        arg = np.clip(u[:, i - 1] * e, 1e-300, 1.0 - 1e-16)
        y[i - 1] = ndtri(arg)
        s = chol[i, :i] @ y[:i]
        e = ndtr((upper[i] - s) / chol[i, i])
        f *= e
    return f


def mvn_orthant_cdf(
    mean: NDArray,
    cov: NDArray,
    accuracy: float,
    rng: RngStream | None = None,
    max_points: int = 1 << 22,
) -> float:
    """Probability that a N_q(mean, cov) vector is componentwise <= 0.

    Exact in closed form, ``prod(Phi(-mean / sqrt(diag(cov))))``, when
    ``cov`` is diagonal; q = 1 is one such case, and such a call draws
    nothing from ``rng``.  Otherwise the estimate is refined until its
    standard error (estimated from 8 independently scrambled Sobol
    batches) drops below ``accuracy``.

    Parameters
    ----------
    accuracy : float
        Target standard error, in (0, 0.01].
    rng : RngStream, optional
        Source of the scrambling randomness; a fixed default stream is
        used when omitted, making repeated calls deterministic.

    Raises
    ------
    InvalidInputError
        If ``mean`` or ``cov`` has a NaN or infinite entry.
    NotPositiveDefiniteError
        If a diagonal entry of ``cov`` is not positive, or ``cov`` is
        numerically singular.
    AccuracyNotMetError
        If the point budget is exhausted first; carries the achieved
        standard error.
    """
    # Imported here: scipy.special is slow to import, and sampling never
    # gets here.
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    q = mean.shape[0]
    if q == 0 or cov.shape != (q, q):
        raise InvalidDimensionError("mean must be nonempty and cov (q, q) matching it")
    if not 0.0 < accuracy <= 0.01:
        raise InvalidInputError("accuracy must lie in (0, 0.01]")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InvalidInputError("orthant mean and covariance must be finite")
    var = np.diag(cov)
    var_min = float(var.min())
    if var_min <= 0.0:
        raise NotPositiveDefiniteError(
            f"covariance has a non-positive diagonal entry ({var_min:.3e})", var_min
        )
    if not np.any(cov - np.diag(var)):
        # Independent coordinates: the probability factorizes exactly.
        return float(np.prod(ndtr(-mean / np.sqrt(var))))
    # Only correlated orthants pay for scipy.stats.
    from scipy.stats import qmc

    chol, upper = _ordered_cholesky(cov, -mean)
    seed_rng = rng if rng is not None else RngStream(0x0A7B, 0)
    n_batches = 8
    log2_m = 7
    est, se = 0.0, np.inf
    while True:
        seeds = seed_rng.generator.integers(0, 2**63 - 1, size=n_batches)
        batch_means = np.empty(n_batches)
        for j in range(n_batches):
            engine = qmc.Sobol(d=q - 1, scramble=True, seed=int(seeds[j]))
            u = engine.random_base2(log2_m)
            batch_means[j] = float(np.mean(_sov_integrand(chol, upper, u)))
        est = float(np.mean(batch_means))
        se = float(np.std(batch_means, ddof=1) / np.sqrt(n_batches))
        if se <= accuracy:
            return min(max(est, 0.0), 1.0)
        if n_batches * (1 << (log2_m + 1)) > max_points:
            raise AccuracyNotMetError(
                f"orthant probability reached standard error {se:.3e} "
                f"(target {accuracy:.3e}) within the point budget",
                se,
            )
        log2_m += 1


@dataclass(frozen=True)
class DensityWorkspace:
    """Cached factors for evaluating the half-normal-mixing matrix density.

    The determinant identity ``log|F| = n log|Sigma| + log|Omega|
    - log|D|`` is baked in; the normalizing orthant constant is stored as
    ``log_c``.
    """

    d_matrix: NDArray
    sigma_inv: NDArray
    log_det_sigma: float
    log_det_omega: float
    log_det_d: float
    n: int
    b_t_sigma_inv: NDArray
    log_c: float
    b_is_zero: bool

    @property
    def log_det_f(self) -> float:
        return self.n * self.log_det_sigma + self.log_det_omega - self.log_det_d


def build_workspace(
    model: ModelSpec,
    n: int,
    *,
    orthant_accuracy: float = 1e-6,
    rng: RngStream | None = None,
) -> DensityWorkspace:
    """Precompute all factors of the matrix density for sample size ``n``.

    Only the half-normal mixing family is supported; other mixing laws
    raise :class:`UnsupportedMixingError`.
    """
    if not isinstance(model.nu, TruncatedNormalAbs):
        raise UnsupportedMixingError(
            "the closed-form matrix density requires half-normal mixing"
        )
    if n < 1:
        raise InvalidDimensionError("n must be >= 1")
    omega = model.nu.omega
    sigma_chol, log_det_sigma = _chol_logdet(model.sigma, "sigma")
    omega_chol, log_det_omega = _chol_logdet(omega, "omega")
    eye_p = np.eye(model.p)
    sigma_inv = np.linalg.solve(model.sigma, eye_p)
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    omega_inv = np.linalg.solve(omega, np.eye(model.q))
    omega_inv = 0.5 * (omega_inv + omega_inv.T)
    b_t_sigma_inv = model.b.T @ sigma_inv
    d_inv = n * (b_t_sigma_inv @ model.b) + omega_inv
    d_inv = 0.5 * (d_inv + d_inv.T)
    _, log_det_d_inv = _chol_logdet(d_inv, "D^{-1}")
    d_matrix = np.linalg.solve(d_inv, np.eye(model.q))
    d_matrix = 0.5 * (d_matrix + d_matrix.T)
    log_c = float(
        np.log(mvn_orthant_cdf(np.zeros(model.q), omega, orthant_accuracy, rng=rng))
    )
    return DensityWorkspace(
        d_matrix=d_matrix,
        sigma_inv=sigma_inv,
        log_det_sigma=log_det_sigma,
        log_det_omega=log_det_omega,
        log_det_d=-log_det_d_inv,
        n=n,
        b_t_sigma_inv=b_t_sigma_inv,
        log_c=log_c,
        b_is_zero=not np.any(model.b),
    )


def log_density(
    workspace: DensityWorkspace,
    model: ModelSpec,
    z: NDArray,
    *,
    orthant_accuracy: float = 1e-6,
    rng: RngStream | None = None,
) -> float:
    """Log density of one (p, n) observation matrix.

    The quadratic form of the implicit large covariance is evaluated as
    per-column precision forms minus the q-dimensional Woodbury
    correction; no np x np matrix appears.

    Raises
    ------
    AccuracyNotMetError
        If the orthant probability misses its accuracy target or
        underflows to 0 (data far in the tail).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (model.p, workspace.n):
        raise InvalidDimensionError(
            f"data must be (p, n) = ({model.p}, {workspace.n}); got {z.shape}"
        )
    if not isinstance(model.nu, TruncatedNormalAbs):
        raise UnsupportedMixingError(
            "the closed-form matrix density requires half-normal mixing"
        )
    m = z - model.mu[:, None]
    sinv_m = workspace.sigma_inv @ m
    quad_cols = float(np.sum(m * sinv_m))
    g = workspace.b_t_sigma_inv @ m.sum(axis=1)
    quad = quad_cols - float(g @ workspace.d_matrix @ g)
    np_total = model.p * workspace.n
    log_phi = -0.5 * (np_total * _LOG_2PI + workspace.log_det_f + quad)
    if workspace.b_is_zero:
        # Zero loading: the orthant factor equals the normalizer exactly.
        log_orthant = workspace.log_c
    else:
        prob = mvn_orthant_cdf(
            -workspace.d_matrix @ g, workspace.d_matrix, orthant_accuracy, rng=rng
        )
        if prob == 0.0:
            # The data are finite, so the true probability is positive.
            raise AccuracyNotMetError(
                "orthant probability underflows to 0 for these data (far tail); "
                "its log cannot be evaluated",
                1.0,
            )
        log_orthant = float(np.log(prob))
    return log_orthant + log_phi - workspace.log_c

