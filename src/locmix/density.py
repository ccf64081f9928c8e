"""Exact density of the observation matrix under half-normal mixing.

When the location shift is ``nu = |psi|`` with ``psi ~ N_q(0, omega)``,
the density of the (p, n) matrix ``Z`` is

    phi(vec Z; mu 1_n', F) * P(psi >= 0 | Z) / P(psi >= 0),

where ``F = I_n (x) Sigma + (1_n 1_n') (x) B Omega B'`` is ``np x np``
and never materialized.  Everything runs on whitened columns: with
``Sigma = U Lambda U'`` (:func:`model.decompose_sigma`), ``W =
Lambda^{-1/2} U'`` and ``P`` the inverse Cholesky factor of ``Omega``,
one QR factorization ``[sqrt(n) W B; P] = Q R`` gives the posterior
covariance ``D = (R'R)^{-1}`` of ``psi`` and

    log|F| = n log|Sigma| + log|Omega| + 2 log|det R|.

With ``w_j = W (z_j - mu)`` and ``wbar`` their mean, the posterior mean
``nuhat = D n B'W'wbar`` is the least-squares solution ``R^{-1} Q_1'
sqrt(n) wbar`` (``Q_1`` the top p rows of ``Q``), which never squares
the condition number of ``D``.  The quadratic form of ``F`` is a sum of
squares,

    sum_j |w_j - wbar|^2 + n |wbar - W B nuhat|^2 + |P nuhat|^2,

so no two terms cancel, and ``P(psi >= 0 | Z)`` is the orthant
probability of ``N_q(-nuhat, D)``.  Everything is evaluated in log space.

Orthant probabilities with a diagonal covariance (q = 1 among them, and
the normalizer under Omega = I) are a product of normal CDFs, exact in
closed form.  Any other covariance goes through a Genz-style
separation-of-variables transform integrated with randomized (scrambled
Sobol) quasi-Monte Carlo.  Its small point sets are memoized read-only,
so repeated evaluations in one process build no Sobol engine twice.
"""

from __future__ import annotations

import functools
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
from .model import ModelSpec, decompose_sigma
from .rng import RngStream

_LOG_2PI = np.log(2.0 * np.pi)
# Standard error asked of every orthant probability.
_ORTHANT_SE = 1e-6


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


# Each QMC round integrates _N_BATCHES independently scrambled Sobol
# batches of 2**log2_m points; the first round has 2**_FIRST_LOG2_M.
_N_BATCHES = 8
_FIRST_LOG2_M = 7
# Largest point set kept by the memo, in float64 values (points times
# dimension): 32 KiB per array, so the 256 entries hold at most 8 MiB.
_MEMO_MAX_VALUES = 1 << 12
_MEMO_ENTRIES = 256
# One integrand pass covers all 8 batches of every memoized round.  Larger
# rounds take as many batches per pass as fit in this many point values,
# so a round near the budget holds no more memory than one batch at a time.
_PASS_MAX_VALUES = _N_BATCHES * _MEMO_MAX_VALUES
# Largest round, in points over all 8 batches.
_MAX_POINTS = 1 << 22


def _sobol_points(d: int, seed: int, log2_m: int) -> NDArray:
    """The ``2**log2_m`` points of ``qmc.Sobol(d, scramble=True, seed=seed)``.

    Small point sets come from a memo on ``(d, seed, log2_m)``: the fixed
    default stream of :func:`mvn_orthant_cdf` draws the same seeds on
    every call, so their engines need not be built again.  Larger sets are
    built anew on each call.  Every array is read-only, so concurrent
    callers can share it.
    """
    if d << log2_m <= _MEMO_MAX_VALUES:
        return _memo_sobol_points(d, seed, log2_m)
    return _new_sobol_points(d, seed, log2_m)


def _new_sobol_points(d: int, seed: int, log2_m: int) -> NDArray:
    # Imported here: only correlated orthants pay for scipy.stats.
    from scipy.stats import qmc

    u = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(log2_m)
    u.flags.writeable = False
    return u


_memo_sobol_points = functools.lru_cache(maxsize=_MEMO_ENTRIES)(_new_sobol_points)


def mvn_orthant_cdf(mean: NDArray, cov: NDArray, rng: RngStream | None = None) -> float:
    """Probability that a N_q(mean, cov) vector is componentwise <= 0.

    Exact in closed form, ``prod(Phi(-mean / sqrt(diag(cov))))``, when
    ``cov`` is diagonal; q = 1 is one such case, and such a call draws
    nothing from ``rng``.  Otherwise the estimate is refined in rounds:
    each round draws 8 seeds from ``rng``, scrambles one Sobol batch of
    ``2**k`` points per seed (k = 7, 8, ...) and evaluates the integrand
    once over all 8 batches (over fewer at a time once a batch holds more
    than 2**12 values), until the standard error of the 8 batch means
    drops below :data:`_ORTHANT_SE`.  No round exceeds 2**22 points over
    its 8 batches.

    Point sets of at most 2**12 values (points times q - 1) are memoized
    on (q - 1, seed, round size), in an LRU of 256 arrays: at most 8 MiB.
    The default stream draws the same seeds on every call, so a process
    that evaluates many densities builds each of these engines once; a
    one-shot ``locmix density`` process gains nothing.  The arrays are
    read-only, so threads share them safely.  A caller's ``rng`` draws
    other seeds and misses the memo.  The memo never changes a result.

    Parameters
    ----------
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
    chol, upper = _ordered_cholesky(cov, -mean)
    seed_rng = rng if rng is not None else RngStream(0x0A7B, 0)
    log2_m = _FIRST_LOG2_M
    while True:
        seeds = [int(s) for s in seed_rng.generator.integers(0, 2**63 - 1, size=_N_BATCHES)]
        step = max(1, _PASS_MAX_VALUES // ((q - 1) << log2_m))
        means = []
        for j in range(0, _N_BATCHES, step):
            u = np.concatenate([_sobol_points(q - 1, s, log2_m) for s in seeds[j : j + step]])
            means.append(_sov_integrand(chol, upper, u).reshape(-1, 1 << log2_m).mean(axis=1))
        batch_means = np.concatenate(means)
        est = float(np.mean(batch_means))
        se = float(np.std(batch_means, ddof=1) / np.sqrt(_N_BATCHES))
        if se <= _ORTHANT_SE:
            return min(max(est, 0.0), 1.0)
        if _N_BATCHES << (log2_m + 1) > _MAX_POINTS:
            raise AccuracyNotMetError(
                f"orthant probability reached standard error {se:.3e} "
                f"(target {_ORTHANT_SE:.3e}) within the point budget",
                se,
            )
        log2_m += 1


@dataclass(frozen=True)
class DensityWorkspace:
    """A half-normal-mixing model prepared for data matrices of n columns.

    ``white`` whitens a column (``white.T @ white = Sigma^{-1}``),
    ``white_b = white @ B``, and ``prior`` whitens the shift
    (``prior.T @ prior = Omega^{-1}``).  ``basis`` (the top p rows of Q)
    and ``r_inv`` (R^{-1}) come from the QR factorization ``[sqrt(n)
    white_b; prior] = Q R``.  ``d_matrix = r_inv @ r_inv.T`` is the
    posterior covariance ``D`` of ``psi``, ``log_det_f`` the
    log-determinant of the implicit ``np x np`` covariance, and ``log_c``
    the log of the normalizer ``P(psi >= 0)``.
    """

    mu: NDArray
    n: int
    white: NDArray
    white_b: NDArray
    prior: NDArray
    basis: NDArray
    r_inv: NDArray
    d_matrix: NDArray
    log_det_f: float
    log_c: float


def build_workspace(model: ModelSpec, n: int) -> DensityWorkspace:
    """Prepare the matrix density of ``model`` for sample size ``n``.

    Only the half-normal mixing family is supported; other mixing laws
    raise :class:`UnsupportedMixingError`.  Sigma goes through
    :func:`decompose_sigma`, so an asymmetric or indefinite Sigma raises
    its typed error.
    """
    if not isinstance(model.nu, TruncatedNormalAbs):
        raise UnsupportedMixingError(
            "the closed-form matrix density requires half-normal mixing"
        )
    if n < 1:
        raise InvalidDimensionError("n must be >= 1")
    dec = decompose_sigma(model.sigma)
    white = dec.eigenvectors.T / np.sqrt(dec.eigenvalues)[:, None]
    white_b = white @ model.b
    omega_chol = model.nu._chol
    prior = np.linalg.inv(omega_chol)
    basis, r = np.linalg.qr(np.vstack([np.sqrt(n) * white_b, prior]))
    r_inv = np.linalg.inv(r)
    log_det_f = (
        n * np.sum(np.log(dec.eigenvalues))
        + 2.0 * np.sum(np.log(np.diag(omega_chol)))
        + 2.0 * np.sum(np.log(np.abs(np.diag(r))))
    )
    log_c = np.log(mvn_orthant_cdf(np.zeros(model.q), model.nu.omega))
    return DensityWorkspace(
        mu=model.mu,
        n=n,
        white=white,
        white_b=white_b,
        prior=prior,
        basis=basis[: model.p],
        r_inv=r_inv,
        d_matrix=r_inv @ r_inv.T,
        log_det_f=float(log_det_f),
        log_c=float(log_c),
    )


def log_density(workspace: DensityWorkspace, z: NDArray) -> float:
    """Log density of one (p, n) observation matrix.

    The quadratic form of the implicit ``np x np`` covariance is a sum of
    three sums of squares of whitened data (see the module docstring), so
    it keeps its relative accuracy when an entry of Sigma is small.

    Raises
    ------
    AccuracyNotMetError
        If the orthant probability misses its accuracy target or
        underflows to 0 (data far in the tail).
    """
    ws = workspace
    z = np.asarray(z, dtype=float)
    p = ws.mu.shape[0]
    if z.shape != (p, ws.n):
        raise InvalidDimensionError(f"data must be (p, n) = ({p}, {ws.n}); got {z.shape}")
    w = ws.white @ (z - ws.mu[:, None])
    wbar = w.mean(axis=1)
    nu_hat = ws.r_inv @ (ws.basis.T @ (np.sqrt(ws.n) * wbar))
    resid = wbar - ws.white_b @ nu_hat
    prior_nu = ws.prior @ nu_hat
    quad = (
        float(np.sum(np.square(w - wbar[:, None])))
        + ws.n * float(resid @ resid)
        + float(prior_nu @ prior_nu)
    )
    log_phi = -0.5 * (p * ws.n * _LOG_2PI + ws.log_det_f + quad)
    if not ws.white_b.any():
        # Zero loading: the orthant factor equals the normalizer exactly.
        return log_phi
    prob = mvn_orthant_cdf(-nu_hat, ws.d_matrix)
    if prob == 0.0:
        # The data are finite, so the true probability is positive.
        raise AccuracyNotMetError(
            "orthant probability underflows to 0 for these data (far tail); "
            "its log cannot be evaluated",
            1.0,
        )
    return float(np.log(prob)) + log_phi - ws.log_c
