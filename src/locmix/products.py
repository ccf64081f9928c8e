"""Exact samplers for l'S xbar and l'S^{-1} xbar without forming data matrices.

Both products admit exact finite-sample representations in terms of a
handful of scalar draws once the model is rotated into the eigenbasis of
the column covariance:

* covariance product:  ``l'S xbar  =d  (xi/(n-1)) l'Sigma xbar
  + sqrt(xi) * sqrt(xbar'Sigma xbar * l'Sigma l - (l'Sigma xbar)^2)
  * z0 / (n-1)`` with ``xi ~ chi2_{n-1}`` and ``xbar`` realized as
  ``mu + B nu + A z / sqrt(n)``.  Valid for every p, including p > n-1.

* precision product:  ``l'S^{-1} xbar  =d  (n-1)/xi_tilde * (l'Sigma^{-1}
  mu_nu + sqrt(l'Sigma^{-1} l) * sqrt(1 + (p-1)/(n-p+1) * eta) * z0
  / sqrt(n))`` with ``xi_tilde ~ chi2_{n-p}`` and ``eta`` noncentral F
  with noncentrality ``n * delta^2(nu)``.  Requires p < n - 1 (p = 1 uses
  the degenerate branch with no F term).

Both samplers draw a block of replicates per call (``size``), so the
cost is O(p + q) array work per replicate after a one-time O(p^2)
rotation, and Monte Carlo studies never touch a p x n matrix.
"""

from __future__ import annotations

import enum

import numpy as np
from numpy.typing import NDArray

from .distributions import (
    sample_chi_squared,
    sample_noncentral_f,
    sample_nu,
)
from .errors import InvalidDimensionError, RegimeError, ZeroVectorError
from .model import ModelSpec, decompose_sigma
from .rng import RngStream


class ProductKind(enum.Enum):
    """Which bilinear product of sample moments is being sampled."""

    COV_TIMES_MEAN = "cov"
    PRECISION_TIMES_MEAN = "precision"


def _weighted_squares(x: NDArray, weights: NDArray) -> NDArray:
    """``sum_j weights_j x_j^2`` over the last axis, without an ``x**2`` temporary."""
    return np.einsum("...j,...j,j->...", x, x, weights)


class QuadraticCache:
    """Eigenbasis rotation of (model, l) plus every scalar form the samplers need.

    Immutable after construction and safe to share across threads.  The
    per-shift forms contract over the last axis, so they take one shift
    ``(q,)`` or rotated mean ``(p,)`` and return scalars, or a batch
    ``(N, q)`` / ``(N, p)`` and return ``(N,)`` arrays.
    """

    def __init__(self, model: ModelSpec, l: NDArray):
        l = np.asarray(l, dtype=float).reshape(-1)
        if l.shape[0] != model.p:
            raise InvalidDimensionError("l must have length p")
        dec = decompose_sigma(model.sigma)
        lam = dec.eigenvalues
        u_t = dec.eigenvectors.T
        self.p = model.p
        self.eigenvalues = lam
        self.l_eig = u_t @ l
        self.mu_eig = u_t @ model.mu
        self.b_eig_t = (u_t @ model.b).T
        self.l_sigma_l = float(np.sum(lam * self.l_eig**2))
        self.l_sigma3_l = float(np.sum(lam**3 * self.l_eig**2))
        self.l_sigmainv_l = float(np.sum(self.l_eig**2 / lam))
        self.tr_sigma2 = float(np.sum(lam**2))
        self.l_is_zero = not np.any(l)
        # Weight vectors reused by the per-draw dot products.
        self._lam_l = lam * self.l_eig
        self._l_over_lam = self.l_eig / lam
        self._inv_lam = 1.0 / lam

    def mu_nu_eig(self, nu: NDArray) -> NDArray:
        """Shifted mean ``mu + B nu`` expressed in the eigenbasis."""
        m_eig = nu @ self.b_eig_t
        m_eig += self.mu_eig
        return m_eig

    def cov_forms(self, m_eig: NDArray) -> tuple[NDArray, NDArray]:
        """(l'Sigma mu_nu, mu_nu'Sigma mu_nu) from the rotated shifted mean."""
        return m_eig @ self._lam_l, _weighted_squares(m_eig, self.eigenvalues)

    def precision_forms(self, m_eig: NDArray) -> tuple[NDArray, NDArray, NDArray]:
        """(l'Sigma^{-1} mu_nu, mu_nu'Sigma^{-1} mu_nu, delta^2) from the rotated mean.

        ``delta^2 = mu_nu'Sigma^{-1}mu_nu - (l'Sigma^{-1}mu_nu)^2 /
        l'Sigma^{-1}l`` is the squared residual of the precision-metric
        projection of ``mu_nu`` onto ``l``; it is clipped at zero against
        rounding.
        """
        if self.l_is_zero:
            raise ZeroVectorError("l must be nonzero for the precision product")
        a = m_eig @ self._l_over_lam
        m = _weighted_squares(m_eig, self._inv_lam)
        return a, m, np.maximum(m - a * a / self.l_sigmainv_l, 0.0)


def precompute_quadratics(model: ModelSpec, l: NDArray) -> QuadraticCache:
    """Build the immutable scalar-form cache for a (model, l) pair."""
    return QuadraticCache(model, l)


def _shift_block(
    model: ModelSpec, rng: RngStream, fixed_nu: NDArray | None, count: int
) -> NDArray:
    """The ``(count, q)`` shifts of a block: drawn, or ``fixed_nu`` repeated."""
    if fixed_nu is None:
        return sample_nu(model.nu, rng, count)
    return np.tile(np.asarray(fixed_nu, dtype=float).reshape(-1), (count, 1))


def sample_cov_product(
    model: ModelSpec,
    l: NDArray,
    n: int,
    rng: RngStream,
    fixed_nu: NDArray | None = None,
    cache: QuadraticCache | None = None,
    size: int | None = None,
) -> tuple[float | NDArray, NDArray]:
    """Draw exact realizations of ``l'S xbar``; returns ``(values, nus)``.

    Valid in both the invertible (p <= n-1) and singular (p > n-1)
    regimes.  ``l = 0`` is allowed and yields 0.  Draw order per stream:
    the block of shifts (unless ``fixed_nu``), the ``(size, p)`` normals
    behind xbar, ``size`` xi, ``size`` z0.

    Parameters
    ----------
    fixed_nu : ndarray, optional
        Condition on this shift instead of drawing one.
    cache : QuadraticCache, optional
        Reuse a precomputed rotation (must match ``model`` and ``l``).
    size : int, optional
        Number of draws: ``(size,)`` values and ``(size, q)`` shifts.
        ``None`` is a block of one returned as ``(float, (q,) shift)``.
    """
    if n < 2:
        raise InvalidDimensionError("n must be >= 2")
    cache = cache if cache is not None else QuadraticCache(model, l)
    count = 1 if size is None else size
    nus = _shift_block(model, rng, fixed_nu, count)
    gen = rng.generator
    xbar_eig = gen.standard_normal((count, cache.p))
    xbar_eig *= np.sqrt(cache.eigenvalues / n)
    xbar_eig += cache.mu_nu_eig(nus)
    g, quad = cache.cov_forms(xbar_eig)
    xi = sample_chi_squared(n - 1, rng, count)
    z0 = gen.standard_normal(count)
    if cache.p == 1:
        # Cauchy-Schwarz is an equality in dimension one.
        bracket = np.zeros(count)
    else:
        bracket = np.maximum(quad * cache.l_sigma_l - g * g, 0.0)
    values = xi / (n - 1) * g + np.sqrt(xi) * np.sqrt(bracket) * z0 / (n - 1)
    return (float(values[0]), nus[0]) if size is None else (values, nus)


def sample_precision_product(
    model: ModelSpec,
    l: NDArray,
    n: int,
    rng: RngStream,
    fixed_nu: NDArray | None = None,
    cache: QuadraticCache | None = None,
    size: int | None = None,
) -> tuple[float | NDArray, NDArray]:
    """Draw exact realizations of ``l'S^{-1} xbar``; returns ``(values, nus)``.

    Requires ``p < n - 1`` (so that S is invertible with finite inverse
    moments) and a nonzero ``l``.  Draw order per stream: the block of
    shifts (unless ``fixed_nu``), ``size`` xi_tilde, ``size`` z0, then
    for p >= 2 the noncentral-F blocks (Poisson, numerator, denominator).
    ``size`` is as for :func:`sample_cov_product`.
    """
    if n < 2:
        raise InvalidDimensionError("n must be >= 2")
    if model.p >= n - 1:
        raise RegimeError(
            f"precision product needs p < n - 1 (got p={model.p}, n={n})"
        )
    cache = cache if cache is not None else QuadraticCache(model, l)
    count = 1 if size is None else size
    nus = _shift_block(model, rng, fixed_nu, count)
    p = cache.p
    a, _, delta_sq = cache.precision_forms(cache.mu_nu_eig(nus))
    xi_tilde = sample_chi_squared(n - p, rng, count)
    z0 = rng.generator.standard_normal(count)
    noise_scale = np.sqrt(cache.l_sigmainv_l)
    if p > 1:
        eta = sample_noncentral_f(p - 1, n - p + 1, n * delta_sq, rng, count)
        noise_scale = noise_scale * np.sqrt(1.0 + (p - 1) / (n - p + 1) * eta)
    values = (n - 1) / xi_tilde * (a + noise_scale * z0 / np.sqrt(n))
    return (float(values[0]), nus[0]) if size is None else (values, nus)
