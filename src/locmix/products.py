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

Both samplers take the prepared :class:`QuadraticCache` of (model, l),
draw a block of ``size`` replicates per call, and never touch a p x n
matrix.  After that one-time rotation, a covariance draw
costs its p normals and one O(p q) contraction of them, and a precision
draw costs O(q^2): the shift enters only through forms that
:class:`QuadraticCache` reduces to (q+1)-vectors and triangular factors.

The covariance sampler draws a block's ``(size, p)`` normals in even row
tiles of at most :data:`TILE_NORMALS` (8 MiB) into one reused buffer and
contracts each tile as soon as it is drawn, so a call's working set does
not grow with ``size * p``.  The tiles take the block's normals in stream
order and each row's contraction is unchanged, so the draws are the bytes
of one ``(size, p)`` call.
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
from .errors import InvalidInputError, RegimeError
from .model import ModelSpec, decompose_sigma
from .rng import RngStream


# Most normals a covariance draw holds at once (8 MiB of float64).
TILE_NORMALS = 1 << 20


class ProductKind(enum.Enum):
    """Which bilinear product of sample moments is being sampled."""

    COV_TIMES_MEAN = "cov"
    PRECISION_TIMES_MEAN = "precision"


class _ShiftForm:
    """``||R [1, nu]||^2`` for the triangular factor R of a ``(p, q+1)`` matrix F.

    ``F [1, nu]`` is a p-vector, so ``||F [1, nu]||^2 = ||R [1, nu]||^2``
    costs O(q^2) per shift once R (``min(p, q+1)`` rows) is known, and is
    a sum of squares: never negative.
    """

    def __init__(self, f: NDArray):
        r = np.linalg.qr(f, mode="r")
        self._const = r[:, 0]
        self._slope_t = r[:, 1:].T.copy()

    def __call__(self, nu: NDArray) -> NDArray:
        y = nu @ self._slope_t
        y += self._const
        return np.einsum("...j,...j->...", y, y)


class QuadraticCache:
    """Eigenbasis rotation of (model, l) plus every scalar form the samplers need.

    The one model argument of the samplers and limits: it also keeps the
    model's shift law as ``nu``, so a cache built from a model whose law
    is :class:`~locmix.distributions.Degenerate` conditions on that shift.
    Immutable after construction and safe to share across threads.  With
    ``M = U'[mu, B]`` (p x (q+1)) and ``x = [1, nu]`` the shifted mean is
    ``U'mu_nu = M x``, so each shift form is linear or quadratic in ``x``
    and is built once here: the linear forms as ``(q+1)``-vectors, the
    quadratic ones as triangular factors (:class:`_ShiftForm`).  The
    per-shift forms take one shift ``(q,)`` and return scalars, or a batch
    ``(N, q)`` and return ``(N,)`` arrays, in O(q^2) per shift.
    """

    def __init__(self, model: ModelSpec, l: NDArray):
        l = np.asarray(l, dtype=float).reshape(-1)
        if l.shape[0] != model.p:
            raise InvalidInputError("l must have length p")
        dec = decompose_sigma(model.sigma)
        lam = dec.eigenvalues
        l_eig = dec.rotate(l)
        m = np.column_stack([dec.rotate(model.mu), dec.rotate(model.b)])
        self.p = model.p
        self.nu = model.nu
        self.eigenvalues = lam
        self.l_sigma_l = float(np.sum(lam * l_eig**2))
        self.l_sigma3_l = float(np.sum(lam**3 * l_eig**2))
        self.l_sigmainv_l = float(np.sum(l_eig**2 / lam))
        self.tr_sigma2 = float(np.sum(lam**2))
        self.l_is_zero = not np.any(l)
        # Lambda [l, M] (p x (q+2)): the cov sampler contracts its normals with it.
        self.lam_l_m = lam[:, None] * np.column_stack([l_eig, m])
        # l'Sigma mu_nu = x'(M'Lambda l) and l'Sigma^{-1} mu_nu = x'(M'Lambda^{-1} l).
        self._l_sigma_m = self.lam_l_m[:, 0] @ m
        self._l_sigmainv_m = (l_eig / lam) @ m
        # mu_nu'Sigma mu_nu.
        self._sigma_form = _ShiftForm(np.sqrt(lam)[:, None] * m)
        # delta^2: mu_nu'Sigma^{-1} mu_nu after projecting Lambda^{-1/2} mu_nu
        # off v = Lambda^{-1/2} l (undefined for l = 0).
        self._delta_sq_form = None
        if not self.l_is_zero:
            inv_root_m = m / np.sqrt(lam)[:, None]
            v = l_eig / np.sqrt(lam)
            self._delta_sq_form = _ShiftForm(
                inv_root_m - np.outer(v, (v @ inv_root_m) / self.l_sigmainv_l)
            )

    def cov_forms(self, nu: NDArray) -> tuple[NDArray, NDArray]:
        """(l'Sigma mu_nu, mu_nu'Sigma mu_nu) for a shift ``(q,)`` or shifts ``(N, q)``."""
        return (
            nu @ self._l_sigma_m[1:] + self._l_sigma_m[0],
            self._sigma_form(nu),
        )

    def precision_forms(self, nu: NDArray) -> tuple[NDArray, NDArray]:
        """(l'Sigma^{-1} mu_nu, delta^2) for a shift ``(q,)`` or shifts ``(N, q)``.

        ``delta^2 = mu_nu'Sigma^{-1}mu_nu - (l'Sigma^{-1}mu_nu)^2 /
        l'Sigma^{-1}l`` is the squared residual of the precision-metric
        projection of ``mu_nu`` onto ``l``.  It is evaluated as that
        residual's own sum of squares, not as the difference, so it is
        non-negative and keeps its relative accuracy when ``mu_nu`` is
        nearly parallel to ``l``.
        """
        if self.l_is_zero:
            raise InvalidInputError("l must be nonzero for the precision product")
        return (
            nu @ self._l_sigmainv_m[1:] + self._l_sigmainv_m[0],
            self._delta_sq_form(nu),
        )


def precompute_quadratics(model: ModelSpec, l: NDArray) -> QuadraticCache:
    """Build the immutable scalar-form cache for a (model, l) pair."""
    return QuadraticCache(model, l)


def sample_cov_product(
    cache: QuadraticCache, n: int, rng: RngStream, size: int
) -> tuple[NDArray, NDArray]:
    """Draw ``size`` exact realizations of ``l'S xbar``; returns ``(values, nus)``.

    ``values`` is ``(size,)`` and ``nus`` the ``(size, q)`` shifts drawn
    from ``cache.nu``.  Valid in both the invertible (p <= n-1) and
    singular (p > n-1) regimes.  ``l = 0`` is allowed and yields 0.  Draw
    order per stream: the block of shifts, the ``(size, p)`` normals
    behind xbar, ``size`` xi, ``size`` z0.
    """
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    nus = sample_nu(cache.nu, rng, size)
    # In the eigenbasis xbar = M x + s z with s = sqrt(Lambda/n), so
    # l'Lambda xbar and xbar'Lambda xbar are the shift forms plus terms in
    # z @ (s Lambda [l, M]) and sum(Lambda s^2 z^2): the (size, p) mean is
    # never built.
    gen = rng.generator
    w = np.sqrt(cache.eigenvalues / n)[:, None] * cache.lam_l_m
    lam_sq = cache.eigenvalues**2 / n
    zw = np.empty((size, w.shape[1]))
    quad_z = np.empty(size)
    # The normals come in row tiles of at most TILE_NORMALS, split evenly so
    # that each tile of a multi-tile block holds about TILE_NORMALS / 2 or
    # more: OpenBLAS hands GEMMs with M N K <= 1e6 to a small-matrix kernel
    # that rounds differently, and these bytes must not depend on the tiling.
    tiles = -(-size // max(1, TILE_NORMALS // cache.p))
    z_buf = np.empty((-(-size // tiles), cache.p))
    for k in range(tiles):
        lo, hi = size * k // tiles, size * (k + 1) // tiles
        z = gen.standard_normal(out=z_buf[: hi - lo])
        np.matmul(z, w, out=zw[lo:hi])
        np.einsum("ij,ij,j->i", z, z, lam_sq, out=quad_z[lo:hi])
    g_mu, quad_mu = cache.cov_forms(nus)
    g = zw[:, 0] + g_mu
    cross = zw[:, 1] + np.einsum("ij,ij->i", zw[:, 2:], nus)
    quad = quad_z + 2.0 * cross + quad_mu
    xi = sample_chi_squared(n - 1, rng, size)
    z0 = gen.standard_normal(size)
    if cache.p == 1:
        # Cauchy-Schwarz is an equality in dimension one.
        bracket = np.zeros(size)
    else:
        bracket = np.maximum(quad * cache.l_sigma_l - g * g, 0.0)
    values = xi / (n - 1) * g + np.sqrt(xi) * np.sqrt(bracket) * z0 / (n - 1)
    return values, nus


def sample_precision_product(
    cache: QuadraticCache, n: int, rng: RngStream, size: int
) -> tuple[NDArray, NDArray]:
    """Draw ``size`` exact realizations of ``l'S^{-1} xbar``; returns ``(values, nus)``.

    Requires ``p < n - 1`` (so that S is invertible with finite inverse
    moments) and a nonzero ``l``.  Draw order per stream: the block of
    shifts, ``size`` xi_tilde, ``size`` z0, then for p >= 2 the
    noncentral-F blocks (Poisson, numerator, denominator).  Shapes are as
    for :func:`sample_cov_product`.
    """
    p = cache.p
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    if p >= n - 1:
        raise RegimeError(f"precision product needs p < n - 1 (got p={p}, n={n})")
    nus = sample_nu(cache.nu, rng, size)
    a, delta_sq = cache.precision_forms(nus)
    xi_tilde = sample_chi_squared(n - p, rng, size)
    z0 = rng.generator.standard_normal(size)
    noise_scale = np.sqrt(cache.l_sigmainv_l)
    if p > 1:
        eta = sample_noncentral_f(p - 1, n - p + 1, n * delta_sq, rng, size)
        noise_scale = noise_scale * np.sqrt(1.0 + (p - 1) / (n - p + 1) * eta)
    values = (n - 1) / xi_tilde * (a + noise_scale * z0 / np.sqrt(n))
    return values, nus
