"""Large-dimension limits for the product statistics and standardization.

For ``p/n -> c`` the centred, sqrt(n)-scaled products are asymptotically
standard normal once divided by the shift-conditional standard deviations

* covariance product:  ``sigma2 = [mu_nu'Sigma mu_nu + c*tr(Sigma^2)/p]
  * l'Sigma l + (l'Sigma mu_nu)^2 + l'Sigma^3 l``   (any c >= 0),
* precision product:   ``sigma2_tilde = (1-c)^{-3} * ((l'Sigma^{-1}
  mu_nu)^2 + l'Sigma^{-1} l * (1 + mu_nu'Sigma^{-1} mu_nu))``
  (0 <= c < 1),

with centres ``l'Sigma mu_nu`` and ``(1-c)^{-1} l'Sigma^{-1} mu_nu``.
The precision variance has an equivalent second spelling,
``(1-c)^{-3} (2 a^2 + b (1 + delta^2))`` with ``delta^2 = m - a^2/b``;
both are evaluated and must agree.

Replacing the random shift by its mean gives the unconditional limits
used when the shift dimension grows with n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, RegimeError, ZeroVectorError
from .model import ModelSpec
from .products import ProductKind, QuadraticCache, precompute_quadratics

_CHUNK = 8192


@dataclass(frozen=True)
class AsymptoticParams:
    """Centre and variance of one product limit, conditional on the shift."""

    kind: ProductKind
    c: float
    center: float
    variance: float
    nu_value: NDArray


@dataclass(frozen=True)
class CorollaryParams:
    """Unconditional limits obtained by substituting the shift mean ``omega_mean``."""

    omega_mean: NDArray
    sigma2: float
    sigma2_tilde: float | None


def _center_variance(
    model: ModelSpec,
    l: NDArray,
    c: float,
    nu: NDArray,
    kind: ProductKind,
    cache: QuadraticCache | None,
) -> tuple[NDArray, NDArray]:
    """(centre, variance) of the chosen product for a shift (q,) or a batch (N, q).

    The precision variance is evaluated in its delta^2 spelling and, in
    debug builds, checked against the direct spelling (they agree to
    rounding by construction).
    """
    cache = cache if cache is not None else precompute_quadratics(model, l)
    if kind is ProductKind.COV_TIMES_MEAN:
        if c < 0:
            raise RegimeError("c must be >= 0")
        center, quad = cache.cov_forms(cache.mu_nu_eig(nu))
        trace_term = c * cache.tr_sigma2 / cache.p
        return center, (quad + trace_term) * cache.l_sigma_l + center**2 + cache.l_sigma3_l
    if not 0.0 <= c < 1.0:
        raise RegimeError("c must lie in [0, 1) for the precision product")
    a, m, delta_sq = cache.precision_forms(cache.mu_nu_eig(nu))
    b = cache.l_sigmainv_l
    factor = 1.0 / (1.0 - c) ** 3
    variance = factor * (2.0 * a * a + b * (1.0 + delta_sq))
    if __debug__:
        direct = factor * (a * a + b * (1.0 + m))
        assert np.all(np.abs(variance - direct) <= 1e-9 * np.maximum(np.abs(direct), 1.0)), (
            "precision variance spellings disagree"
        )
    return a / (1.0 - c), variance


def sigma2_nu(
    model: ModelSpec,
    l: NDArray,
    c: float,
    nu_value: NDArray,
    *,
    cache: QuadraticCache | None = None,
) -> float:
    """Conditional limit variance of sqrt(n)-scaled ``l'S xbar``."""
    return asymptotic_params(
        model, l, c, nu_value, ProductKind.COV_TIMES_MEAN, cache=cache
    ).variance


def sigma2_tilde_nu(
    model: ModelSpec,
    l: NDArray,
    c: float,
    nu_value: NDArray,
    *,
    cache: QuadraticCache | None = None,
) -> float:
    """Conditional limit variance of sqrt(n)-scaled ``l'S^{-1} xbar``."""
    return asymptotic_params(
        model, l, c, nu_value, ProductKind.PRECISION_TIMES_MEAN, cache=cache
    ).variance


def asymptotic_params(
    model: ModelSpec,
    l: NDArray,
    c: float,
    nu_value: NDArray,
    kind: ProductKind,
    *,
    cache: QuadraticCache | None = None,
) -> AsymptoticParams:
    """Bundle centre and variance of the chosen product for one shift."""
    nu_value = np.asarray(nu_value, dtype=float).reshape(-1)
    center, variance = _center_variance(model, l, c, nu_value, kind, cache)
    return AsymptoticParams(
        kind=kind, c=c, center=float(center), variance=float(variance), nu_value=nu_value
    )


def corollary_params(
    model: ModelSpec,
    l: NDArray,
    c: float,
    omega_mean: NDArray,
    *,
    cache: QuadraticCache | None = None,
) -> CorollaryParams:
    """Unconditional limits: the conditional formulas evaluated at the shift mean.

    ``sigma2_tilde`` is filled only when ``c < 1`` and ``l`` is nonzero
    (the precision product does not exist otherwise).
    """
    cache = cache if cache is not None else precompute_quadratics(model, l)
    omega_mean = np.asarray(omega_mean, dtype=float).reshape(-1)
    sigma2_tilde = None
    if 0.0 <= c < 1.0 and not cache.l_is_zero:
        sigma2_tilde = sigma2_tilde_nu(model, l, c, omega_mean, cache=cache)
    return CorollaryParams(
        omega_mean=omega_mean,
        sigma2=sigma2_nu(model, l, c, omega_mean, cache=cache),
        sigma2_tilde=sigma2_tilde,
    )


def standardize(
    values: NDArray,
    nus: NDArray,
    model: ModelSpec,
    l: NDArray,
    c: float,
    n: int,
    kind: ProductKind,
    *,
    cache: QuadraticCache | None = None,
) -> NDArray:
    """Centre and scale raw product draws with each draw's own shift.

    ``values`` (N,) are raw draws and ``nus`` (N, q) the shifts they were
    drawn under.  Each draw is mapped to ``sqrt(n) * (value - centre(nu))
    / sd(nu)``, which is asymptotically standard normal.  Evaluation is
    vectorized in chunks of draws.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise InvalidInputError("draws must be nonempty")
    nus = np.asarray(nus, dtype=float).reshape(values.size, -1)
    cache = cache if cache is not None else precompute_quadratics(model, l)
    if cache.l_is_zero:
        raise ZeroVectorError("standardization is undefined for l = 0 (zero variance)")
    out = np.empty_like(values)
    sqrt_n = np.sqrt(n)
    for start in range(0, values.size, _CHUNK):
        rows = slice(start, start + _CHUNK)
        center, variance = _center_variance(model, l, c, nus[rows], kind, cache)
        out[rows] = sqrt_n * (values[rows] - center) / np.sqrt(variance)
    return out
