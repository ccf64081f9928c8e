"""Large-dimension limits for the product statistics and standardization.

For ``p/n -> c`` the centred, sqrt(n)-scaled products are asymptotically
standard normal once divided by the shift-conditional standard deviations

* covariance product:  ``sigma2 = [mu_nu'Sigma mu_nu + c*tr(Sigma^2)/p]
  * l'Sigma l + (l'Sigma mu_nu)^2 + l'Sigma^3 l``   (any c >= 0),
* precision product:   ``sigma2_tilde = (1-c)^{-3} * ((l'Sigma^{-1}
  mu_nu)^2 + l'Sigma^{-1} l * (1 + mu_nu'Sigma^{-1} mu_nu))``
  (0 <= c < 1),

with centres ``l'Sigma mu_nu`` and ``(1-c)^{-1} l'Sigma^{-1} mu_nu``.
The precision variance is evaluated in its equivalent spelling
``(1-c)^{-3} (2 a^2 + b (1 + delta^2))`` with ``a = l'Sigma^{-1} mu_nu``,
``b = l'Sigma^{-1} l`` and ``delta^2 = mu_nu'Sigma^{-1} mu_nu - a^2/b``.

Replacing the random shift by its mean gives the unconditional limits
used when the shift dimension grows with n: the same formulas, evaluated
by :func:`limit_moments` at ``nu_mean(cache.nu)``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, RegimeError
from .products import ProductKind, QuadraticCache
# Not called here: benchmarks/tracer.py looks this name up in this module.
from .products import precompute_quadratics  # noqa: F401


def limit_moments(
    cache: QuadraticCache, c: float, nu: NDArray, kind: ProductKind
) -> tuple[NDArray, NDArray]:
    """(centre, variance) of the chosen product's limit, conditional on the shift.

    Takes one shift ``(q,)`` and returns scalars, or shifts ``(N, q)`` and
    returns ``(N,)`` arrays.  The unconditional limits are this call at
    the shift mean, ``nu_mean(cache.nu)``.  Each form costs O(q^2) per
    shift (see :class:`QuadraticCache`).  The precision variance is
    evaluated in its delta^2 spelling.
    """
    nu = np.asarray(nu, dtype=float)
    if kind is ProductKind.COV_TIMES_MEAN:
        if c < 0:
            raise RegimeError("c must be >= 0")
        center, quad = cache.cov_forms(nu)
        trace_term = c * cache.tr_sigma2 / cache.p
        return center, (quad + trace_term) * cache.l_sigma_l + center**2 + cache.l_sigma3_l
    if not 0.0 <= c < 1.0:
        raise RegimeError("c must lie in [0, 1) for the precision product")
    a, delta_sq = cache.precision_forms(nu)
    factor = 1.0 / (1.0 - c) ** 3
    return a / (1.0 - c), factor * (2.0 * a * a + cache.l_sigmainv_l * (1.0 + delta_sq))


def standardize(
    values: NDArray, nus: NDArray, cache: QuadraticCache, n: int, kind: ProductKind
) -> NDArray:
    """Centre and scale raw product draws with each draw's own shift.

    ``values`` (N,) are raw draws of sample size ``n`` and ``nus`` (N, q)
    the shifts they were drawn under.  Each draw is mapped to ``sqrt(n) *
    (value - centre(nu)) / sd(nu)`` at the plug-in ratio ``c = p / n``,
    which is asymptotically standard normal.  The centres and variances
    cost O(q^2) per draw and never touch a p-vector.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise InvalidInputError("draws must be nonempty")
    nus = np.asarray(nus, dtype=float).reshape(values.size, -1)
    if cache.l_is_zero:
        raise InvalidInputError("standardization is undefined for l = 0 (zero variance)")
    center, variance = limit_moments(cache, cache.p / n, nus, kind)
    return np.sqrt(n) * (values - center) / np.sqrt(variance)
