"""Samplers for the laws used by the product representations.

The random location shift ``nu`` of the model can follow one of three
families:

* :class:`TruncatedNormalAbs` — componentwise absolute value of a centred
  Gaussian vector (a q-variate truncated / half-normal law),
* :class:`GeneralizedAsymmetricLaplace` — the variance-mean Gamma mixture
  ``nu = m*W + sqrt(W) * L z`` with ``W ~ Gamma(s, 1)`` and ``L L^T`` the
  scale matrix,
* :class:`Degenerate` — a fixed vector; a model with this law is how the
  samplers condition on one shift.

The univariate helpers (`chi-squared`, noncentral chi-squared, noncentral F)
are the building blocks of the exact stochastic representations of the
covariance- and precision-mean products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidInputError, NotPositiveDefiniteError
from .rng import RngStream


def finite_array(value, name: str) -> NDArray:
    """``value`` as a float array; NaN or infinite entries raise InvalidInputError."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite (found NaN or infinity)")
    return arr


def symmetric_matrix(value, name: str) -> NDArray:
    """``value`` as a square float array, symmetric to 1e-12 of its largest entry.

    A non-square or asymmetric array raises InvalidInputError; the latter
    names the relative asymmetry.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix")
    scale = np.max(np.abs(arr), initial=0.0)
    diff = arr - arr.T
    asym = np.max(np.abs(diff, out=diff), initial=0.0)
    if asym > 1e-12 * scale:
        raise InvalidInputError(
            f"{name} is not symmetric (relative asymmetry {asym / scale:.3e})"
        )
    return arr


def _spd_cholesky(mat: NDArray, name: str) -> NDArray:
    """Lower Cholesky factor, raising a typed error when not SPD."""
    arr = symmetric_matrix(finite_array(mat, name), name)
    try:
        return np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(arr)[0])
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (lambda_min={lam_min:.3e})", lam_min
        ) from None


@dataclass(frozen=True)
class TruncatedNormalAbs:
    """nu = |psi| with psi ~ N_q(0, omega), taken componentwise.

    Parameters
    ----------
    omega : (q, q) ndarray
        Symmetric positive-definite covariance of the underlying Gaussian.
    """

    omega: NDArray

    def __post_init__(self):
        chol = _spd_cholesky(self.omega, "omega")
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "_chol", chol)

    @property
    def q(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class GeneralizedAsymmetricLaplace:
    """Variance-mean Gamma mixture: nu = m*W + sqrt(W) * L z.

    ``W ~ Gamma(shape=s, scale=1)``, ``z`` standard normal, and ``L`` is a
    square root of ``sigma`` (``L L^T = sigma``).  Componentwise moments:
    ``E nu = s * m`` and ``Cov nu = s * (m m^T + sigma)``.

    Parameters
    ----------
    m : (q,) ndarray
        Drift vector of the mixture.
    sigma : (q, q) ndarray
        Symmetric positive-definite scale matrix.
    s : float
        Positive Gamma shape parameter.
    """

    m: NDArray
    sigma: NDArray
    s: float

    def __post_init__(self):
        m = finite_array(self.m, "m").reshape(-1)
        chol = _spd_cholesky(self.sigma, "sigma")
        if m.shape[0] != chol.shape[0]:
            raise InvalidInputError("m and sigma dimensions disagree")
        if not 0 < self.s < np.inf:
            raise InvalidInputError("shape parameter s must be positive and finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        object.__setattr__(self, "_chol", chol)

    @property
    def q(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class Degenerate:
    """A point mass: sampling always returns the stored vector."""

    value: NDArray

    def __post_init__(self):
        object.__setattr__(self, "value", finite_array(self.value, "value").reshape(-1))

    @property
    def q(self) -> int:
        return self.value.shape[0]


NuDistribution = Union[TruncatedNormalAbs, GeneralizedAsymmetricLaplace, Degenerate]


def sample_chi_squared(k: int, rng: RngStream, size: int) -> NDArray:
    """Draw a ``(size,)`` block from the chi-squared law with ``k >= 1`` dof."""
    if k < 1:
        raise InvalidInputError("degrees of freedom must be >= 1")
    return rng.generator.chisquare(k, size)


def sample_noncentral_chi_squared(
    k: int, lam: float | NDArray, rng: RngStream, size: int
) -> NDArray:
    """Draw from the noncentral chi-squared law ``chi2_k(lam)``.

    Uses the exact Poisson mixture ``J ~ Poisson(lam/2)`` followed by a
    central ``chi2_{k+2J}`` draw.  A block draws its Poisson variates
    first, then its chi-squared variates; a zero ``lam`` consumes no
    Poisson randomness.

    Parameters
    ----------
    k : int
        Degrees of freedom, at least 1.
    lam : float or (size,) ndarray
        Nonnegative noncentrality, shared or one per draw.
    size : int
        Number of draws.
    """
    if k < 1:
        raise InvalidInputError("degrees of freedom must be >= 1")
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (size,))
    if np.any(lam < 0):
        raise InvalidInputError("noncentrality must be >= 0")
    gen = rng.generator
    return gen.chisquare(k + 2 * gen.poisson(lam / 2.0))


def sample_noncentral_f(
    d1: int, d2: int, lam: float | NDArray, rng: RngStream, size: int
) -> NDArray:
    """Draw from the noncentral F law ``F_{d1,d2}(lam)``.

    Constructed as ``[chi2_{d1}(lam)/d1] / [chi2_{d2}/d2]`` with independent
    numerator and denominator; a block draws all numerators, then all
    denominators.  ``lam`` is shared or one per draw.
    """
    if d1 < 1 or d2 < 1:
        raise InvalidInputError("both degrees of freedom must be >= 1")
    num = sample_noncentral_chi_squared(d1, lam, rng, size) / d1
    den = sample_chi_squared(d2, rng, size) / d2
    return num / den


def sample_nu(dist: NuDistribution, rng: RngStream, size: int) -> NDArray:
    """Draw a ``(size, q)`` block of location shifts ``nu``.

    Draw order is fixed per family (it is part of the reproducibility
    contract): TruncatedNormalAbs consumes a ``(size, q)`` block of
    normals; GeneralizedAsymmetricLaplace consumes ``size`` Gamma variates
    then a ``(size, q)`` block of normals; Degenerate consumes nothing.
    """
    gen = rng.generator
    if isinstance(dist, TruncatedNormalAbs):
        z = gen.standard_normal((size, dist.q))
        return np.abs(z @ dist._chol.T)
    if isinstance(dist, GeneralizedAsymmetricLaplace):
        w = gen.gamma(dist.s, 1.0, size)[:, None]
        z = gen.standard_normal((size, dist.q))
        return dist.m * w + np.sqrt(w) * (z @ dist._chol.T)
    if isinstance(dist, Degenerate):
        return np.tile(dist.value, (size, 1))
    raise TypeError(f"unknown mixing distribution: {type(dist).__name__}")


def nu_mean(dist: NuDistribution) -> NDArray:
    """Exact mean vector of ``nu``.

    Half-normal componentwise mean is ``sqrt(2/pi) * sqrt(omega_jj)``; the
    Gamma mixture has mean ``s * m``.
    """
    if isinstance(dist, TruncatedNormalAbs):
        return np.sqrt(2.0 / np.pi) * np.sqrt(np.diag(dist.omega))
    if isinstance(dist, GeneralizedAsymmetricLaplace):
        return dist.s * dist.m
    if isinstance(dist, Degenerate):
        return dist.value.copy()
    raise TypeError(f"unknown mixing distribution: {type(dist).__name__}")


def nu_cov(dist: NuDistribution) -> NDArray:
    """Exact covariance matrix of ``nu``.

    For the absolute-value family this uses the closed form for centred
    bivariate normals, ``E|X Y| = (2/pi) * sd_x sd_y (sqrt(1-rho^2)
    + rho*arcsin(rho))``.
    """
    if isinstance(dist, TruncatedNormalAbs):
        omega = dist.omega
        sd = np.sqrt(np.diag(omega))
        rho = omega / np.outer(sd, sd)
        rho = np.clip(rho, -1.0, 1.0)
        e_abs_prod = (2.0 / np.pi) * np.outer(sd, sd) * (
            np.sqrt(1.0 - rho**2) + rho * np.arcsin(rho)
        )
        mean = nu_mean(dist)
        return e_abs_prod - np.outer(mean, mean)
    if isinstance(dist, GeneralizedAsymmetricLaplace):
        return dist.s * (np.outer(dist.m, dist.m) + dist.sigma)
    if isinstance(dist, Degenerate):
        return np.zeros((dist.q, dist.q))
    raise TypeError(f"unknown mixing distribution: {type(dist).__name__}")
