"""Location-mixture Gaussian model and its brute-force sampling oracle.

The observation matrix is ``X = Y + B nu 1_n^T`` where ``Y`` is matrix
normal with mean ``mu 1_n^T`` and column covariance ``sigma``, and ``nu``
is an independent q-dimensional random shift.  Equivalently, columns are
``x_i = mu + B nu + eps_i`` with i.i.d. Gaussian noise — the random
location is drawn once per matrix, so columns are dependent.

This module simulates the full matrix and computes the sample mean and
covariance directly; it is the slow, obviously-correct reference that the
fast product samplers are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .distributions import NuDistribution, finite_array, sample_nu, symmetric_matrix
from .errors import InvalidDimensionError, NotPositiveDefiniteError
from .rng import RngStream


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one location-mixture Gaussian model.

    Every entry must be finite; NaN or infinity raises InvalidInputError.

    Parameters
    ----------
    mu : (p,) ndarray
        Mean vector of the Gaussian part.
    sigma : (p, p) ndarray
        Symmetric positive-definite column covariance.
    b : (p, q) ndarray
        Loading matrix applied to the random shift.
    nu : NuDistribution
        Law of the q-dimensional random shift.
    """

    mu: NDArray
    sigma: NDArray
    b: NDArray
    nu: NuDistribution

    def __post_init__(self):
        mu = finite_array(self.mu, "mu").reshape(-1)
        sigma = finite_array(self.sigma, "sigma")
        b = finite_array(self.b, "b")
        if b.ndim != 2:
            raise InvalidDimensionError("b must be a (p, q) matrix")
        p = mu.shape[0]
        if sigma.shape != (p, p):
            raise InvalidDimensionError("sigma must be (p, p) matching mu")
        if b.shape[0] != p:
            raise InvalidDimensionError("b must have p rows")
        if b.shape[1] != self.nu.q:
            raise InvalidDimensionError(
                f"b has {b.shape[1]} columns but the mixing law has q={self.nu.q}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "b", b)

    @property
    def p(self) -> int:
        return self.mu.shape[0]

    @property
    def q(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class SigmaDecomposition:
    """Eigendecomposition of the column covariance.

    ``eigenvalues`` are ascending and ``eigenvectors`` holds the matching
    orthonormal columns.
    """

    eigenvalues: NDArray
    eigenvectors: NDArray


@dataclass(frozen=True)
class AssumptionReport:
    """Exact maxima of the boundedness conditions behind the CLTs.

    No pass/fail verdict is attached: what counts as "bounded" is a policy
    decision left to the caller.
    """

    lambda_min: float
    lambda_max: float
    max_abs_u_mu: float
    max_abs_u_b: float
    max_abs_u_l: float


@dataclass(frozen=True)
class SampleMoments:
    """Sample mean vectors and sample covariance matrices of data matrices."""

    xbar: NDArray
    s_matrix: NDArray


def decompose_sigma(sigma: NDArray) -> SigmaDecomposition:
    """Eigendecompose a symmetric positive-definite matrix.

    Diagonal input takes an exact fast path (sorted permutation basis);
    otherwise ``numpy.linalg.eigh`` is used.

    Raises
    ------
    NotPositiveDefiniteError
        If the smallest eigenvalue is not strictly positive; the error
        carries that eigenvalue.
    InvalidInputError
        If the input is not symmetric (see :func:`symmetric_matrix`).
    """
    sigma = symmetric_matrix(sigma, "sigma")
    p = sigma.shape[0]
    diag = np.diag(sigma)
    if np.count_nonzero(sigma - np.diag(diag)) == 0:
        order = np.argsort(diag, kind="stable")
        lam = diag[order]
        vec = np.eye(p)[:, order]
    else:
        lam, vec = np.linalg.eigh(sigma)
    lam_min = float(lam[0])
    if lam_min <= 0.0:
        raise NotPositiveDefiniteError(
            f"sigma is not positive definite (lambda_min={lam_min:.3e})", lam_min
        )
    return SigmaDecomposition(eigenvalues=lam, eigenvectors=vec)


def verify_assumptions(model: ModelSpec, l: NDArray) -> AssumptionReport:
    """Report the eigen-basis maxima bounded by the CLT assumptions.

    Computes ``max_i |u_i^T mu|``, ``max_{i,j} |u_i^T b_j|`` and
    ``max_i |u_i^T l|`` together with the spectrum endpoints.
    """
    l = np.asarray(l, dtype=float).reshape(-1)
    if l.shape[0] != model.p:
        raise InvalidDimensionError("l must have length p")
    dec = decompose_sigma(model.sigma)
    u_t = dec.eigenvectors.T
    return AssumptionReport(
        lambda_min=float(dec.eigenvalues[0]),
        lambda_max=float(dec.eigenvalues[-1]),
        max_abs_u_mu=float(np.max(np.abs(u_t @ model.mu))),
        max_abs_u_b=float(np.max(np.abs(u_t @ model.b))) if model.q > 0 else 0.0,
        max_abs_u_l=float(np.max(np.abs(u_t @ l))),
    )


def sample_data_matrix(
    model: ModelSpec, n: int, rng: RngStream, size: int
) -> tuple[NDArray, NDArray]:
    """Draw ``(size, p, n)`` data matrices; returns them with the ``(size, q)`` shifts.

    Matrix k has columns ``x_i = mu + B nu_k + A z_i`` with ``A =
    U diag(sqrt(lambda))`` from :func:`decompose_sigma` (so ``A A^T =
    sigma``) and i.i.d. standard normal ``z_i``.  Draw order per stream:
    the block of shifts, then one ``(size, p, n)`` normal block.
    """
    if n < 2:
        raise InvalidDimensionError("n must be >= 2")
    nus = sample_nu(model.nu, rng, size)
    dec = decompose_sigma(model.sigma)
    z = rng.generator.standard_normal((size, model.p, n))
    root = dec.eigenvectors * np.sqrt(dec.eigenvalues)
    return (model.mu + nus @ model.b.T)[:, :, None] + root @ z, nus


def sample_mean_and_cov(x: NDArray) -> SampleMoments:
    """Sample means and sample covariances of a stack of (p, n) data matrices.

    ``x`` is ``(..., p, n)``; ``xbar`` is ``(..., p)`` and ``s_matrix``
    ``(..., p, p)``.  Uses the unbiased normalization ``S = sum (x_i -
    xbar)(x_i - xbar)^T / (n - 1)``, so that ``(n-1) S`` is Wishart with
    ``n-1`` degrees of freedom (singular Wishart when ``p > n-1``).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise InvalidDimensionError("x must be a (..., p, n) array")
    n = x.shape[-1]
    if n < 2:
        raise InvalidDimensionError("need at least two observations")
    xbar = x.mean(axis=-1)
    centered = x - xbar[..., None]
    s_matrix = np.einsum("...in,...jn->...ij", centered, centered) / (n - 1)
    return SampleMoments(xbar=xbar, s_matrix=s_matrix)
