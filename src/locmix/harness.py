"""Monte Carlo experiment engine for the product-statistic CLT study.

One experiment draws N independent standardized realizations of a product
statistic under a randomly generated model: each replicate draws its own
location shift, generates the product through its exact stochastic
representation, and is centred/scaled with that replicate's shift.

Replicates are drawn in blocks of :data:`BLOCK_SIZE`: block ``b`` holds
replicates ``[b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE)`` (the last block may
be shorter) and is drawn by one sampler call with ``size`` set to its
length, from stream ``b`` of the experiment's master seed.  Threads take
contiguous ranges of whole blocks and share one model and one
:class:`~locmix.products.QuadraticCache`, so results are bit-identical
for any degree of parallelism.  Changing ``BLOCK_SIZE`` changes every
draw; the manifest records it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.typing import NDArray

from .asymptotics import standardize
from .distributions import (
    GeneralizedAsymmetricLaplace,
    NuDistribution,
    TruncatedNormalAbs,
)
from .errors import InvalidInputError, RegimeError
from .kde import GofReport, summarize
from .model import ModelSpec
from .parallel import map_ranges
from .products import (
    ProductKind,
    QuadraticCache,
    precompute_quadratics,
    sample_cov_product,
    sample_precision_product,
)
from .rng import RngStream

logger = logging.getLogger(__name__)

_MIN_SIGMA_ENTRY = 1e-6

# Replicates per stream: part of the reproducibility contract.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one Monte Carlo experiment.

    The shift dimension ``q`` is that of ``nu``, and every replicate is
    standardized at the aspect ratio ``c = p / n``.  The precision product
    additionally needs ``p < n - 1``.
    """

    p: int
    n: int
    n_reps: int
    product: ProductKind
    nu: NuDistribution
    master_seed: int
    model_seed: int

    def __post_init__(self):
        if self.p < 1 or self.n < 2 or self.nu.q < 1:
            raise InvalidInputError("p, q must be >= 1 and n >= 2")
        if self.n_reps < 100:
            raise InvalidInputError("n_reps must be >= 100")
        if self.product is ProductKind.PRECISION_TIMES_MEAN and self.p >= self.n - 1:
            raise RegimeError("precision product needs p < n - 1")


def default_nu(family: str, q: int) -> NuDistribution:
    """The two mixing laws of the simulation study, by short name."""
    if q < 1:
        raise InvalidInputError(f"q must be >= 1 (got {q})")
    if family == "tn":
        return TruncatedNormalAbs(np.eye(q))
    if family == "gal":
        return GeneralizedAsymmetricLaplace(np.ones(q), np.eye(q), 10.0)
    raise InvalidInputError(f"unknown mixing family {family!r} (expected 'tn' or 'gal')")


def generate_paper_model(p: int, nu: NuDistribution, model_seed: int) -> ModelSpec:
    """Random model of the simulation study with mixing law ``nu``.

    Deterministic in its seed.  The loading has ``nu.q`` columns.  Mean
    entries are Uniform[-1, 1], loading entries Uniform[0, 1], and the
    covariance is diagonal with Uniform[0, 1] entries; diagonal entries
    below 1e-6 are resampled (the spectrum must stay bounded away from
    zero) and the event is logged.  Draw order: mu, b, diagonal.
    """
    gen = RngStream(model_seed, 0).generator
    mu = gen.uniform(-1.0, 1.0, size=p)
    b = gen.uniform(0.0, 1.0, size=(p, nu.q))
    diag = gen.uniform(0.0, 1.0, size=p)
    n_resampled = 0
    while np.any(diag < _MIN_SIGMA_ENTRY):
        small = diag < _MIN_SIGMA_ENTRY
        n_resampled += int(np.count_nonzero(small))
        diag[small] = gen.uniform(0.0, 1.0, size=int(np.count_nonzero(small)))
    if n_resampled:
        logger.info(
            "resampled %d near-zero covariance entries (threshold %g)",
            n_resampled,
            _MIN_SIGMA_ENTRY,
        )
    return ModelSpec(mu=mu, sigma=np.diag(diag), b=b, nu=nu)


def _draw_range(
    cfg: ExperimentConfig, cache: QuadraticCache, first_block: int, stop_block: int
) -> NDArray:
    """Standardized draws of blocks [first_block, stop_block).

    Block ``b`` is drawn from ``RngStream(master_seed, b)`` and
    standardized as soon as it is drawn, so no ``(n_reps, q)`` array of
    shifts is kept.
    """
    sampler = (
        sample_cov_product
        if cfg.product is ProductKind.COV_TIMES_MEAN
        else sample_precision_product
    )
    offset = first_block * BLOCK_SIZE
    out = np.empty(min(stop_block * BLOCK_SIZE, cfg.n_reps) - offset)
    for block in range(first_block, stop_block):
        start = block * BLOCK_SIZE - offset
        count = min(BLOCK_SIZE, out.size - start)
        rng = RngStream(cfg.master_seed, block)
        values, nus = sampler(cache, cfg.n, rng, count)
        z = standardize(values, nus, cache, cfg.n, cfg.product)
        out[start : start + count] = z
    return out


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> NDArray:
    """Produce the (n_reps,) standardized sample of one experiment.

    Builds the model and its rotation once.  ``threads`` (at least 1) only
    controls how contiguous block ranges are spread over threads that
    share them; the output is identical for every value.
    """
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1 (got {threads})")
    model = generate_paper_model(cfg.p, cfg.nu, cfg.model_seed)
    cache = precompute_quadratics(model, np.ones(cfg.p))
    n_blocks = -(-cfg.n_reps // BLOCK_SIZE)
    return map_ranges(partial(_draw_range, cfg, cache), n_blocks, threads)


def summarize_experiment(standardized: NDArray, *, threads: int = 1) -> GofReport:
    """Score a finished experiment on ``threads`` threads: :func:`~locmix.kde.summarize`."""
    return summarize(standardized, threads=threads)
