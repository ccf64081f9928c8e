"""Monte Carlo experiment engine for the product-statistic CLT study.

One experiment draws N independent standardized realizations of a product
statistic under a randomly generated model: each replicate draws its own
location shift, generates the product through its exact stochastic
representation, and is centred/scaled with that replicate's shift.
Replicate ``i`` always consumes stream ``i`` of the experiment's master
seed, so results are bit-identical for any degree of parallelism.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
from .products import (
    ProductKind,
    precompute_quadratics,
    sample_cov_product,
    sample_precision_product,
)
from .rng import RngStream

logger = logging.getLogger(__name__)

_MIN_SIGMA_ENTRY = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one Monte Carlo experiment.

    ``c`` must match ``p/n`` up to ``n**-0.5``; the precision product
    additionally needs ``p < n - 1``.  ``bandwidth_grid=None`` selects the
    default data-driven candidate grid at scoring time.
    """

    p: int
    n: int
    q: int
    c: float
    n_reps: int
    product: ProductKind
    nu: NuDistribution
    master_seed: int
    model_seed: int
    kde_grid: tuple[float, float, int] = (-4.0, 4.0, 201)
    bandwidth_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.p < 1 or self.n < 2 or self.q < 1:
            raise InvalidInputError("p, q must be >= 1 and n >= 2")
        if self.n_reps < 100:
            raise InvalidInputError("n_reps must be >= 100")
        if abs(self.p / self.n - self.c) > self.n**-0.5:
            raise InvalidInputError(
                f"c={self.c} is not within n^-1/2 of p/n={self.p / self.n:.6g}"
            )
        if self.product is ProductKind.PRECISION_TIMES_MEAN and self.p >= self.n - 1:
            raise RegimeError("precision product needs p < n - 1")
        if self.nu.q != self.q:
            raise InvalidInputError("mixing law dimension must equal q")


def default_nu(family: str, q: int) -> NuDistribution:
    """The two mixing laws of the simulation study, by short name."""
    if family == "tn":
        return TruncatedNormalAbs(np.eye(q))
    if family == "gal":
        return GeneralizedAsymmetricLaplace(np.ones(q), np.eye(q), 10.0)
    raise InvalidInputError(f"unknown mixing family {family!r} (expected 'tn' or 'gal')")


def generate_paper_model(
    p: int, q: int, model_seed: int, nu: NuDistribution | None = None
) -> ModelSpec:
    """Random model of the simulation study, deterministic in its seed.

    Mean entries are Uniform[-1, 1], loading entries Uniform[0, 1], and
    the covariance is diagonal with Uniform[0, 1] entries; diagonal
    entries below 1e-6 are resampled (the spectrum must stay bounded away
    from zero) and the event is logged.  Draw order: mu, b, diagonal.
    """
    gen = RngStream(model_seed, 0).generator
    mu = gen.uniform(-1.0, 1.0, size=p)
    b = gen.uniform(0.0, 1.0, size=(p, q))
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
    if nu is None:
        nu = TruncatedNormalAbs(np.eye(q))
    return ModelSpec(mu=mu, sigma=np.diag(diag), b=b, nu=nu)


def _draw_range(cfg: ExperimentConfig, start: int, count: int) -> tuple[NDArray, NDArray]:
    """Raw draws and their shifts for replicates [start, start+count), one stream each."""
    model = generate_paper_model(cfg.p, cfg.q, cfg.model_seed, nu=cfg.nu)
    l = np.ones(cfg.p)
    cache = precompute_quadratics(model, l)
    sampler = (
        sample_cov_product
        if cfg.product is ProductKind.COV_TIMES_MEAN
        else sample_precision_product
    )
    values = np.empty(count)
    nus = np.empty((count, cfg.q))
    for i in range(count):
        rng = RngStream(cfg.master_seed, start + i)
        values[i], nus[i] = sampler(model, l, cfg.n, rng, cache=cache)
    return values, nus


def run_experiment(cfg: ExperimentConfig, threads: int | None = 1) -> NDArray:
    """Produce the (n_reps,) standardized sample of one experiment.

    ``threads`` only controls how replicate ranges are spread over worker
    processes; the output is identical for every value.
    """
    n_workers = threads if threads and threads > 1 else 1
    if n_workers == 1:
        values, nus = _draw_range(cfg, 0, cfg.n_reps)
    else:
        bounds = np.unique(np.linspace(0, cfg.n_reps, n_workers + 1).astype(int)).tolist()
        starts, counts = bounds[:-1], np.diff(bounds).tolist()
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_draw_range, [cfg] * len(starts), starts, counts))
        values = np.concatenate([v for v, _ in parts])
        nus = np.concatenate([m for _, m in parts])
    model = generate_paper_model(cfg.p, cfg.q, cfg.model_seed, nu=cfg.nu)
    return standardize(values, nus, model, np.ones(cfg.p), cfg.c, cfg.n, cfg.product)


def summarize_experiment(standardized: NDArray, cfg: ExperimentConfig) -> GofReport:
    """Score a finished experiment with the config's grids."""
    lo, hi, points = cfg.kde_grid
    grid = np.linspace(lo, hi, points)
    bw_grid = None if cfg.bandwidth_grid is None else np.asarray(cfg.bandwidth_grid)
    return summarize(standardized, kde_grid=grid, bandwidth_grid=bw_grid)
