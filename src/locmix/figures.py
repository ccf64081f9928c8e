"""Figure-panel configurations of the simulation study, kept as data.

Figures 1-4 show the covariance product and 5-8 the precision product at
concentration ratios 0.1, 0.5, 0.8, 0.95.  Panels (a)/(b) use half-normal
mixing at n = 500 / 1000, panels (c)/(d) the asymmetric-Laplace mixing at
the same sizes, always with p = c * n and q = 10.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .harness import ExperimentConfig, default_nu
from .products import ProductKind

DEFAULT_Q = 10

# figure -> (product, c); panel -> (p, n, mixing family)
FIGURE_TABLE: dict[int, dict] = {
    1: {"product": "cov", "c": 0.1},
    2: {"product": "cov", "c": 0.5},
    3: {"product": "cov", "c": 0.8},
    4: {"product": "cov", "c": 0.95},
    5: {"product": "precision", "c": 0.1},
    6: {"product": "precision", "c": 0.5},
    7: {"product": "precision", "c": 0.8},
    8: {"product": "precision", "c": 0.95},
}

PANEL_TABLE: dict[str, dict] = {
    "a": {"n": 500, "family": "tn"},
    "b": {"n": 1000, "family": "tn"},
    "c": {"n": 500, "family": "gal"},
    "d": {"n": 1000, "family": "gal"},
}


def figure_config(
    figure: int,
    panel: str,
    n_reps: int = 100_000,
    master_seed: int = 0,
    model_seed: int = 0,
) -> ExperimentConfig:
    """Resolve a figure/panel pair into a runnable experiment config."""
    if figure not in FIGURE_TABLE:
        raise InvalidInputError(f"unknown figure {figure!r} (expected 1..8)")
    if panel not in PANEL_TABLE:
        raise InvalidInputError(f"unknown panel {panel!r} (expected a..d)")
    fig = FIGURE_TABLE[figure]
    pan = PANEL_TABLE[panel]
    n = pan["n"]
    p = round(fig["c"] * n)
    return ExperimentConfig(
        p=p,
        n=n,
        n_reps=n_reps,
        product=ProductKind(fig["product"]),
        nu=default_nu(pan["family"], DEFAULT_Q),
        master_seed=master_seed,
        model_seed=model_seed,
    )
