import sys

import numpy as np
import pytest

from locmix import Degenerate, ProductKind, RngStream
from locmix.errors import InvalidInputError, RegimeError
from locmix.figures import FIGURE_TABLE, PANEL_TABLE, figure_config
import locmix.harness as harness
from locmix.harness import (
    BLOCK_SIZE,
    ExperimentConfig,
    default_nu,
    generate_paper_model,
    run_experiment,
    summarize_experiment,
)
from locmix.kde import DEFAULT_KDE_GRID, default_bandwidth_grid, ks_statistic
from locmix.model import decompose_sigma
from locmix.products import precompute_quadratics, sample_cov_product


def small_config(**overrides):
    base = dict(
        p=20,
        n=100,
        n_reps=2000,
        product=ProductKind.COV_TIMES_MEAN,
        nu=default_nu("tn", 5),
        master_seed=1,
        model_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_generate_paper_model_ranges_and_determinism():
    model = generate_paper_model(30, default_nu("tn", 10), 4)
    assert model.b.shape == (30, 10)
    assert np.all((model.mu >= -1) & (model.mu <= 1))
    assert np.all((model.b >= 0) & (model.b <= 1))
    # Sigma is diagonal and held as its (p,) diagonal.
    assert model.sigma.shape == (30,)
    assert np.all((model.sigma >= 1e-6) & (model.sigma <= 1))
    again = generate_paper_model(30, default_nu("tn", 10), 4)
    np.testing.assert_array_equal(model.mu, again.mu)
    np.testing.assert_array_equal(model.sigma, again.sigma)
    np.testing.assert_array_equal(model.b, again.b)


def test_generated_model_satisfies_boundedness():
    # The paper bounds the projections of mu, the columns of B and l on
    # the eigenvectors of Sigma.  Sigma is diagonal, so its eigenvectors
    # are coordinate axes and the maxima are the largest entries.
    model = generate_paper_model(25, default_nu("tn", 10), 5)
    dec = decompose_sigma(model.sigma)
    assert np.max(np.abs(dec.rotate(model.mu))) <= 1.0
    assert np.max(np.abs(dec.rotate(model.b))) <= 1.0
    assert np.max(np.abs(dec.rotate(np.ones(25)))) == 1.0


def test_config_validation():
    with pytest.raises(InvalidInputError):
        small_config(n_reps=50)
    with pytest.raises(RegimeError):
        small_config(p=99, product=ProductKind.PRECISION_TIMES_MEAN)
    with pytest.raises(InvalidInputError, match="q must be >= 1"):
        small_config(nu=Degenerate(np.zeros(0)))


def test_default_nu_unknown_family():
    with pytest.raises(InvalidInputError):
        default_nu("cauchy", 3)


def test_run_experiment_deterministic():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    np.testing.assert_array_equal(a, b)


def test_run_experiment_thread_invariance():
    # Several blocks and a partial last one, split over 3 threads that
    # share one model and cache; a short switch interval makes them interleave.
    cfg = small_config(n_reps=2 * BLOCK_SIZE + 17)
    serial = run_experiment(cfg, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_experiment(cfg, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert serial.shape == (cfg.n_reps,)
    np.testing.assert_array_equal(serial, parallel)


def test_draw_blocks_equals_per_block_draws_by_hand():
    # Block b draws min(BLOCK_SIZE, count - b * BLOCK_SIZE) replicates on
    # stream first + b; every array the sampler returns is concatenated.
    cache = precompute_quadratics(generate_paper_model(6, default_nu("tn", 2), 3), np.ones(6))
    count, first = 2 * BLOCK_SIZE + 17, 5
    values, nus = harness.draw_blocks(count, 9, first, sample_cov_product, cache, 40)
    by_hand = [
        sample_cov_product(cache, 40, RngStream(9, first + b), size)
        for b, size in enumerate([BLOCK_SIZE, BLOCK_SIZE, 17])
    ]
    np.testing.assert_array_equal(values, np.concatenate([v for v, _ in by_hand]))
    np.testing.assert_array_equal(nus, np.concatenate([u for _, u in by_hand]))


@pytest.mark.parametrize("threads", [1, 3])
def test_run_experiment_builds_model_once(monkeypatch, threads):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_paper_model(*args, **kwargs)

    monkeypatch.setattr(harness, "generate_paper_model", counting)
    run_experiment(small_config(n_reps=BLOCK_SIZE + 1), threads=threads)
    assert len(calls) == 1


def test_seed_separation():
    cfg_a = small_config(master_seed=1)
    cfg_b = small_config(master_seed=2)
    a = run_experiment(cfg_a)
    b = run_experiment(cfg_b)
    assert not np.array_equal(a, b)
    # The model is controlled by model_seed alone.
    model_a = generate_paper_model(cfg_a.p, cfg_a.nu, cfg_a.model_seed)
    model_b = generate_paper_model(cfg_b.p, cfg_b.nu, cfg_b.model_seed)
    np.testing.assert_array_equal(model_a.mu, model_b.mu)


def test_standardized_mean_small():
    cfg = figure_config(1, "a", n_reps=10_000, master_seed=3, model_seed=0)
    sample = run_experiment(cfg)
    assert abs(sample.mean()) < 0.05
    assert ks_statistic(sample) < 0.03


def test_precision_experiment_runs():
    cfg = small_config(product=ProductKind.PRECISION_TIMES_MEAN, n_reps=2000)
    sample = run_experiment(cfg)
    assert sample.shape == (2000,)
    assert np.all(np.isfinite(sample))


def test_summarize_experiment_scores_on_default_grids():
    sample = run_experiment(small_config())
    report = summarize_experiment(sample)
    np.testing.assert_array_equal(report.kde_x, np.linspace(*DEFAULT_KDE_GRID))
    assert report.bandwidth in default_bandwidth_grid(sample)


def test_figure_table_resolution():
    def resolve(figure, panel):
        return figure_config(figure, panel, n_reps=1000, master_seed=1, model_seed=0)

    cfg = resolve(2, "a")
    assert (cfg.p, cfg.n) == (250, 500)
    assert cfg.product is ProductKind.COV_TIMES_MEAN
    assert cfg.nu.q == 10
    cfg = resolve(5, "c")
    assert (cfg.p, cfg.n) == (50, 500)
    assert cfg.product is ProductKind.PRECISION_TIMES_MEAN
    from locmix.distributions import GeneralizedAsymmetricLaplace

    assert isinstance(cfg.nu, GeneralizedAsymmetricLaplace)
    cfg = resolve(4, "b")
    assert (cfg.p, cfg.n) == (950, 1000)
    # Every panel standardizes at exactly its figure's c = p / n.
    for figure, row in FIGURE_TABLE.items():
        for panel in PANEL_TABLE:
            cfg = resolve(figure, panel)
            assert cfg.p / cfg.n == row["c"]
    with pytest.raises(InvalidInputError):
        resolve(9, "a")
    with pytest.raises(InvalidInputError):
        resolve(1, "e")
