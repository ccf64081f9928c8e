import numpy as np
import pytest

from locmix import ProductKind, verify_assumptions
from locmix.errors import InvalidInputError, RegimeError
from locmix.figures import figure_config
from locmix.harness import (
    ExperimentConfig,
    default_nu,
    generate_paper_model,
    run_experiment,
    summarize_experiment,
)
from locmix.kde import ks_statistic


def small_config(**overrides):
    base = dict(
        p=20,
        n=100,
        q=5,
        c=0.2,
        n_reps=2000,
        product=ProductKind.COV_TIMES_MEAN,
        nu=default_nu("tn", 5),
        master_seed=1,
        model_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_generate_paper_model_ranges_and_determinism():
    model = generate_paper_model(30, 10, model_seed=4)
    assert np.all((model.mu >= -1) & (model.mu <= 1))
    assert np.all((model.b >= 0) & (model.b <= 1))
    diag = np.diag(model.sigma)
    assert np.all((diag >= 1e-6) & (diag <= 1))
    assert np.count_nonzero(model.sigma - np.diag(diag)) == 0
    again = generate_paper_model(30, 10, model_seed=4)
    np.testing.assert_array_equal(model.mu, again.mu)
    np.testing.assert_array_equal(model.sigma, again.sigma)
    np.testing.assert_array_equal(model.b, again.b)


def test_generated_model_satisfies_boundedness():
    # Diagonal covariance makes eigenvectors coordinate axes, so the
    # eigen-basis maxima are just the largest entries of mu and B.
    model = generate_paper_model(25, 10, model_seed=5)
    report = verify_assumptions(model, np.ones(25))
    assert report.max_abs_u_mu <= 1.0
    assert report.max_abs_u_b <= 1.0
    assert report.max_abs_u_l == 1.0


def test_config_validation():
    with pytest.raises(InvalidInputError):
        small_config(n_reps=50)
    with pytest.raises(InvalidInputError):
        small_config(c=0.9)
    with pytest.raises(RegimeError):
        small_config(p=99, c=0.99, product=ProductKind.PRECISION_TIMES_MEAN)
    with pytest.raises(InvalidInputError):
        small_config(nu=default_nu("tn", 4))


def test_default_nu_unknown_family():
    with pytest.raises(InvalidInputError):
        default_nu("cauchy", 3)


def test_run_experiment_deterministic():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    np.testing.assert_array_equal(a, b)


def test_run_experiment_thread_invariance():
    cfg = small_config(n_reps=500)
    serial = run_experiment(cfg, threads=1)
    parallel = run_experiment(cfg, threads=3)
    np.testing.assert_array_equal(serial, parallel)


def test_seed_separation():
    cfg_a = small_config(master_seed=1)
    cfg_b = small_config(master_seed=2)
    a = run_experiment(cfg_a)
    b = run_experiment(cfg_b)
    assert not np.array_equal(a, b)
    # The model is controlled by model_seed alone.
    model_a = generate_paper_model(cfg_a.p, cfg_a.q, cfg_a.model_seed)
    model_b = generate_paper_model(cfg_b.p, cfg_b.q, cfg_b.model_seed)
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


def test_summarize_experiment_uses_config_grid():
    cfg = small_config(kde_grid=(-3.0, 3.0, 61), bandwidth_grid=(0.2, 0.3, 0.5))
    sample = run_experiment(cfg)
    report = summarize_experiment(sample, cfg)
    assert report.kde_x.shape == (61,)
    assert report.kde_x[0] == -3.0
    assert report.bandwidth in (0.2, 0.3, 0.5)


def test_figure_table_resolution():
    cfg = figure_config(2, "a", n_reps=1000)
    assert (cfg.p, cfg.n, cfg.c) == (250, 500, 0.5)
    assert cfg.product is ProductKind.COV_TIMES_MEAN
    assert cfg.q == 10
    cfg = figure_config(5, "c", n_reps=1000)
    assert (cfg.p, cfg.n, cfg.c) == (50, 500, 0.1)
    assert cfg.product is ProductKind.PRECISION_TIMES_MEAN
    from locmix.distributions import GeneralizedAsymmetricLaplace

    assert isinstance(cfg.nu, GeneralizedAsymmetricLaplace)
    cfg = figure_config(4, "b", n_reps=1000)
    assert (cfg.p, cfg.n, cfg.c) == (950, 1000, 0.95)
    with pytest.raises(InvalidInputError):
        figure_config(9, "a")
    with pytest.raises(InvalidInputError):
        figure_config(1, "e")
