import numpy as np
import pytest

from locmix.errors import InvalidInputError
from locmix.kde import (
    default_bandwidth_grid,
    epanechnikov_kde,
    ks_statistic,
    lscv_bandwidth,
    lscv_scores,
    summarize,
)


def test_kde_hand_values():
    assert epanechnikov_kde(np.array([0.0]), 1.0, np.array([0.0]))[0] == pytest.approx(0.75)
    assert epanechnikov_kde(np.array([0.0]), 1.0, np.array([2.0]))[0] == 0.0
    vals = epanechnikov_kde(np.array([-1.0, 1.0]), 1.0, np.array([0.0, 1.0]))
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(0.375)


def test_kde_matches_direct_evaluation():
    gen = np.random.default_rng(1)
    samples = gen.standard_normal(500)
    grid = np.linspace(-3, 3, 41)
    h = 0.4
    fast = epanechnikov_kde(samples, h, grid)
    u = (grid[:, None] - samples[None, :]) / h
    direct = (0.75 * np.maximum(1 - u**2, 0.0) * (np.abs(u) <= 1)).sum(axis=1) / (
        len(samples) * h
    )
    np.testing.assert_allclose(fast, direct, atol=1e-12)


def test_kde_validates_inputs():
    with pytest.raises(InvalidInputError):
        epanechnikov_kde(np.array([]), 1.0, np.array([0.0]))
    with pytest.raises(InvalidInputError):
        epanechnikov_kde(np.array([0.0]), 0.0, np.array([0.0]))


def test_kde_normalization_on_covering_grid():
    gen = np.random.default_rng(2)
    samples = gen.standard_normal(20_000)
    h = 0.3
    grid = np.linspace(samples.min() - h, samples.max() + h, 801)
    dens = epanechnikov_kde(samples, h, grid)
    integral = np.trapezoid(dens, grid)
    assert 0.98 <= integral <= 1.0 + 1e-6


def test_lscv_matches_brute_force():
    def brute(s, h):
        n = len(s)
        d = (s[:, None] - s[None, :]) / h
        k = 0.75 * np.maximum(1 - d**2, 0) * (np.abs(d) <= 1)
        ad = np.abs(d)
        kbar = (
            3.0
            / 160.0
            * np.maximum(32 - 40 * d**2 + 20 * ad**3 - ad**5, 0)
            * (ad <= 2)
        )
        int_f2 = kbar.sum() / (n * n * h)
        loo = (k.sum() - n * 0.75) / ((n - 1) * h)
        return int_f2 - 2 * loo / n

    gen = np.random.default_rng(3)
    samples = gen.standard_normal(400)
    grid = np.geomspace(0.05, 1.5, 10)
    fast = lscv_scores(samples, grid)
    ref = np.array([brute(samples, h) for h in grid])
    np.testing.assert_allclose(fast, ref, atol=1e-10)


def test_lscv_single_candidate():
    gen = np.random.default_rng(4)
    samples = gen.standard_normal(100)
    assert lscv_bandwidth(samples, np.array([0.37])) == 0.37


def test_lscv_scale_equivariance():
    gen = np.random.default_rng(5)
    samples = gen.standard_normal(2000)
    grid = np.geomspace(0.05, 1.5, 25)
    h = lscv_bandwidth(samples, grid)
    h_scaled = lscv_bandwidth(2.0 * samples, 2.0 * grid)
    assert h_scaled == 2.0 * h


def test_lscv_near_rule_of_thumb():
    gen = np.random.default_rng(6)
    samples = gen.standard_normal(10_000)
    h = lscv_bandwidth(samples, default_bandwidth_grid(samples))
    rot = 2.34 * 10_000 ** (-0.2)
    assert rot / 2 <= h <= rot * 2


def _direct_lscv(samples, h):
    """LSCV from pairwise gaps summed one sorted offset at a time."""
    s = np.sort(samples)
    n = s.size
    t_k = t_conv = 0.0
    for k in range(1, n):
        d = (s[k:] - s[:-k]) / h
        d = d[d <= 2.0]
        if d.size == 0:
            break
        t_conv += float(np.sum(32.0 - 40.0 * d**2 + 20.0 * d**3 - d**5))
        d = d[d <= 1.0]
        t_k += float(np.sum(1.0 - d**2))
    int_f2 = 3.0 / 160.0 * (32.0 * n + 2.0 * t_conv) / (n * n * h)
    return int_f2 - 4.0 * 0.75 * t_k / ((n - 1) * h * n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lscv_default_grid_interior_and_accurate(seed):
    samples = np.random.default_rng(seed).standard_normal(100_000)
    grid = default_bandwidth_grid(samples)
    h = lscv_bandwidth(samples, grid)
    assert grid[0] < h < grid[-1]
    # The smallest candidates are where the prefix-sum expansions cancel most.
    base = grid[0] / 0.25
    for small in (grid[0], 0.05 * base):
        score = lscv_scores(samples, [small])[0]
        direct = _direct_lscv(samples, small)
        assert abs(score - direct) <= 1e-6 * abs(direct)


def test_lscv_validates_inputs():
    with pytest.raises(InvalidInputError):
        lscv_bandwidth(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(InvalidInputError):
        lscv_bandwidth(np.array([1.0]), np.array([0.5]))


def test_ks_hand_values():
    assert ks_statistic(np.array([0.0])) == pytest.approx(0.5)
    from scipy.special import ndtri

    n = 100
    stratified = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(stratified) == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_exact_normal_sample():
    gen = np.random.default_rng(7)
    assert ks_statistic(gen.standard_normal(100_000)) <= 0.006


def test_summarize_symmetric_two_point():
    report = summarize(np.array([-1.0, 1.0]), bandwidth_grid=np.array([1.0]))
    assert report.skewness == 0.0
    assert report.mean == 0.0


def test_summarize_standard_normal_sample():
    gen = np.random.default_rng(8)
    report = summarize(gen.standard_normal(100_000))
    assert abs(report.mean) <= 0.02
    assert abs(report.variance - 1.0) <= 0.02
    assert report.bandwidth > 0
    assert np.all(report.kde_density >= 0)
    # Emitted estimate integrates to one over the default grid.
    assert np.trapezoid(report.kde_density, report.kde_x) == pytest.approx(1.0, abs=0.02)


def test_summarize_requires_enough_samples():
    with pytest.raises(InvalidInputError):
        summarize(np.array([1.0]))
