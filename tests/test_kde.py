import re
import sys
import tracemalloc

import numpy as np
import pytest

from locmix import kde
from locmix.errors import InvalidInputError
from locmix.kde import (
    _merge_bounds,
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


@pytest.mark.parametrize(
    "draw, n, rel_tol",
    [
        (lambda gen, n: gen.standard_normal(n), 5_000, 1e-10),
        # Heavy tails: blocks sized by count span many bandwidths out there.
        (lambda gen, n: gen.standard_t(3, n), 5_000, 2e-8),
        # At the largest candidates one block spans two to three chunks.
        (lambda gen, n: gen.standard_normal(n), 20_000, 1e-10),
    ],
    ids=["normal", "t3", "normal-multichunk"],
)
def test_lscv_accurate_across_default_grid(draw, n, rel_tol):
    samples = draw(np.random.default_rng(0), n)
    grid = default_bandwidth_grid(samples)[[0, 7, 14, 21, 29]]
    scores = lscv_scores(samples, grid)
    for h, score in zip(grid, scores):
        direct = _direct_lscv(samples, h)
        assert abs(score - direct) <= rel_tol * abs(direct)


@pytest.mark.parametrize("seed", [0, 1])
def test_lscv_accurate_on_tied_samples(seed):
    # Rounding to 0.01 leaves about 40 copies of each central value, so many
    # gaps are exactly zero and many windows end on a run of ties.
    samples = np.round(np.random.default_rng(seed).standard_normal(5_000), 2)
    grid = default_bandwidth_grid(samples)[[0, 7, 14, 21, 29]]
    scores = lscv_scores(samples, grid)
    for h, score in zip(grid, scores):
        direct = _direct_lscv(samples, h)
        assert abs(score - direct) <= 2e-9 * abs(direct)


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
def test_lscv_two_point_sample_on_window_edges(h):
    # The one nonzero gap, 1, lies exactly on the K*K edge at h = 0.5 and on
    # the K edge at h = 1; both windows include their edge.
    samples = np.concatenate([np.zeros(3_000), np.ones(2_000)])
    score = lscv_scores(samples, [h])[0]
    direct = _direct_lscv(samples, h)
    assert abs(score - direct) <= 1e-12 * abs(direct)


@pytest.mark.parametrize(
    "s, keys",
    [
        (np.sort(np.round(np.random.default_rng(0).standard_normal(3_000), 2)),) * 2,
        (np.array([-0.0, -0.0, 0.0, 0.0, 1.0]), np.array([-0.0, 0.0, 0.0, 1.0, 1.0])),
        (np.array([0.0, 0.0, -0.0, 2.0]), np.array([-1.0, -0.0, 0.0, 0.0])),
        (np.arange(10.0), np.linspace(-30.0, -20.0, 10)),
        (np.arange(10.0), np.linspace(20.0, 30.0, 10)),
        (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        (np.array([-1.0, 3.0]), np.array([-4.0, 3.0])),
    ],
    ids=["ties", "signed-zeros", "zeros-against-zeros", "all-below", "all-above",
         "n2-tied", "n2"],
)
def test_merge_bounds_is_searchsorted_left(s, keys):
    # Ties go left (a key lands ahead of equal samples), and -0.0 == 0.0.
    # The second merge into the workspace finds the first one's scratch in
    # its buffers and the first one's bounds in ``out``.
    expected = np.searchsorted(s, keys, side="left")
    ws = kde._Workspace(s.size)
    out = np.empty(s.size, dtype=np.intp)
    for merge_keys in (s + 1.0, keys):
        ws.merged[: s.size] = merge_keys
        assert _merge_bounds(s, ws, out) is out
    np.testing.assert_array_equal(out, expected)


def test_merge_bounds_on_shifted_ties():
    # The keys LSCV merges: the tied sample shifted by a bandwidth, with
    # signed zeros among the ties, written where LSCV writes them, into the
    # buffers of one workspace.
    s = np.round(np.random.default_rng(1).standard_normal(3_000), 2)
    s[s == 0.0] = np.tile([-0.0, 0.0], s.size)[: np.count_nonzero(s == 0.0)]
    s = np.sort(s)
    ws = kde._Workspace(s.size)
    for shift in (0.0, 0.01, 0.3, 0.25, 7.0, -0.0, 10.0, -10.0):
        keys = np.subtract(s, shift, out=ws.merged[: s.size])
        expected = np.searchsorted(s, keys, side="left")
        np.testing.assert_array_equal(_merge_bounds(s, ws, ws.lo_k), expected)
        if abs(shift) == 10.0:  # every key below, then above, every sample
            assert set(expected) == {0 if shift > 0 else s.size}


def test_candidate_scratch_lives_in_the_workspace():
    # With a prepared workspace, one candidate allocates only a merge's sort
    # order and key positions, 1.6 MB at N = 100 000; fresh merge scratch
    # for both windows would peak at 5.6 MB.
    s = np.sort(np.random.default_rng(3).standard_normal(100_000))
    ws = kde._Workspace(s.size)
    tracemalloc.start()
    try:
        kde._pairwise_kernel_sums(s, 0.2, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_lscv_thread_invariance():
    # Contiguous candidate ranges on 3 threads, each with its own buffers,
    # while the interpreter switches threads as often as it can.
    samples = np.random.default_rng(12).standard_t(5, 20_000)
    grid = default_bandwidth_grid(samples)
    serial = lscv_scores(samples, grid, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = lscv_scores(samples, grid, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, parallel)
    assert lscv_bandwidth(samples, grid, threads=3) == lscv_bandwidth(samples, grid)


def test_lscv_threads_capped(monkeypatch):
    # More threads than the cap score in at most _MAX_SCORE_THREADS ranges.
    ranges = []
    score_range = kde._score_range
    monkeypatch.setattr(
        kde, "_score_range", lambda s, hs: ranges.append(hs.size) or score_range(s, hs)
    )
    samples = np.random.default_rng(13).standard_normal(3_000)
    grid = default_bandwidth_grid(samples)
    scores = lscv_scores(samples, grid, threads=8)
    assert len(ranges) == kde._MAX_SCORE_THREADS and sum(ranges) == grid.size
    monkeypatch.undo()
    assert np.array_equal(scores, lscv_scores(samples, grid))


def test_lscv_validates_inputs():
    with pytest.raises(InvalidInputError):
        lscv_bandwidth(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(InvalidInputError):
        lscv_bandwidth(np.array([1.0]), np.array([0.5]))
    with pytest.raises(InvalidInputError):
        lscv_scores(np.array([1.0, 2.0]), np.array([0.5]), threads=0)


def test_ks_hand_values():
    assert ks_statistic(np.array([0.0])) == pytest.approx(0.5)
    from scipy.special import ndtri

    n = 100
    stratified = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(stratified) == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_exact_normal_sample():
    gen = np.random.default_rng(7)
    assert ks_statistic(gen.standard_normal(100_000)) <= 0.006


def _ks_ndtr_reference(samples):
    from scipy.special import ndtr

    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    cdf = ndtr(s)
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


def _tails(gen):
    # |x| in [30, 40]: Phi underflows to subnormals and 0 below, rounds to 1 above.
    tail = gen.uniform(30.0, 40.0, size=200)
    return np.concatenate([-tail[:100], gen.standard_normal(1000), tail[100:]])


@pytest.mark.parametrize(
    "draw",
    [
        lambda gen: gen.standard_normal(100_000),
        lambda gen: gen.standard_t(3, size=100_000),
        lambda gen: 3.0 + 2.0 * gen.standard_normal(100_000),
        lambda gen: -0.5 + 0.25 * gen.standard_normal(100_000),
        lambda gen: np.array([0.7]),
        lambda gen: np.array([-35.0]),
        lambda gen: np.array([0.1, -0.2]),
        lambda gen: np.array([30.0, -38.5]),
        _tails,
        lambda gen: gen.uniform(30.0, 40.0, size=50),
        lambda gen: -gen.uniform(30.0, 40.0, size=50),
    ],
    ids=[
        "normal", "t3", "shift-scale-up", "shift-scale-down", "n1", "n1-tail",
        "n2", "n2-tails", "tails-and-bulk", "upper-tail", "lower-tail",
    ],
)
def test_ks_matches_ndtr_reference(draw):
    samples = draw(np.random.default_rng(11))
    assert ks_statistic(samples) == pytest.approx(_ks_ndtr_reference(samples), rel=0, abs=1e-15)


def test_summarize_symmetric_two_point():
    report = summarize(np.array([-1.0, 1.0]))
    assert report.skewness == 0.0
    assert report.mean == 0.0


def test_summarize_standard_normal_sample():
    gen = np.random.default_rng(8)
    report = summarize(gen.standard_normal(100_000))
    assert abs(report.mean) <= 0.02
    assert abs(report.variance - 1.0) <= 0.02
    assert report.bandwidth > 0
    assert not report.bandwidth_on_grid_edge
    assert np.all(report.kde_density >= 0)
    # Emitted estimate integrates to one over the default grid.
    assert np.trapezoid(report.kde_density, report.kde_x) == pytest.approx(1.0, abs=0.02)


def test_summarize_flags_argmin_on_grid_edge():
    # Two tight clusters far apart: the sd, and with it every default
    # candidate, is set by the gap, while the clusters want a bandwidth far
    # below it, so the smallest candidate wins.
    gen = np.random.default_rng(9)
    noise = 1e-3 * gen.standard_normal((2, 2500))
    samples = np.concatenate([-10.0 + noise[0], 10.0 + noise[1]])
    report = summarize(samples)
    assert report.bandwidth == default_bandwidth_grid(samples)[0]
    assert report.bandwidth_on_grid_edge


def test_summarize_requires_enough_samples():
    with pytest.raises(InvalidInputError):
        summarize(np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lscv_rejects_non_finite_bandwidths(bad):
    samples = np.random.default_rng(12).standard_normal(1000)
    with pytest.raises(InvalidInputError, match="finite"):
        lscv_scores(samples, [0.1, bad])
    with pytest.raises(InvalidInputError, match="finite"):
        lscv_bandwidth(samples, [0.1, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "score",
    [
        ks_statistic,
        summarize,
        default_bandwidth_grid,
        lambda s: lscv_scores(s, [0.5]),
        lambda s: epanechnikov_kde(s, 0.5, np.zeros(3)),
    ],
    ids=["ks", "summarize", "default-grid", "lscv", "kde"],
)
def test_scores_reject_non_finite_samples(score, bad):
    samples = np.random.default_rng(13).standard_normal(1000)
    samples[17] = bad
    with pytest.raises(InvalidInputError, match="samples must be finite"):
        score(samples)


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e300], ids=["zero", "underflow", "overflow"])
@pytest.mark.parametrize("score", [summarize, default_bandwidth_grid], ids=["summarize", "grid"])
def test_spread_outside_bandwidth_range_is_named(score, scale):
    # The standard deviation reads 0 at scales 0 and 1e-300 and overflows
    # at 1e300; no bandwidth grid around it can be scored.
    samples = scale * np.random.default_rng(15).standard_normal(500)
    with pytest.raises(InvalidInputError, match="sample standard deviation"):
        score(samples)


@pytest.mark.parametrize("h", [1e-300, 1e300, 0.0])
@pytest.mark.parametrize(
    "score",
    [lambda s, h: lscv_scores(s, [0.5, h]), lambda s, h: epanechnikov_kde(s, h, np.zeros(3))],
    ids=["lscv", "kde"],
)
def test_bandwidth_outside_range_is_named(score, h):
    samples = np.random.default_rng(16).standard_normal(1000)
    message = re.escape(f"must lie in [1e-50, 1e+50] (got {h:g})")
    with pytest.raises(InvalidInputError, match=message):
        score(samples, h)


@pytest.mark.parametrize("power", [-150, 150])
def test_lscv_scales_exactly_near_the_bandwidth_range_edges(power):
    # Scaling by 2^power (about 1e-45 or 1e45) is exact, so every score is too.
    samples = np.random.default_rng(17).standard_normal(3000)
    grid, scale = default_bandwidth_grid(samples), 2.0**power
    scores = lscv_scores(scale * samples, scale * grid)
    assert np.array_equal(scores, lscv_scores(samples, grid) / scale)
    bandwidth = summarize(scale * samples).bandwidth
    assert bandwidth == pytest.approx(scale * summarize(samples).bandwidth)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kde_rejects_non_finite_bandwidth_and_grid(bad):
    samples = np.random.default_rng(14).standard_normal(100)
    with pytest.raises(InvalidInputError, match="finite"):
        epanechnikov_kde(samples, bad, np.zeros(3))
    with pytest.raises(InvalidInputError, match="finite"):
        epanechnikov_kde(samples, 0.5, np.array([0.0, bad]))
