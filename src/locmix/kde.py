"""Epanechnikov density estimation, bandwidth cross-validation, and fit scores.

All pairwise kernel sums needed by least-squares cross-validation are
evaluated in closed form: for sorted samples the Epanechnikov kernel and
its self-convolution are polynomials of the pairwise gaps, each written
once as a row of coefficients, so window sums reduce to prefix sums of
sample powers contracted with one Taylor matrix per kernel.  After one
sort, each bandwidth costs O(N): the window bounds come from a stable
merge of the shifted sample with the sample (no binary search), and the
merge scratch, window bounds, prefix sums and chunk products go into
buffers allocated once per scoring thread of an :func:`lscv_scores` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .distributions import finite_array
from .errors import InvalidInputError
from .parallel import map_ranges

# Self-convolution of the Epanechnikov kernel: (K*K)(d) for |d| <= 2.
# Verified against numerical quadrature; integrates to 1 over [-2, 2].
_CONV_COEF = 3.0 / 160.0  # (K*K)(d) = coef * (32 - 40 d^2 + 20 d^3 - d^5)

# Fewest sorted samples that share one anchor of the gap-power expansions.
_MIN_BLOCK = 2048

# Samples per pass of the Taylor contractions: small enough that a chunk's
# working arrays stay in cache.
_CHUNK = 8192

# Most threads that score candidates at once.  Each holds about 13.5 MB of
# buffers and sort temporaries at N = 100 000, while the numpy call
# overhead of the chunked contractions holds the GIL: on 2 cores, 2 threads
# scored 1.44 times as fast as 1, which puts the serial share near 40%.
# By Amdahl's law 4 threads then reach 1.8 times and 8 threads 2.1 times,
# of at most 2.6 times for any count.
_MAX_SCORE_THREADS = 4

# Default KDE evaluation grid, as (lo, hi, points) of ``np.linspace``.
DEFAULT_KDE_GRID = (-4.0, 4.0, 201)

# Number of log-spaced candidates in the default bandwidth grid.
_BANDWIDTH_CANDIDATES = 30


def epanechnikov_kde(samples: NDArray, bandwidth: float, grid: NDArray) -> NDArray:
    """Evaluate the Epanechnikov kernel density estimate on a grid.

    ``f(x) = (3/4) / (N h) * sum_i (1 - u_i^2)`` over samples with
    ``|u_i| = |x - s_i| / h <= 1``.  Window sums use sorted prefix sums,
    so cost is O((N + G) log N) rather than O(N G).
    """
    samples = finite_array(samples, "samples").reshape(-1)
    grid = finite_array(grid, "KDE grid").reshape(-1)
    h = float(finite_array(bandwidth, "bandwidth"))
    if samples.size == 0:
        raise InvalidInputError("samples must be nonempty")
    if h <= 0:
        raise InvalidInputError("bandwidth must be positive")
    s = np.sort(samples)
    n = s.size
    p0 = np.arange(n + 1, dtype=float)
    p1 = np.concatenate(([0.0], np.cumsum(s)))
    p2 = np.concatenate(([0.0], np.cumsum(s * s)))
    lo = np.searchsorted(s, grid - h, side="left")
    hi = np.searchsorted(s, grid + h, side="right")
    cnt = p0[hi] - p0[lo]
    s1 = p1[hi] - p1[lo]
    s2 = p2[hi] - p2[lo]
    # sum (1 - (x - s)^2 / h^2) over the window, expanded in powers of s.
    vals = cnt - (grid * grid * cnt - 2.0 * grid * s1 + s2) / (h * h)
    return 0.75 / (n * h) * np.maximum(vals, 0.0)


class _Workspace:
    """Buffers that one thread reuses for every candidate it scores.

    ``prefix`` row m holds the prefix sums of ``t^m`` over a block, with
    exact counts in row 0 and zeros in column 0; ``powers`` to ``index``
    hold one chunk; ``merged`` to ``lo_c`` are the scratch of
    :func:`_merge_bounds` and the two windows' starts.
    """

    def __init__(self, n: int):
        self.prefix = np.zeros((6, n + 1))
        self.prefix[0] = np.arange(n + 1)
        self.t = np.empty(n)
        self.power = np.empty(n)
        chunk = min(_CHUNK, n)
        self.powers = np.ones((6, chunk))
        self.w = np.empty((6, chunk))
        self.q = np.empty((6, chunk))
        self.index = np.empty(chunk, dtype=np.intp)
        self.merged = np.empty(2 * n)
        self.is_key = np.empty(2 * n, dtype=bool)
        self.positions = np.arange(n)
        self.lo_k = np.empty(n, dtype=np.intp)
        self.lo_c = np.empty(n, dtype=np.intp)


def _merge_bounds(s: NDArray, ws: _Workspace, out: NDArray) -> NDArray:
    """``np.searchsorted(s, keys, side="left")`` into ``out``, by merge.

    The caller writes the ``keys``, sorted and as many as the samples, into
    ``ws.merged[:n]``; the samples are copied after them.  A stable sort of
    the two sorted runs merges them in linear time.  Keys go first, so each
    key lands ahead of the samples equal to it, and the samples ahead of
    key i number its merged position minus i.  Only the sort order and
    the merged positions of the keys are new arrays.
    """
    n = s.size
    ws.merged[n:] = s
    np.less(ws.merged.argsort(kind="stable"), n, out=ws.is_key)
    return np.subtract(np.flatnonzero(ws.is_key), ws.positions, out=out)


def _taylor(coef: tuple[float, ...]) -> NDArray:
    """Row m: the coefficients in x of ``Q_m(x) = (-1)^m P^(m)(x) / m!``.

    For ``P(d) = sum_k coef[k] d^k`` the binomial expansion of each gap
    power gives ``sum_j P(x - t_j) = sum_m Q_m(x) sum_j t_j^m``.
    """
    deg = len(coef) - 1
    taylor = np.zeros((deg + 1, deg + 1))
    for m in range(deg + 1):
        for e in range(deg + 1 - m):
            taylor[m, e] = (-1) ** m * math.comb(m + e, m) * coef[m + e]
    return taylor


def _pairwise_kernel_sums(s: NDArray, h: float, ws: _Workspace) -> tuple[float, float]:
    """(sum_{i<j} K(d_ij/h), sum_{i<j} (K*K)(d_ij/h)) for sorted s.

    Each kernel is a polynomial in the gap ``d = x - t`` to a smaller
    sample ``t``, on a window of gaps up to h (K) or 2h (K*K) whose start
    is found by a linear merge.  Its window sum at ``x`` contracts the
    kernel's :func:`_taylor` matrix with the powers of ``x`` and the
    window sums of powers of ``t``, which are differences of prefix sums.
    Those are prefix sums of powers of ``s - a``, with one anchor ``a`` per
    block of sorted samples, so their rounding error scales with the
    block's spread rather than with max |s|.  On 100 000 normal samples at
    h = 0.05 sd N^(-1/5) the score is within 2e-8 relative of a direct
    pairwise sum, where expanding about zero was off by 7e-3.  A block is
    at least four windows long, which keeps the extra prefix work under a
    quarter; it is evaluated in cache-sized chunks of :data:`_CHUNK`.
    """
    n = s.size
    np.subtract(s, h, out=ws.merged[:n])
    lo_k = _merge_bounds(s, ws, ws.lo_k)
    np.subtract(s, 2.0 * h, out=ws.merged[:n])
    lo_c = _merge_bounds(s, ws, ws.lo_c)
    kernels = (
        (lo_k, _taylor((1.0, 0.0, -1.0 / h**2))),
        (lo_c, _taylor((32.0, 0.0, -40.0 / h**2, 20.0 / h**3, 0.0, -1.0 / h**5))),
    )
    block = max(_MIN_BLOCK, 4 * int(np.max(ws.positions - lo_c)))
    sums = [0.0, 0.0]
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        first = int(lo_c[b0])
        m = b1 - first
        t = np.subtract(s[first:b1], s[(b0 + b1) // 2], out=ws.t[:m])
        prefix = ws.prefix[:, : m + 1]
        power = ws.power[:m]
        power.fill(1.0)
        for row in prefix[1:]:
            power *= t
            np.cumsum(power, out=row[1:])
        # Chunk bounds are positions in the block, which starts at ``first``.
        for c0 in range(b0 - first, m, _CHUNK):
            c1 = min(c0 + _CHUNK, m)
            powers = ws.powers[:, : c1 - c0]
            for row, below in zip(powers[1:], powers):
                np.multiply(below, t[c0:c1], out=row)
            idx = ws.index[: c1 - c0]
            for k, (lo, taylor) in enumerate(kernels):
                rows = len(taylor)
                w = ws.w[:rows, : c1 - c0]
                q = ws.q[:rows, : c1 - c0]
                np.subtract(lo[first + c0 : first + c1], first, out=idx)
                for row, start in zip(prefix, w):
                    row.take(idx, out=start, mode="clip")
                np.subtract(prefix[:rows, c0:c1], w, out=w)
                np.matmul(taylor, powers[:rows], out=q)
                q *= w
                sums[k] += float(np.sum(q))
    return 0.75 * sums[0], _CONV_COEF * sums[1]


def _score_range(s: NDArray, bandwidths: NDArray) -> NDArray:
    """LSCV scores of sorted ``s`` at each bandwidth, with one workspace."""
    n = s.size
    ws = _Workspace(n)
    conv0 = _CONV_COEF * 32.0
    scores = np.empty(bandwidths.size)
    for idx, h in enumerate(bandwidths):
        t_k, t_conv = _pairwise_kernel_sums(s, float(h), ws)
        int_f2 = (n * conv0 + 2.0 * t_conv) / (n * n * h)
        loo = 2.0 * t_k / ((n - 1) * h)
        scores[idx] = int_f2 - 2.0 * loo / n
    return scores


def lscv_scores(samples: NDArray, bandwidths: NDArray, *, threads: int = 1) -> NDArray:
    """Least-squares cross-validation score for each candidate bandwidth.

    ``LSCV(h) = int fhat^2 - (2/N) sum_i fhat_{-i}(s_i)``, both terms in
    closed form (``int fhat^2 = (1/(N^2 h)) sum_{i,j} (K*K)(d_ij/h)`` uses
    the kernel self-convolution) and exact up to rounding.  Up to
    ``threads`` (at least 1; at most :data:`_MAX_SCORE_THREADS` are used)
    threads score contiguous ranges of the candidates, each with buffers
    of its own; the scores are identical for every value.
    """
    samples = finite_array(samples, "samples").reshape(-1)
    bandwidths = finite_array(bandwidths, "bandwidths").reshape(-1)
    if bandwidths.size == 0:
        raise InvalidInputError("bandwidth grid must be nonempty")
    if np.any(bandwidths <= 0):
        raise InvalidInputError("bandwidths must be positive")
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1 (got {threads})")
    if samples.size < 2:
        raise InvalidInputError("cross-validation needs at least two samples")
    s = np.sort(samples)
    return map_ranges(
        lambda lo, hi: _score_range(s, bandwidths[lo:hi]),
        bandwidths.size,
        min(threads, _MAX_SCORE_THREADS),
    )


def lscv_bandwidth(samples: NDArray, grid: NDArray, *, threads: int = 1) -> float:
    """Bandwidth from the candidate grid minimizing the LSCV score.

    Ties resolve to the smallest candidate (first argmin).  ``threads`` is
    passed to :func:`lscv_scores`.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    scores = lscv_scores(samples, grid, threads=threads)
    return float(grid[int(np.argmin(scores))])


def default_bandwidth_grid(samples: NDArray) -> NDArray:
    """Log-spaced candidates spanning [0.25, 4] x sd x N^(-1/5).

    The range brackets the Epanechnikov normal-reference bandwidth, about
    2.34 sd N^(-1/5), where the LSCV optimum of near-normal samples lies.
    """
    samples = finite_array(samples, "samples").reshape(-1)
    if samples.size < 2:
        raise InvalidInputError("need at least two samples")
    scale = float(np.std(samples, ddof=1))
    if scale == 0.0:
        scale = 1.0
    base = scale * samples.size ** (-0.2)
    return np.geomspace(0.25 * base, 4.0 * base, _BANDWIDTH_CANDIDATES)


def ks_statistic(samples: NDArray) -> float:
    """Kolmogorov-Smirnov distance of the sample to the standard normal.

    ``sup_x |F_N(x) - Phi(x)|`` evaluated at the sorted sample points,
    taking both one-sided gaps.  ``Phi(x) = erfc(-x / sqrt 2) / 2`` uses the
    standard library's ``erfc``, so scoring never imports scipy.special,
    whose import costs a sampling run about 0.3 s.
    """
    samples = finite_array(samples, "samples").reshape(-1)
    if samples.size == 0:
        raise InvalidInputError("samples must be nonempty")
    n = samples.size
    scaled = (np.sort(samples) * -math.sqrt(0.5)).tolist()
    cdf = 0.5 * np.fromiter(map(math.erfc, scaled), float, n)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    return float(max(d_plus, d_minus))


@dataclass(frozen=True)
class GofReport:
    """Goodness-of-fit summary of one standardized Monte Carlo sample.

    ``skewness`` uses the plain moment ratio ``m3 / m2^(3/2)`` without
    bias correction; ``variance`` is the unbiased sample variance.
    ``bandwidth_on_grid_edge`` is true when the LSCV argmin is the
    smallest or largest candidate, so the optimum may lie off the grid.
    """

    bandwidth: float
    bandwidth_on_grid_edge: bool
    kde_x: NDArray
    kde_density: NDArray
    ks_statistic: float
    mean: float
    variance: float
    skewness: float


def summarize(samples: NDArray, *, threads: int = 1) -> GofReport:
    """Cross-validated KDE plus distance and moment summaries.

    The KDE is evaluated on :data:`DEFAULT_KDE_GRID` (201 points on
    [-4, 4]), at the bandwidth that :func:`default_bandwidth_grid` offers
    with the least LSCV score.  ``threads`` threads score the candidates;
    the report is identical for every value.
    """
    samples = finite_array(samples, "samples").reshape(-1)
    if samples.size < 2:
        raise InvalidInputError("need at least two samples to summarize")
    kde_grid = np.linspace(*DEFAULT_KDE_GRID)
    bandwidth_grid = default_bandwidth_grid(samples)
    bandwidth = lscv_bandwidth(samples, bandwidth_grid, threads=threads)
    density = epanechnikov_kde(samples, bandwidth, kde_grid)
    mean = float(np.mean(samples))
    centered = samples - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    return GofReport(
        bandwidth=bandwidth,
        bandwidth_on_grid_edge=bandwidth in (bandwidth_grid[0], bandwidth_grid[-1]),
        kde_x=kde_grid,
        kde_density=density,
        ks_statistic=ks_statistic(samples),
        mean=mean,
        variance=float(np.var(samples, ddof=1)),
        skewness=m3 / m2**1.5,
    )
