"""One way to spread contiguous ranges of work over threads.

Both the draws (:func:`locmix.harness.run_experiment`, ranges of random
blocks) and the bandwidth scores (:func:`locmix.kde.lscv_scores`, ranges
of candidates) split their items into contiguous ranges, run each range
on a thread and concatenate the results in range order.  A result never
depends on the thread count as long as each range's output depends only
on the items in it.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.typing import NDArray


def map_ranges(fn: Callable[[int, int], NDArray], count: int, threads: int) -> NDArray:
    """Concatenate ``fn(lo, hi)`` over contiguous ranges covering ``range(count)``.

    ``min(threads, count)`` ranges of near-equal length run on as many
    threads; with one, ``fn(0, count)`` is called directly, with no pool.
    """
    n_workers = min(threads, count)
    if n_workers <= 1:
        return fn(0, count)
    bounds = np.linspace(0, count, n_workers + 1).astype(int).tolist()
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return np.concatenate(list(pool.map(fn, bounds[:-1], bounds[1:])))
