import threading

import numpy as np
import pytest

from locmix.parallel import map_ranges


@pytest.mark.parametrize("threads", [1, 2, 3, 10, 16])
def test_map_ranges_covers_items_in_order(threads):
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi))
        return np.arange(lo, hi)

    np.testing.assert_array_equal(map_ranges(fn, 10, threads), np.arange(10))
    # min(threads, count) contiguous, nonempty ranges.
    assert len(calls) == min(threads, 10)
    assert all(lo < hi for lo, hi in calls)


def test_map_ranges_one_thread_runs_in_caller():
    seen = []

    def fn(lo, hi):
        seen.append(threading.get_ident())
        return np.ones(hi - lo)

    map_ranges(fn, 5, 1)
    assert seen == [threading.get_ident()]
