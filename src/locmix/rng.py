"""Deterministic random streams for reproducible (parallel) Monte Carlo.

Every sampler in this package draws from an :class:`RngStream`, which is a
named substream of a master seed.  Two streams with distinct
``(master_seed, stream_index)`` pairs are statistically independent, and the
sequence produced by a stream depends only on that pair — never on thread
count or scheduling.  By convention, block ``b`` of an experiment's
replicates uses ``stream_index=b`` off the experiment's master seed (see
:mod:`locmix.harness`).  numpy does not promise identical streams across
its versions, so manifests record the numpy version and :data:`BIT_GENERATOR`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

# Name of the bit generator behind every stream, as recorded in manifests.
BIT_GENERATOR = np.random.PCG64.__name__


class RngStream:
    """One independent, reproducible random substream.

    Parameters
    ----------
    master_seed : int
        64-bit master seed shared by all streams of one experiment.
    stream_index : int
        Index of this substream (e.g. the Monte Carlo block number).

    Notes
    -----
    The underlying PCG64 generator is seeded through ``SeedSequence`` with
    the entropy pair ``(master_seed, stream_index)``, which guarantees both
    determinism and independence across distinct pairs.  A stream is
    stateful: successive draws continue its sequence.  Do not share one
    stream between concurrent callers.
    """

    __slots__ = ("master_seed", "stream_index", "_generator")

    def __init__(self, master_seed: int, stream_index: int = 0):
        if master_seed < 0 or stream_index < 0:
            raise InvalidInputError(
                f"seeds must be nonnegative (got master_seed={master_seed}, "
                f"stream_index={stream_index})"
            )
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying ``numpy.random.Generator`` (created lazily)."""
        if self._generator is None:
            self._generator = np.random.Generator(
                np.random.PCG64((self.master_seed, self.stream_index))
            )
        return self._generator

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"
