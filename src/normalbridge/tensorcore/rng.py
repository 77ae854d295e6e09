"""Counter-based random streams.

Philox keyed by (seed, stream) makes every stream reproducible on any
platform and independent of how work is scheduled across threads: a
worker handling item ``i`` always draws from ``SeededRng(seed, i)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeededRng"]


class SeededRng(np.random.Generator):
    """numpy ``Generator`` over Philox keyed by a 64-bit (seed, stream) pair."""

    def __init__(self, seed: int, stream: int = 0):
        key = (int(seed), int(stream))
        for name, value in zip(("seed", "stream"), key):
            if not 0 <= value < 1 << 64:
                raise ValueError(f"SeededRng {name} {value} is outside [0, 2**64)")
        super().__init__(np.random.Philox(key=np.array(key, dtype=np.uint64)))
