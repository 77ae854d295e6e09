"""Counter-based random streams.

Philox keyed by (seed, stream) makes every stream reproducible on any
platform and independent of how work is scheduled across threads: a
worker handling item ``i`` always draws from ``SeededRng(seed, i)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeededRng"]


class SeededRng(np.random.Generator):
    """numpy ``Generator`` over Philox keyed by a 64-bit (seed, stream) pair
    of integers; a ``bool``, a float or a string is refused, not truncated."""

    def __init__(self, seed: int, stream: int = 0):
        for name, value in (("seed", seed), ("stream", stream)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"SeededRng {name} must be an integer, got {value!r}")
            if not 0 <= int(value) < 1 << 64:
                raise ValueError(f"SeededRng {name} {value} is outside [0, 2**64)")
        super().__init__(np.random.Philox(key=np.array([int(seed), int(stream)], dtype=np.uint64)))
