"""Counter-based random streams.

Philox keyed by (seed, stream) makes every stream reproducible on any
platform and independent of how work is scheduled across threads: a
worker handling item ``i`` always draws from ``SeededRng(seed).stream(i)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeededRng"]


class SeededRng:
    """Deterministic random source keyed by a 64-bit (seed, stream) pair."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if not 0 <= value < 1 << 64:
                raise ValueError(f"SeededRng {name} {value} is outside [0, 2**64)")
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        )

    def stream_rng(self, stream: int) -> "SeededRng":
        """A fresh, independent stream under the same seed."""
        return SeededRng(self.seed, stream)

    def normal(self, shape=(), scale: float = 1.0) -> np.ndarray:
        z = self._gen.standard_normal(shape)
        z *= scale
        z += 0.0  # -0.0 -> +0.0, as Generator.normal's per-draw 0.0 + scale * z does
        return z

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream})"
