"""Seeded random streams.

Every stochastic component draws from an `Rng`, a thin wrapper around
numpy's counter-based Philox generator.  Identical (seed, key) pairs
yield identical sequences on every platform, and `split` derives
statistically independent child streams deterministically, so training
runs are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np


class Rng:
    """Deterministic random stream addressed by a seed and a split key."""

    __slots__ = ("seed", "key", "_gen")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        seq = np.random.SeedSequence((self.seed, *self.key))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def split(self, *indices: int) -> "Rng":
        """Derive an independent child stream; same indices, same stream."""
        return Rng(self.seed, self.key + indices)

    def normal(self, loc=0.0, scale=1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def random(self, size=None):
        return self._gen.random(size)

    def permutation(self, n) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self.key})"
