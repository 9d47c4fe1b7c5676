"""Seeded random streams.

Every stochastic component draws from an `Rng`: numpy's Generator on a
counter-based Philox bit generator, addressed by a seed and a split key.
Identical (seed, key) pairs yield identical sequences on every platform,
and `split` derives statistically independent child streams
deterministically, so training runs are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np


class Rng(np.random.Generator):
    """Deterministic random stream addressed by a seed and a split key."""

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        super().__init__(np.random.Philox(np.random.SeedSequence((self.seed, *self.key))))

    def split(self, *indices: int) -> "Rng":
        """Derive an independent child stream; same indices, same stream."""
        return Rng(self.seed, self.key + indices)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self.key})"
