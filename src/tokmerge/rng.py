"""Deterministic, stream-keyed randomness.

Every consumer derives a fresh generator from an immutable (seed, timestep,
layer) key, so plans for different (timestep, layer) pairs draw from disjoint
streams and can be rebuilt bit-identically in any order, in any process.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Rng:
    """A value-typed random source: same (seed, timestep, layer) key, same draws."""

    seed: int
    timestep: int = 0
    layer: int = 0

    def __post_init__(self) -> None:
        # A non-integer key is rejected here, naming its field, rather than
        # by the generator; integral numpy scalars become plain ints.
        for name in ("seed", "timestep", "layer"):
            value = getattr(self, name)
            if type(value) is not int:
                if not isinstance(value, numbers.Integral):
                    raise TypeError(f"Rng {name}={value!r} must be an integer")
                object.__setattr__(self, name, int(value))
        if self.timestep < 0 or self.layer < 0:
            raise ValueError("stream ids must be non-negative")

    def at(self, timestep: int, layer: int) -> "Rng":
        """The stream for one (timestep, layer) pair under the same seed."""
        return Rng(self.seed, timestep, layer)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this key's stream."""
        ss = np.random.SeedSequence(
            self.seed & _MASK64, spawn_key=(self.timestep, self.layer)
        )
        return np.random.Generator(np.random.PCG64(ss))
