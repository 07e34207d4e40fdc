"""Deterministic pseudorandom primitives.

Every seeded operation in this package (fold shuffling, feature
subsampling, bootstrap draws) runs on SplitMix64 rather than the
platform RNG, so that identical seeds reproduce identical results on
any interpreter, OS, or architecture. The generator is fully specified
by this file: the state advances by the 64-bit golden-ratio increment
0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1393CFD9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic modulo 2**64.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1393CFD9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Apply the SplitMix64 output finalizer to a 64-bit value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int) -> int:
    """Mix integers into a seed, yielding an independent stream seed.

    Used to give folds, trees, and similar sub-tasks their own streams:
    each part is xor-absorbed into the running value and re-mixed.
    """
    x = seed & _MASK
    for p in parts:
        x = mix64(((x ^ (p & _MASK)) + _GOLDEN) & _MASK)
    return x


class SplitMix64:
    """Sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % n

    def next_float(self) -> float:
        """Uniform float in [0, 1) built from the top 53 bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def next_floats(self, n: int) -> np.ndarray:
        """The next n next_float() values, drawn as one vector.

        The k-th state is state + k * GOLDEN, so all n states and their
        finalizers are computed with wrapping uint64 arithmetic. The
        values, and the state left behind, equal n sequential calls.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = k * np.uint64(_GOLDEN) + np.uint64(self._state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + n * _GOLDEN) & _MASK
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle (backward variant)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, m: int) -> list[int]:
        """m distinct indices from range(n), via partial Fisher-Yates."""
        if not 0 <= m <= n:
            raise ValueError("need 0 <= m <= n")
        pool = list(range(n))
        for i in range(m):
            j = i + self.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:m]
