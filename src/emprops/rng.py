"""Deterministic seeded randomness.

Everything seeded in this package (fold assignment, weight init, batch
shuffling, bootstraps) runs off splitmix64 so that runs are reproducible
bit-for-bit across platforms and are trivial to re-derive in any language.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# splitmix64 constants as numpy scalars, for next_block.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64, _MIX2_U64 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT27, _SHIFT30, _SHIFT31 = np.uint64(27), np.uint64(30), np.uint64(31)


class SplitMix64:
    """splitmix64 generator (Steele, Lea, Flood 2014)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_block(self, k: int) -> np.ndarray:
        """The next k draws as one uint64 array, equal to k next_u64 calls.

        splitmix64 is counter-based: draw i mixes state + i * golden, so the
        whole block is computed at once in wrapping uint64 array arithmetic.
        """
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= _GOLDEN_U64
        z += np.uint64(self._state)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        z ^= z >> _SHIFT30
        z *= _MIX1_U64
        z ^= z >> _SHIFT27
        z *= _MIX2_U64
        z ^= z >> _SHIFT31
        return z

    def next_float(self) -> float:
        """Uniform in [0, 1) with the full 53-bit mantissa."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n); plain modulo, kept for portability."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, walking from the highest index down."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order not meaningful."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        offsets = (self.next_block(k) % np.arange(n, n - k, -1, dtype=np.uint64)).tolist()
        pool = list(range(n))
        for i, offset in enumerate(offsets):
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_seed(seed: int, *parts: int) -> int:
    """Derive an independent child seed by folding each part into the stream.

    Used wherever parallel units of work (folds, grid cells, trees) need
    their own reproducible streams.
    """
    out = seed & _MASK64
    for part in parts:
        out = SplitMix64(out ^ (part & _MASK64)).next_u64()
    return out
