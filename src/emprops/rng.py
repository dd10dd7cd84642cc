"""Deterministic seeded randomness.

Everything seeded in this package (fold assignment, weight init, batch
shuffling, bootstraps) runs off splitmix64 so that runs are reproducible
bit-for-bit across platforms and are trivial to re-derive in any language.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# splitmix64 constants as numpy scalars, for _draws.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1_U64, _MIX2_U64 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT27, _SHIFT30, _SHIFT31 = np.uint64(27), np.uint64(30), np.uint64(31)


class SplitMix64:
    """splitmix64 generator (Steele, Lea, Flood 2014)."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64  # draw i of the stream mixes state + i * golden

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_block(self, k: int) -> np.ndarray:
        """The next k draws as one uint64 array, equal to k next_u64 calls.
        The state stays a Python int: next_blocks of a one-element array
        takes more numpy calls, and training shuffles once per network and
        epoch."""
        draws = _draws(np.uint64(self.state), k)
        self.state = (self.state + k * _GOLDEN) & _MASK64
        return draws

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n); plain modulo, kept for portability."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, walking from the highest index down; the
        swap partner of index i is draw % (i + 1), all n - 1 drawn in one block."""
        n = len(items)
        fisher_yates(items, (self.next_block(max(n - 1, 0))
                             % np.arange(n, 1, -1, dtype=np.uint64)).tolist())

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order not meaningful."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        return partial_shuffle(n, (self.next_block(k)
                                   % np.arange(n, n - k, -1, dtype=np.uint64)).tolist())


def fisher_yates(items: list, offsets: list[int]) -> None:
    """Swap items[i] with items[offsets[k]] for i = n - 1 down to 1, k
    counting up from 0: the swaps of a shuffle whose partners are drawn.
    Offsets past the first n - 1 are ignored."""
    for i, j in zip(range(len(items) - 1, 0, -1), offsets):
        items[i], items[j] = items[j], items[i]


def partial_shuffle(n: int, offsets: list[int]) -> list[int]:
    """The first len(offsets) entries of range(n) after swapping entry i
    with entry i + offsets[i], for each i in order: a partial Fisher-Yates."""
    pool = list(range(n))
    for i, offset in enumerate(offsets):
        j = i + offset
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:len(offsets)]


def next_blocks(states: np.ndarray, k: int) -> np.ndarray:
    """The next k draws of several streams at once, as a (streams, k) uint64
    array: row i equals next_block(k) of the stream whose state is
    states[i]. states (uint64) advance in place."""
    draws = _draws(states[:, None], k)
    states += np.uint64((k * _GOLDEN) & _MASK64)
    return draws


class ShuffleDraws:
    """The swap partners of the next shuffle of several splitmix64 streams,
    stream i shuffling counts[i] items each time, drawn as one block.

    A row of offsets(streams) equals the offsets SplitMix64(seed).shuffle
    draws for that stream's next shuffle, and the stream then stands where
    that shuffle's next_block(counts[i] - 1) leaves it: splitmix64 is
    counter-based, so the streams are drawn together for the widest one's
    n - 1 draws, reduced by each stream's moduli n, n - 1, ..., 2, and each
    state is advanced by its own n - 1 draws. The moduli table is built
    once; columns past a stream's n - 1 hold 1, so their offsets are 0."""

    def __init__(self, seeds: list[int], counts: list[int]) -> None:
        self.states = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
        self.counts = [max(n, 1) for n in counts]  # shuffling no item draws what one does
        self.moduli = np.maximum(np.array(self.counts, dtype=np.int64)[:, None]
                                 - np.arange(max(self.counts, default=1) - 1), 1
                                 ).astype(np.uint64)
        self.advance = np.array([((n - 1) * _GOLDEN) & _MASK64 for n in self.counts],
                                dtype=np.uint64)

    def offsets(self, streams: list[int]) -> np.ndarray:
        """A (len(streams), widest n - 1) uint64 block, row k the swap
        partners of stream streams[k]'s next shuffle (fisher_yates takes
        them) followed by zeros; those streams advance."""
        rows = np.array(streams, dtype=np.intp)
        width = max((self.counts[i] for i in streams), default=1) - 1
        states = self.states[rows]
        draws = _draws(states[:, None], width)
        self.states[rows] = states + self.advance[rows]
        draws %= self.moduli[rows, :width]
        return draws


def _draws(start, k: int) -> np.ndarray:
    """Draws 1..k of the splitmix64 streams at start, a uint64 scalar (a
    (k,) array) or a column of them (one row per stream): the one block
    generator of next_block and next_blocks. splitmix64 is counter-based:
    draw i mixes start + i * golden, so a block is computed at once in
    wrapping uint64 array arithmetic."""
    z = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN_U64 + start
    z ^= z >> _SHIFT30
    z *= _MIX1_U64
    z ^= z >> _SHIFT27
    z *= _MIX2_U64
    z ^= z >> _SHIFT31
    return z


def derive_seed(seed: int, *parts: int) -> int:
    """Derive an independent child seed by folding each part into the stream.

    Used wherever parallel units of work (folds, grid cells, trees) need
    their own reproducible streams.
    """
    out = seed & _MASK64
    for part in parts:
        out = SplitMix64(out ^ (part & _MASK64)).next_u64()
    return out
