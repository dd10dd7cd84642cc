import numpy as np
import pytest

from emprops.rng import SplitMix64


def scalar_shuffle(rng, items):
    """The draw-per-swap top-down Fisher-Yates that shuffle blocks."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


def scalar_sample_indices(rng, n, k):
    """The draw-per-step partial Fisher-Yates that sample_indices blocks."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.next_u64() % (n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("k", [0, 1, 2, 17, 1000])
def test_next_block_equals_scalar_draws(seed, k):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = block.next_block(k)
    assert draws.dtype == np.uint64
    assert draws.tolist() == [scalar.next_u64() for _ in range(k)]
    # the state continues where k scalar draws leave it
    assert [block.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]
    assert block.next_block(5).tolist() == [scalar.next_u64() for _ in range(5)]


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (5, 5), (10, 3), (55, 19), (200, 67)])
def test_sample_indices_equals_scalar_loop(n, k):
    for seed in (0, 7, 2**64 - 1):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got = block.sample_indices(n, k)
        assert got == scalar_sample_indices(scalar, n, k)
        assert all(type(index) is int for index in got)
        assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 144, 1000])
def test_shuffle_equals_scalar_loop(n):
    for seed in (0, 7, 2**64 - 1):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        got, expected = list(range(n)), list(range(n))
        block.shuffle(got)
        scalar_shuffle(scalar, expected)
        assert got == expected
        assert block.next_u64() == scalar.next_u64()


def test_sample_indices_rejects_k_above_n():
    with pytest.raises(ValueError):
        SplitMix64(0).sample_indices(3, 4)
