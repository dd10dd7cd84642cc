import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emprops.rng import ShuffleDraws, SplitMix64, fisher_yates, next_blocks


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


# 2**64 - 2: a state just below 2**64, so the first counter wraps
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 2, 2**64 - 1])
@pytest.mark.parametrize("k", [0, 1, 2, 17, 1000])
def test_next_block_equals_scalar_draws(seed, k):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = block.next_block(k)
    assert draws.shape == (k,) and draws.dtype == np.uint64
    assert draws.tolist() == [scalar.next_u64() for _ in range(k)]
    # the state continues where k scalar draws leave it
    assert [block.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]
    assert block.next_block(5).tolist() == [scalar.next_u64() for _ in range(5)]


@pytest.mark.parametrize("k", [0, 1, 19, 100])
def test_next_blocks_equal_each_streams_next_block(k):
    seeds = [0, 1, 7, 2**63, 2**64 - 2, 2**64 - 1]
    states = np.array(seeds, dtype=np.uint64)
    draws = next_blocks(states, k)
    assert draws.shape == (len(seeds), k) and draws.dtype == np.uint64
    for seed, row, state in zip(seeds, draws.tolist(), states.tolist()):
        rng = SplitMix64(seed)
        assert row == rng.next_block(k).tolist()
        assert state == rng.state
        assert type(rng.state) is int


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


SEEDS64 = st.integers(0, 2**64 - 1)


@st.composite
def shuffle_stacks(draw):
    """Seeds, row counts (equal or distinct) and the rounds of streams still
    live, each a subset of the last, sometimes without the widest stream."""
    size = draw(st.integers(1, 8))
    if draw(st.booleans()):
        counts = [draw(st.integers(1, 60))] * size
    else:
        counts = draw(st.lists(st.integers(1, 60), min_size=size, max_size=size))
    seeds = draw(st.lists(SEEDS64, min_size=size, max_size=size))
    live = list(range(size))
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        rounds.append(live)
        widest = max(live, key=lambda i: counts[i])
        if draw(st.booleans()):
            live = [i for i in live if i != widest]
        live = [i for i in live if draw(st.integers(0, 4))]
        if not live:
            break
    return seeds, counts, rounds


@settings(max_examples=300, deadline=None)
@given(shuffle_stacks())
def test_shuffle_draws_equal_each_streams_shuffle(stack):
    seeds, counts, rounds = stack
    draws = ShuffleDraws(seeds, counts)
    streams = [SplitMix64(seed) for seed in seeds]
    for live in rounds:
        block = draws.offsets(live)
        assert block.dtype == np.uint64
        assert block.shape == (len(live), max(counts[i] for i in live) - 1)
        for i, row in zip(live, block.tolist()):
            n = counts[i]
            expected, got = list(range(n)), list(range(n))
            probe = SplitMix64(streams[i].state)
            streams[i].shuffle(expected)
            fisher_yates(got, row)
            assert got == expected
            assert row[n - 1:] == [0] * (len(row) - n + 1)
            probe.next_block(n - 1)
            assert int(draws.states[i]) == probe.state == streams[i].state
    for i in range(len(seeds)):  # streams left out of a round do not move
        assert int(draws.states[i]) == streams[i].state


def test_sample_indices_rejects_k_above_n():
    with pytest.raises(ValueError):
        SplitMix64(0).sample_indices(3, 4)
