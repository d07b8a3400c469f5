"""The pinned generator: reference behavior, bounds, shuffling, seed mixing."""

from __future__ import annotations

import sys

import pytest

from laneflow import SplitMix64, combine_seed
from laneflow.rng import _CHUNK, _LOW_WORDS, _chunk_constants, bounded, fisher_yates

MASK = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    """Independent transcription of the splitmix64 reference sequence."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_reference_sequence():
    # 20 single draws and one batch of 20 both give the reference sequence
    for seed in (0, 1, 42, 0xDEADBEEF, MASK):
        rng = SplitMix64(seed)
        assert [rng.next_u64s(1)[0] for _ in range(20)] == reference_stream(seed, 20)
        assert SplitMix64(seed).next_u64s(20) == reference_stream(seed, 20)


@pytest.mark.parametrize("k", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_a_batch_is_the_reference_sequence_and_the_stream_carries_on(k):
    # batches end on and across chunk boundaries; the draw after a batch is
    # the reference's next one, so the generator's state moved by exactly k
    for seed in (0, 0xDEADBEEF, MASK):
        draws = reference_stream(seed, k + 1)
        rng = SplitMix64(seed)
        assert rng.next_u64s(k) == draws[:k], (seed, k)
        assert rng.next_u64s(1) == [draws[k]], (seed, k)


def test_the_cached_constants_serve_batches_of_any_size():
    _chunk_constants.cache_clear()
    rng = SplitMix64(5)
    sizes = (37, 37, 1, _CHUNK)  # every batch after the first reuses its constants
    draws = [rng.next_u64s(k) for k in sizes]
    assert sum(draws, []) == reference_stream(5, sum(sizes))
    info = _chunk_constants.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


@pytest.mark.parametrize("order", ["little", "big"])
def test_lanes_read_back_lane_0_first_in_either_byte_order(order):
    # sys.byteorder picks the read; here each order is written, read as
    # native 64-bit words and put back, so both reads run on every machine
    k = 5
    lows = [(i + 1) * 0x9E3779B97F4A7C15 & MASK for i in range(k)]
    z = sum((low | (low ^ MASK) << 64) << 128 * i for i, low in enumerate(lows))  # high half != low half
    words = memoryview(z.to_bytes(16 * k, order)).cast("Q")[_LOW_WORDS[order]]
    assert [int.from_bytes(w.to_bytes(8, sys.byteorder), order) for w in words] == lows


def test_same_seed_same_stream():
    assert SplitMix64(1234).next_u64s(50) == SplitMix64(1234).next_u64s(50)


def test_different_seeds_diverge():
    a = [SplitMix64(seed).next_u64s(1)[0] for seed in (1, 2, 3)]
    assert len(set(a)) == 3


def test_outputs_are_64_bit():
    assert all(0 <= z <= MASK for z in SplitMix64(7).next_u64s(200))


def test_uniform_int_bounds_and_coverage():
    rng = SplitMix64(99)
    seen = set()
    for _ in range(500):
        value = rng.uniform_int(3, 7)
        assert 3 <= value <= 7
        seen.add(value)
    assert seen == {3, 4, 5, 6, 7}


def test_uniform_int_single_point_range():
    rng = SplitMix64(1)
    assert all(rng.uniform_int(4, 4) == 4 for _ in range(10))


def test_uniform_int_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(1).uniform_int(5, 4)


SEEDS = (0, 1, 42, 0xDEADBEEF, MASK)


def test_uniform_int_refuses_an_empty_range_and_draws_nothing():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        with pytest.raises(ValueError, match=r"^empty range \[5, 4\]$"):
            rng.uniform_int(5, 4)
        assert rng.next_u64s(1) == reference_stream(seed, 1)  # nothing drawn


def test_uniform_int_calls_are_one_bounded_batch():
    # k calls give the reference draws taken into [lo, hi] by modulo, the same
    # values as bounding one batch of k, and leave the stream k draws on
    for seed in SEEDS:
        for lo, hi in ((3, 7), (4, 4), (0, 5), (1, 100), (-3, 3), (0, MASK)):
            for k in (0, 1, 2, 17, 200):
                draws = reference_stream(seed, k + 1)
                expected = [lo + z % (hi - lo + 1) for z in draws[:k]]
                calls = SplitMix64(seed)
                assert [calls.uniform_int(lo, hi) for _ in range(k)] == expected, (seed, lo, hi, k)
                assert bounded(SplitMix64(seed).next_u64s(k), lo, hi) == expected, (seed, lo, hi, k)
                assert calls.next_u64s(1) == [draws[k]], (seed, lo, hi, k)


def test_a_negative_count_is_refused_and_draws_nothing():
    for seed in SEEDS:
        rng = SplitMix64(seed)
        with pytest.raises(ValueError, match=r"^negative draw count -1$"):
            rng.next_u64s(-1)
        assert rng.next_u64s(1) == reference_stream(seed, 1)


def test_shuffle_draws_once_per_swap():
    # fisher_yates reads n - 1 draws and leaves any further ones unread; lists
    # of 0 and 1 items read none
    for seed in SEEDS:
        for n in (0, 1, 2, 9, 50):
            draws = reference_stream(seed, n + 2)
            rest = iter(draws)
            fisher_yates(list(range(n)), rest)
            assert list(rest) == draws[max(n - 1, 0):], (seed, n)


def test_shuffle_is_a_seeded_permutation():
    items = list(range(30))
    first = items[:]
    fisher_yates(first, SplitMix64(2024).next_u64s(29))
    assert sorted(first) == items
    assert first != items  # astronomically unlikely to be identity

    second = items[:]
    fisher_yates(second, SplitMix64(2024).next_u64s(29))
    assert second == first


def test_shuffle_matches_fisher_yates_oracle():
    for seed, items in ((5150, list("abcdefgh")), *((s, list(range(40))) for s in SEEDS)):
        draws = reference_stream(seed, len(items) - 1)
        expected = items[:]
        for offset, i in enumerate(range(len(items) - 1, 0, -1)):
            j = draws[offset] % (i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        shuffled = items[:]
        fisher_yates(shuffled, SplitMix64(seed).next_u64s(len(items) - 1))
        assert shuffled == expected, seed


def test_combine_seed_is_deterministic_and_order_sensitive():
    assert combine_seed(0, 1, 2) == combine_seed(0, 1, 2)
    assert combine_seed(0, 1, 2) != combine_seed(0, 2, 1)
    assert combine_seed(1, 1, 2) != combine_seed(0, 1, 2)
    assert combine_seed(5) == 5  # no coordinates: the base passes through


def test_combine_seed_spreads_over_a_grid():
    seen = {combine_seed(0, a, b) for a in range(20) for b in range(50)}
    assert len(seen) == 20 * 50
    assert all(0 <= s <= MASK for s in seen)
