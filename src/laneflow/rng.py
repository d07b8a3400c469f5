"""Seeded pseudo-randomness with a pinned, portable algorithm.

Streams must be bit-identical for a given seed across machines, Python
versions, and reimplementations in other languages, so this module pins
splitmix64 (Sebastiano Vigna's public-domain reference generator, the mixer
behind java.util.SplittableRandom) rather than relying on any runtime's
built-in RNG:

    state += 0x9E3779B97F4A7C15                        (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9           (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB           (mod 2^64)
    output = z ^ (z >> 31)

Bounded draws use plain modulo: for the ranges used here (at most a few
hundred values against a 64-bit output) the bias is on the order of 2^-56
and far below anything observable.  Shuffles are Fisher-Yates, descending.

Draws are computed in batches, not one loop step each.  Draw i of a batch of
k lives in bits 128*i .. 128*i + 63 of one Python int: the k states are
seed * ONES + STEPS masked to each lane's low 64 bits (ONES has 1 in every
lane, STEPS holds (i + 1) * GAMMA mod 2^64 in lane i), and each step above
is one shift, mask, xor, multiply and mask over the whole int.  Masking after
a shift keeps the next lane's bits out, and a 64 x 64-bit product fits in
its 128-bit lane; the output xor-shift needs no mask, since only each lane's
low 64 bits are read.  One to_bytes call in native byte order and a strided
read of its 64-bit words take the low halves back out: every even word on a
little-endian host, every odd word read backwards on a big-endian one.  A
batch of more than _CHUNK draws runs chunk by chunk, and one set of
constants, built on first use for _CHUNK lanes, serves every batch: a
k-draw batch masks it to its low k lanes.  The outputs are the same as the
reference's, draw for draw.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Iterable, MutableSequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHUNK = 1024  # lanes per batch computation
# the low halves, lane 0 first, among the 64-bit words of a run of 128-bit
# lanes written and read in one byte order
_LOW_WORDS = {"little": slice(None, None, 2), "big": slice(None, None, -2)}


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=1)
def _chunk_constants() -> tuple[int, int, int]:
    """ONES, STEPS and the low-64-bit lane mask of a _CHUNK-lane batch; a
    batch of k lanes takes their low k lanes.  One set serves every size:
    kept per batch size, they raised the peak memory of a process that made
    streams of many sizes by more than a MiB."""
    ones = int.from_bytes((1).to_bytes(16, "little") * _CHUNK, "little")
    # With x = 2^128 and C = _CHUNK, (x - 1) * sum((i + 1) * x^i for i < C)
    # = C * x^C - ONES, so this exact division holds i + 1 in lane i.
    counts = ((_CHUNK << 128 * _CHUNK) - ones) // ((1 << 128) - 1)
    low = ones * _MASK64
    return ones, counts * _GAMMA & low, low


def _batch(state: int, k: int) -> list[int]:
    """The k <= _CHUNK outputs that follow state, computed lane-parallel in one int."""
    ones, steps, low = _chunk_constants()
    # the low k lanes of ONES and STEPS; low stays whole, as & costs only
    # the smaller operand's size
    keep = (1 << 128 * k) - 1
    ones, steps = ones & keep, steps & keep
    z = (state * ones + steps) & low
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
    z ^= z >> 31  # the next lane's bits land at bit 97 and up, which the read skips
    words = memoryview(z.to_bytes(16 * k, sys.byteorder)).cast("Q")
    return words[_LOW_WORDS[sys.byteorder]].tolist()


def bounded(draws: Iterable[int], lo: int, hi: int) -> list[int]:
    """Raw outputs taken into [lo, hi] (lo <= hi) by plain modulo."""
    span = hi - lo + 1
    return [lo + z % span for z in draws]


def fisher_yates(items: MutableSequence, draws: Iterable[int]) -> None:
    """In-place Fisher-Yates shuffle, high index down, one raw output per swap
    (len(items) - 1 of them; any further draws are left unread)."""
    for i, z in zip(range(len(items) - 1, 0, -1), draws):
        j = z % (i + 1)  # uniform_int(0, i)
        items[i], items[j] = items[j], items[i]


class SplitMix64:
    """The pinned 64-bit generator; any u64 (including 0) is a valid seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64s(self, k: int) -> list[int]:
        """The next k raw outputs, in order; a negative k raises ValueError
        and draws nothing."""
        if k < 0:
            raise ValueError(f"negative draw count {k}")
        state, out = self._state, []
        for done in range(0, k, _CHUNK):
            size = min(_CHUNK, k - done)
            out += _batch(state, size)
            state = (state + size * _GAMMA) & _MASK64
        self._state = state
        return out

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive, from one draw."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return bounded(self.next_u64s(1), lo, hi)[0]


def combine_seed(base: int, *coords: int) -> int:
    """Derive a child seed from a base seed and integer coordinates.

    Deterministic and documented so ensemble runs can be reproduced (or
    recomputed in parallel) from (base, coordinates) alone:

        s = base
        for c in coords: s = mix(s + GAMMA + c)   (mod 2^64)

    where mix is the splitmix64 output scrambler above.
    """
    s = base & _MASK64
    for c in coords:
        s = _mix((s + _GAMMA + c) & _MASK64)
    return s
