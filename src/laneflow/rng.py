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
"""

from __future__ import annotations

from typing import MutableSequence

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The pinned 64-bit generator; any u64 (including 0) is a valid seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self._next_u64s(1)[0]

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        return self.uniform_ints(1, lo, hi)[0]

    def uniform_ints(self, k: int, lo: int, hi: int) -> list[int]:
        """k uniform integers in [lo, hi], drawn in one batch; uniform_int draws one."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return [lo + z % span for z in self._next_u64s(k)]

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle, one draw per swap, high index down."""
        n = len(items)
        for i, z in zip(range(n - 1, 0, -1), self._next_u64s(n - 1)):
            j = z % (i + 1)  # uniform_int(0, i)
            items[i], items[j] = items[j], items[i]

    def _next_u64s(self, k: int) -> list[int]:
        """The next k outputs; the loop steps a local state and inlines _mix,
        whose call would cost more than the draw."""
        state, out = self._state, []
        for _ in range(k):
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out.append(z ^ (z >> 31))
        self._state = state
        return out


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
