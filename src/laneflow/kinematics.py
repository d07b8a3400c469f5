"""Exact speeds, the common integer speed scale and the lane a transition targets.

A slow vehicle enters a lane first and a faster one follows ``head`` ticks
later.  Measuring tick t = 1, 2, ... from the fast vehicle's entry, the slow
one has covered slow * (head + t) and the fast one fast * t.  With
gain = fast - slow > 0, the follower first draws level with or passes the
leader at

    catch-up tick = max(1, ceil(slow * head / gain))

and spends floor(slow * head / gain) ticks at or behind it, which is what
literal counting adds up per pair.  Both are evaluated on plain integers:
part1.count_transitions stamps each event with -(-slow * head // gain), and
part1.literal_count sums slow * head // gain over a lane's members without
building pairs.

All arithmetic is exact: a parsed "35.3" behaves as 353/10, never as its
binary float.  common_scale maps every distinct speed of a stream to
exact(speed) * L, where L is the least common multiple of the exact
denominators (L = 1 for an integer stream).  Multiplying slow and fast by the
same positive L leaves slow * head / gain unchanged, so its floor and ceiling
are the same on the scaled integers as on the exact speeds; a running lane
average is likewise the scaled total divided by the population and by L.
Scaling also keeps the order of speeds, so speed comparisons on the scaled
integers agree with comparisons on the speeds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import NoAdjacentLane
from .domain import Speed


def exact(value: Speed) -> int | Fraction:
    """Exact rational view of a speed; floats get their decimal reading."""
    if isinstance(value, int):
        return value
    return Fraction(str(value))


def common_scale(speeds: Iterable[Speed]) -> tuple[dict[Speed, int], int]:
    """Map each distinct speed to the integer exact(speed) * L, and return L.

    L is the least common multiple of the exact denominators, so it is 1
    when every speed is an integer.  Equal speeds such as 35 and 35.0 share
    one entry.
    """
    exacts = {speed: exact(speed) for speed in set(speeds)}
    scale = math.lcm(1, *(q.denominator for q in exacts.values()))
    return {speed: q.numerator * (scale // q.denominator) for speed, q in exacts.items()}, scale


def transition_target(from_lane: int, lane_count: int, interior: str = "lower") -> int:
    """Adjacent lane an overtaken vehicle moves to.

    Edge lanes have one neighbour, so lane 1 moves to 2 and the top lane
    moves down one.  Interior lanes prefer the lower-indexed neighbour by
    default; pass interior="upper" to prefer the higher one.
    """
    if interior not in ("lower", "upper"):
        raise ValueError(f"interior preference must be 'lower' or 'upper', got {interior!r}")
    if not 1 <= from_lane <= lane_count:
        raise ValueError(f"lane {from_lane} outside 1..{lane_count}")
    if lane_count == 1:
        raise NoAdjacentLane("a single-lane layout has no adjacent lane")
    if from_lane == 1:
        return 2
    if from_lane == lane_count:
        return lane_count - 1
    return from_lane - 1 if interior == "lower" else from_lane + 1
