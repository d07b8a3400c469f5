"""Catch-up arithmetic for one overtaking pair on a shared lane.

A slow vehicle enters first and a faster one follows ``head_start`` ticks
later.  Measuring tick t1 = 1, 2, ... from the fast vehicle's entry, the two
distances are

    d_slow(t1) = slow_speed * (head_start + t1)
    d_fast(t1) = fast_speed * t1

catch_up_ticks is the first tick where the fast vehicle has drawn level or
ahead (d_fast >= d_slow); because speeds differ strictly this is

    max(1, ceil(slow_speed * head_start / (fast_speed - slow_speed)))

literal_overtake_count counts every tick the fast vehicle is still at or
behind the slow one (d_fast <= d_slow), i.e. floor of the same ratio (or 0
when that floor is not positive).  The two agree exactly when the ratio is a
positive integer; otherwise catch_up_ticks = literal_overtake_count + 1.

All arithmetic is exact: a parsed "35.3" behaves as 353/10, never as its
binary float.  The planners go one step further and count on plain integers
only.  common_scale maps every distinct speed of a stream to exact(speed) * L,
where L is the least common multiple of the exact denominators (L = 1 for an
integer stream).  Multiplying slow_speed and fast_speed by the same positive L
leaves slow_speed * head_start / (fast_speed - slow_speed) unchanged, so its
floor and ceiling, and with them every count above, are the same as on the
exact speeds; a running lane average is likewise the scaled total divided by
the population and by L.  Scaling also keeps the order of speeds, so speed
comparisons on the scaled integers agree with comparisons on the speeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class OvertakePair:
    """A strictly slower leader and a faster follower on one lane."""

    slow_speed: Speed
    fast_speed: Speed
    head_start: int  # ticks the slow vehicle was already on the lane; >= 0

    def __post_init__(self) -> None:
        if not self.slow_speed < self.fast_speed:
            raise ValueError(
                f"overtaking needs a strictly faster follower "
                f"(slow={self.slow_speed}, fast={self.fast_speed})"
            )
        if self.head_start < 0:
            raise ValueError("head start cannot be negative")


def _ratio(pair: OvertakePair) -> tuple[int, int] | Fraction:
    """slow*head/(fast-slow), as (num, den) ints when possible."""
    if isinstance(pair.slow_speed, int) and isinstance(pair.fast_speed, int):
        return pair.slow_speed * pair.head_start, pair.fast_speed - pair.slow_speed
    return (
        exact(pair.slow_speed)
        * pair.head_start
        / (exact(pair.fast_speed) - exact(pair.slow_speed))
    )


def catch_up_ticks(pair: OvertakePair) -> int:
    """First tick (>= 1) at which the follower is level with or past the leader."""
    r = _ratio(pair)
    if isinstance(r, tuple):
        num, den = r
        ticks = -(-num // den)  # ceil for non-negative num, positive den
    else:
        ticks = math.ceil(r)
    return max(1, ticks)


def literal_overtake_count(pair: OvertakePair) -> int:
    """Number of ticks the follower spends at or behind the leader."""
    r = _ratio(pair)
    if isinstance(r, tuple):
        num, den = r
        count = num // den
    else:
        count = math.floor(r)
    return count if count >= 1 else 0


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
