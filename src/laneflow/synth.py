"""Seeded synthesis of vehicle streams from per-class counts.

Given a count per class and a speed range per class, synthesize_stream emits
exactly that many vehicles of each class with speeds drawn uniformly from
the class range.  Arrival ticks are a cumulative sum of uniform gaps in
[0, arrival_gap_max], so they are non-decreasing; a final Fisher-Yates
shuffle permutes the speeds across the arrival slots so that a vehicle's
class carries no information about when it turns up.

The draw order is part of the contract (bit-identical streams for identical
inputs, reproducible in any language):

    1. one uniform speed per vehicle, classes taken in label order
    2. one uniform gap per vehicle, in arrival-slot order
    3. one Fisher-Yates shuffle of the speed list
    4. ids v1..vn assigned to arrival slots in order

All randomness comes from a single SplitMix64 stream seeded by the seed
argument; the config holds only what every run of an ensemble shares.  A
stream of n vehicles takes its 3n - 1 draws (n speeds, n gaps, n - 1 swaps,
in the order above) as one batch, which gives the same values as drawing
them step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, islice

from .config import check_at_least_one, check_setting, check_speed_range, check_u64
from .domain import VehicleRecord
from .errors import ConfigError
from .rng import SplitMix64, bounded, fisher_yates
from .stats import ClassCountVector

# Default per-class speed ranges (km/h, inclusive), slow haulers to fast cars.
DEFAULT_SPEED_RANGES: dict[str, tuple[int, int]] = {
    "Rickshaw": (1, 20),
    "Trucks": (11, 40),
    "LCV": (21, 45),
    "Buses": (21, 45),
    "Vehicles": (11, 50),
    "Motor Cycle": (31, 50),
    "Cars": (31, 60),
}

DEFAULT_ARRIVAL_GAP_MAX = 5


@dataclass(frozen=True)
class SynthConfig:
    """Speed ranges and arrival spacing, shared by every run; the seed is
    synthesize_stream's own argument."""

    class_speed_range: dict[str, tuple[int, int]] = field(
        default_factory=lambda: dict(DEFAULT_SPEED_RANGES)
    )
    arrival_gap_max: int = DEFAULT_ARRIVAL_GAP_MAX

    def __post_init__(self) -> None:
        for label, bounds in self.class_speed_range.items():
            check_setting(f"speed range for {label!r}", check_speed_range, bounds)
        check_setting("arrival_gap_max", check_at_least_one, self.arrival_gap_max)


def synthesize_stream(counts: ClassCountVector, config: SynthConfig, seed: int) -> list[VehicleRecord]:
    """Deterministically synthesize a stream with the given class multiplicities."""
    check_setting("seed", check_u64, seed)
    for label, count in zip(counts.labels, counts.counts):
        if count > 0 and label not in config.class_speed_range:
            raise ConfigError(f"no speed range configured for class {label!r}")
    n = counts.total
    draws = iter(SplitMix64(seed).next_u64s(max(3 * n - 1, 0)))
    speeds: list[int] = []
    for label, count in zip(counts.labels, counts.counts):
        if count > 0:
            speeds += bounded(islice(draws, count), *config.class_speed_range[label])
    arrivals = list(accumulate(bounded(islice(draws, n), 0, config.arrival_gap_max)))
    fisher_yates(speeds, draws)
    return [  # positional: keywords cost a frozen dataclass's __init__ about a quarter more
        VehicleRecord(f"v{i}", speed, arrival)
        for i, (speed, arrival) in enumerate(zip(speeds, arrivals), 1)
    ]
