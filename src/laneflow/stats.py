"""Statistics over per-class vehicle counts.

size_biased_expectation is the expected size of the class a uniformly chosen
vehicle belongs to: sum(n_k^2) / N.  scale_class_counts shrinks a raw count
vector to a target sample size by independent nearest-integer rounding of
each cell's proportional share (half away from zero) — deliberately NOT
largest-remainder apportionment, so row sums may drift from the target by a
cell or two.  linear_trend is plain ordinary least squares with r-squared
defined as 1 when y has zero variance.

Float sums go through ordered_sum, a plain left-to-right sum.  Python 3.12
made the builtin sum() of floats compensated, which changes the last bits of
means, deviations and trends, and with them the bytes of compare outputs;
ordered_sum gives the same bits on every supported Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import check_at_least_one, check_setting
from .errors import DegenerateDistribution, DegenerateFit


@dataclass(frozen=True)
class ClassCountVector:
    """Non-negative counts per ordered class label."""

    labels: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.counts):
            raise ValueError("labels and counts must have equal length")
        for label, count in zip(self.labels, self.counts):
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"count for {label!r} must be a non-negative integer")

    @property
    def total(self) -> int:
        return sum(self.counts)


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right sum, the same floating-point result on every Python."""
    total = 0
    for value in values:
        total += value
    return total


def _counts_of(counts: ClassCountVector | Sequence[int]) -> Sequence[int]:
    return counts.counts if isinstance(counts, ClassCountVector) else counts


def size_biased_expectation(counts: ClassCountVector | Sequence[int], sample_size: int) -> float:
    """Expected class size seen by a uniformly chosen vehicle: sum(n_k^2) / N."""
    check_setting("sample_size", check_at_least_one, sample_size)
    values = _counts_of(counts)
    return sum(c * c for c in values) / sample_size


def _round_half_away(numerator: int, denominator: int) -> int:
    # round(numerator/denominator) with halves away from zero; both args > 0 here
    return (2 * numerator + denominator) // (2 * denominator)


def scale_class_counts(raw: ClassCountVector, target_n: int) -> ClassCountVector:
    """Proportionally rescale counts to a target sample size, cell by cell.

    Each output cell is round(raw_k * target_n / total), half away from zero,
    computed in exact integer arithmetic.  Cells round independently, so the
    output total can differ slightly from target_n.
    """
    check_setting("target_n", check_at_least_one, target_n)
    total = raw.total
    if total == 0:
        raise DegenerateDistribution("cannot scale an all-zero count vector")
    scaled = tuple(_round_half_away(c * target_n, total) for c in raw.counts)
    return ClassCountVector(labels=raw.labels, counts=scaled)


def class_count_sd(counts: ClassCountVector | Sequence[int]) -> float:
    """Population standard deviation of the count vector."""
    values = list(_counts_of(counts))
    if not values:
        raise DegenerateDistribution("no classes to take a deviation over")
    k = len(values)
    mean = ordered_sum(values) / k
    return math.sqrt(ordered_sum((c - mean) ** 2 for c in values) / k)


@dataclass(frozen=True)
class TrendFit:
    slope: float
    intercept: float
    r_squared: float


def linear_trend(points: Sequence[tuple[float, float]]) -> TrendFit:
    """Ordinary least-squares line through (x, y) points.

    r_squared = 1 - SS_res/SS_tot, defined as 1.0 when all y are equal (the
    constant model fits perfectly, and 0/0 helps nobody).
    """
    if len(points) < 2:
        raise DegenerateFit("a trend needs at least two points")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(points)
    mean_x = ordered_sum(xs) / n
    mean_y = ordered_sum(ys) / n
    sxx = ordered_sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise DegenerateFit("all x values are equal")
    sxy = ordered_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = ordered_sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0:
        return TrendFit(slope=slope, intercept=intercept, r_squared=1.0)
    ss_res = ordered_sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return TrendFit(slope=slope, intercept=intercept, r_squared=1.0 - ss_res / ss_tot)
