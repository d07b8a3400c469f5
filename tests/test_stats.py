"""Count statistics: expectation, scaling, dispersion, trend fitting."""

from __future__ import annotations

import math
import random

import pytest

from laneflow.stats import ordered_sum
from laneflow import (
    ClassCountVector,
    DegenerateDistribution,
    DegenerateFit,
    InvalidSampleSize,
    class_count_sd,
    linear_trend,
    scale_class_counts,
    size_biased_expectation,
)

LABELS = ("Cars", "Motor Cycle", "LCV", "Buses", "Trucks", "Vehicles", "Rickshaw")


def vector(*counts, labels=None):
    labels = labels or tuple(f"c{i}" for i in range(len(counts)))
    return ClassCountVector(labels=labels, counts=tuple(counts))


def test_expectation_known_values():
    assert size_biased_expectation(vector(2, 2, 1, 0, 7, 7, 1), 20) == pytest.approx(5.4)
    assert size_biased_expectation(vector(3, 2, 2, 2, 3, 2, 6), 20) == pytest.approx(3.5)
    assert size_biased_expectation(vector(5, 5, 2, 1, 17, 17, 3), 50) == pytest.approx(12.84)
    assert size_biased_expectation(vector(20), 20) == pytest.approx(20.0)


def test_expectation_accepts_plain_sequences():
    assert size_biased_expectation([2, 2, 1, 0, 7, 7, 1], 20) == pytest.approx(5.4)


def test_expectation_matches_roster_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(1, 8)
        counts = [rng.randint(0, 12) for _ in range(k)]
        if sum(counts) == 0:
            counts[0] = 1
        total = sum(counts)
        # enumerate every vehicle; record the size of its own class
        roster = [c for c in counts for _ in range(c)]
        mean_class_size = sum(roster) / total
        assert size_biased_expectation(vector(*counts), total) == pytest.approx(mean_class_size)


def test_expectation_lower_bound():
    rng = random.Random(13)
    for _ in range(60):
        k = rng.randint(1, 9)
        counts = [rng.randint(0, 15) for _ in range(k)]
        if sum(counts) == 0:
            counts[-1] = 4
        total = sum(counts)
        value = size_biased_expectation(vector(*counts), total)
        bound = total * total / (k * total)
        assert value >= bound - 1e-12
        if len(set(counts)) == 1:
            assert value == pytest.approx(bound)


def test_expectation_rejects_bad_sample_size():
    for bad in (0, -5, 2.0, True):
        with pytest.raises(InvalidSampleSize):
            size_biased_expectation(vector(1, 2), bad)


RAW_ROW_1 = vector(840, 895, 268, 209, 2855, 3014, 551, labels=LABELS)


def test_scaling_known_rows():
    assert scale_class_counts(RAW_ROW_1, 20).counts == (2, 2, 1, 0, 7, 7, 1)
    assert scale_class_counts(RAW_ROW_1, 30).counts == (3, 3, 1, 1, 10, 10, 2)


def test_scaling_identity():
    assert scale_class_counts(RAW_ROW_1, RAW_ROW_1.total).counts == RAW_ROW_1.counts


def test_scaling_is_scale_invariant():
    for multiplier in (2, 3, 10):
        scaled_up = vector(*(c * multiplier for c in RAW_ROW_1.counts), labels=LABELS)
        for n in (20, 25, 30, 40, 50):
            assert scale_class_counts(scaled_up, n).counts == scale_class_counts(RAW_ROW_1, n).counts


def test_scaling_rounds_halves_away_from_zero():
    assert scale_class_counts(vector(1, 1), 3).counts == (2, 2)
    assert scale_class_counts(vector(1, 1), 5).counts == (3, 3)
    assert scale_class_counts(vector(1, 3), 8).counts == (2, 6)


def test_scaling_cells_stay_within_half_of_quota():
    rng = random.Random(17)
    for _ in range(60):
        counts = [rng.randint(0, 400) for _ in range(7)]
        if sum(counts) == 0:
            counts[3] = 5
        raw = vector(*counts)
        n = rng.randint(1, 60)
        out = scale_class_counts(raw, n)
        for cell, count in zip(out.counts, raw.counts):
            assert abs(cell - count * n / raw.total) <= 0.5 + 1e-12


def test_scaling_rejects_degenerate_input():
    with pytest.raises(DegenerateDistribution):
        scale_class_counts(vector(0, 0, 0), 10)
    with pytest.raises(InvalidSampleSize):
        scale_class_counts(RAW_ROW_1, 0)


def test_sd_known_values():
    assert class_count_sd(vector(5, 5, 5)) == 0.0
    assert class_count_sd(vector(0, 10)) == 5.0
    assert class_count_sd(vector(2, 2, 1, 0, 7, 7, 1)) == pytest.approx(math.sqrt(356 / 49))


def test_sd_rejects_empty():
    with pytest.raises(DegenerateDistribution):
        class_count_sd(vector())


def test_vector_validation():
    with pytest.raises(ValueError):
        ClassCountVector(labels=("a",), counts=(1, 2))
    with pytest.raises(ValueError):
        ClassCountVector(labels=("a",), counts=(-1,))
    with pytest.raises(ValueError):
        ClassCountVector(labels=("a",), counts=(1.5,))


def test_trend_exact_line():
    fit = linear_trend([(1, 2), (2, 4), (3, 6)])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(0.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_trend_flat_line_is_a_perfect_fit():
    fit = linear_trend([(1, 5), (2, 5), (3, 5)])
    assert fit.slope == pytest.approx(0.0)
    assert fit.r_squared == 1.0


def test_trend_uninformative_fit():
    fit = linear_trend([(0, 0), (1, 1), (2, 0)])
    assert fit.slope == pytest.approx(0.0)
    assert fit.intercept == pytest.approx(1 / 3)
    assert fit.r_squared == pytest.approx(0.0)


def test_trend_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        linear_trend([(1, 1)])
    with pytest.raises(DegenerateFit):
        linear_trend([(2, 1), (2, 9), (2, 4)])


def test_float_sums_are_the_same_on_every_python():
    # Python 3.12's sum() compensates rounding and gives 1.0 here; the
    # statistics must keep the plain left-to-right result on every version.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    tenths = [0.1] * 10
    assert ordered_sum(tenths) == 0.9999999999999999
    assert class_count_sd(tenths) == 1.3877787807814457e-17
    assert linear_trend([(x, 0.1) for x in range(10)]).intercept == 0.09999999999999999
