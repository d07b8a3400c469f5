"""Seeded stream synthesis from class counts."""

from __future__ import annotations

import hashlib

import pytest

from laneflow import ClassCountVector, ConfigError, SynthConfig, synthesize_stream
from laneflow.domain import render_vehicle_file
from laneflow.refdata import load_token_samples
from laneflow.stats import scale_class_counts
from laneflow.synth import DEFAULT_ARRIVAL_GAP_MAX, DEFAULT_SPEED_RANGES


def make_counts(mapping):
    return ClassCountVector(labels=tuple(mapping), counts=tuple(mapping.values()))


def test_default_config_is_valid():
    config = SynthConfig()
    assert config.arrival_gap_max == DEFAULT_ARRIVAL_GAP_MAX
    assert config.class_speed_range == DEFAULT_SPEED_RANGES


def test_stream_length_and_ids():
    counts = make_counts({"Cars": 3, "Trucks": 2})
    stream = synthesize_stream(counts, SynthConfig(), 9)
    assert len(stream) == 5
    assert [v.id for v in stream] == ["v1", "v2", "v3", "v4", "v5"]


def test_multiplicities_with_disjoint_ranges():
    counts = make_counts({"slowpokes": 4, "speedsters": 6})
    config = SynthConfig(class_speed_range={"slowpokes": (1, 10), "speedsters": (60, 80)})
    stream = synthesize_stream(counts, config, 3)
    slow = sum(1 for v in stream if v.speed <= 10)
    fast = sum(1 for v in stream if 60 <= v.speed <= 80)
    assert (slow, fast) == (4, 6)
    assert slow + fast == len(stream)


def test_single_vehicle_lands_in_its_class_range():
    counts = make_counts({"Cars": 1, "Trucks": 0})
    for seed in range(25):
        stream = synthesize_stream(counts, SynthConfig(), seed)
        assert len(stream) == 1
        lo, hi = DEFAULT_SPEED_RANGES["Cars"]
        assert lo <= stream[0].speed <= hi


def test_arrivals_are_cumulative_and_bounded():
    counts = make_counts({"Cars": 40})
    config = SynthConfig(arrival_gap_max=3)
    stream = synthesize_stream(counts, config, 11)
    previous = 0
    for v in stream:
        assert v.arrival >= previous
        assert v.arrival - previous <= 3
        previous = v.arrival


def test_identical_inputs_give_identical_streams():
    counts = make_counts({"Cars": 10, "Buses": 5})
    first = synthesize_stream(counts, SynthConfig(), 77)
    second = synthesize_stream(counts, SynthConfig(), 77)
    assert first == second


def test_different_seeds_give_different_streams():
    counts = make_counts({"Cars": 10, "Buses": 5})
    first = synthesize_stream(counts, SynthConfig(), 1)
    second = synthesize_stream(counts, SynthConfig(), 2)
    assert first != second


def test_zero_count_classes_need_no_range():
    counts = make_counts({"Cars": 2, "weird": 0})
    stream = synthesize_stream(counts, SynthConfig(), 5)
    assert len(stream) == 2


def test_missing_range_for_nonzero_class():
    counts = make_counts({"hovercraft": 1})
    with pytest.raises(ConfigError):
        synthesize_stream(counts, SynthConfig(), 5)


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(class_speed_range={"Cars": (0, 10)})
    with pytest.raises(ConfigError):
        SynthConfig(class_speed_range={"Cars": (10, 101)})
    with pytest.raises(ConfigError):
        SynthConfig(class_speed_range={"Cars": (30, 20)})
    with pytest.raises(ConfigError):
        SynthConfig(arrival_gap_max=0)
    counts = make_counts({"Cars": 2})
    with pytest.raises(ConfigError, match="^seed "):
        synthesize_stream(counts, SynthConfig(), -1)
    with pytest.raises(ConfigError, match="^seed "):
        synthesize_stream(counts, SynthConfig(), 1 << 64)
    with pytest.raises(ConfigError, match="^seed "):
        synthesize_stream(counts, SynthConfig(), 1.5)  # SplitMix64 would fail on it at the first draw
    # bool is an int subclass: True would pass as 1
    with pytest.raises(ConfigError, match="arrival_gap_max"):
        SynthConfig(arrival_gap_max=True)
    with pytest.raises(ConfigError, match="^seed must fit in an unsigned 64-bit integer$"):
        synthesize_stream(counts, SynthConfig(), True)


@pytest.mark.parametrize("bounds", [(1.5, 20), (1, 20.0), (True, 20)], ids=str)
def test_speed_range_bounds_must_be_integers(bounds):
    with pytest.raises(ConfigError, match="^speed range for 'Cars' must be integers, got "):
        SynthConfig(class_speed_range={"Cars": bounds})


def test_empty_stream_for_all_zero_counts():
    counts = make_counts({"Cars": 0})
    assert synthesize_stream(counts, SynthConfig(), 1) == []


def _row1_scaled(n):
    return scale_class_counts(load_token_samples().usable_counts(1), n)


# sha256 of the rendered stream, recorded from the step-by-step generator
# (one splitmix64 loop iteration per draw); they pin the draw order and values.
GOLDEN_STREAMS = {
    "one-vehicle": (lambda: make_counts({"Cars": 1}), SynthConfig(), 0,
                    "93beb751b1ab41c31894f496c7c26c4151fbbafea58210c33b46e4b67ac1bd79"),
    "zero-count-class": (lambda: make_counts({"Cars": 3, "Trucks": 0, "Buses": 2}), SynthConfig(), 7,
                         "6350aa4e7e5c74725801a1e5f03151b9104e42af23703c64d45490574cbd6566"),
    "gap-max-1": (lambda: make_counts({"Rickshaw": 5, "Cars": 10}), SynthConfig(arrival_gap_max=1), 11,
                  "caaa859a4088e9e5c6186f5f191d3d8ad2b195ab3e92903b34c218fd93f8b1e3"),
    "gap-max-5": (lambda: make_counts({"Rickshaw": 5, "Cars": 10}), SynthConfig(arrival_gap_max=5), 11,
                  "873734054812cb14b9029fa889f62133fd7cabeb5c82603b9754f1515c8ff5ff"),
    "row1-n400": (lambda: _row1_scaled(400), SynthConfig(), 0,
                  "1df5ce1226696c83b355c2c14eb583f0f19e6aa799a090fb3002dd2d1c30e772"),
    # 1999 vehicles, 5996 draws: the batch crosses a chunk boundary
    "row1-n2000": (lambda: _row1_scaled(2000), SynthConfig(), (1 << 64) - 1,
                   "206c3782cb62d0cb3f2e84d33b347bcca52a02aa36941cfd53fc6ddf25ad5c69"),
}


@pytest.mark.parametrize("case", GOLDEN_STREAMS)
def test_streams_keep_their_bytes(case):
    counts, config, seed, digest = GOLDEN_STREAMS[case]
    text = render_vehicle_file(synthesize_stream(counts(), config, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
