"""Ensemble runner: seeding, aggregation, and the three output files."""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import pytest

from laneflow import (
    ClassCountVector,
    ConfigError,
    EnsembleSpec,
    SynthConfig,
    combine_seed,
    run_compare,
    write_outputs,
)
from laneflow.compare import CSV_HEADER, render_csv, render_summary_json

from conftest import fail_write_number

COUNTS = ClassCountVector(
    labels=("Cars", "Motor Cycle", "LCV", "Buses", "Trucks", "Vehicles", "Rickshaw"),
    counts=(840, 895, 268, 209, 2855, 3014, 551),
)


def small_spec(**overrides):
    values = dict(
        sample_sizes=(8, 12),
        runs_per_size=3,
        base_seed=0,
        counting_mode="event",
        source_counts=COUNTS,
        synth=SynthConfig(),
    )
    values.update(overrides)
    return EnsembleSpec(**values)


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(sample_sizes=())
    with pytest.raises(ConfigError):
        small_spec(sample_sizes=(10, 10))
    with pytest.raises(ConfigError):
        small_spec(sample_sizes=(12, 8))
    with pytest.raises(ConfigError):
        small_spec(runs_per_size=0)
    with pytest.raises(ConfigError, match="runs_per_size"):
        small_spec(runs_per_size=True)  # bool is an int subclass: True would pass as 1
    with pytest.raises(ConfigError):
        small_spec(base_seed=-1)
    with pytest.raises(ConfigError, match="^counting_mode must be 'event' or 'literal'$"):
        small_spec(counting_mode="guess")


@pytest.mark.parametrize("sizes", [(1.5, 2.5), (True, 2), (0, 5)], ids=str)
def test_sample_sizes_must_be_integers_of_at_least_one(sizes):
    with pytest.raises(ConfigError, match="^sample sizes must be an integer of at least 1$"):
        small_spec(sample_sizes=sizes)


def test_run_seeds_are_distinct_per_coordinate():
    seeds = {combine_seed(0, s, r) for s in range(5) for r in range(100)}
    assert len(seeds) == 500


def test_every_run_is_recorded():
    result = run_compare(small_spec())
    for algo in ("part1", "part2"):
        assert set(result.runs[algo]) == {8, 12}
        for size in (8, 12):
            assert len(result.runs[algo][size]) == 3


def test_aggregates_match_recomputation_from_runs():
    result = run_compare(small_spec())
    for algo in ("part1", "part2"):
        for size, counts in result.runs[algo].items():
            stats = result.stats[algo][size]
            mean = sum(counts) / len(counts)
            assert stats.mean == pytest.approx(mean)
            assert stats.sd == pytest.approx(
                math.sqrt(sum((c - mean) ** 2 for c in counts) / len(counts))
            )
            assert stats.min == min(counts)
            assert stats.max == max(counts)


def test_csv_schema_and_ordering():
    result = run_compare(small_spec())
    lines = render_csv(result).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert keys == [("8", "part1"), ("8", "part2"), ("12", "part1"), ("12", "part2")]


def test_csv_numbers_match_stats():
    result = run_compare(small_spec())
    for line in render_csv(result).splitlines()[1:]:
        size, algo, mean, sd, low, high = line.split(",")
        stats = result.stats[algo][int(size)]
        assert float(mean) == stats.mean
        assert float(sd) == stats.sd
        assert int(low) == stats.min
        assert int(high) == stats.max


def test_summary_json_contents():
    result = run_compare(small_spec())
    payload = json.loads(render_summary_json(result))
    assert payload["sampleSizes"] == [8, 12]
    assert payload["runsPerSize"] == 3
    assert payload["countingMode"] == "event"
    assert set(payload["series"]) == {"part1", "part2"}
    assert set(payload["series"]["part1"]) == {"8", "12"}
    assert set(payload["trend"]["part1"]) == {"slope", "intercept", "rSquared"}
    assert set(payload["part2VsPart1"]) == {"8", "12"}
    for size in ("8", "12"):
        gap = payload["part2VsPart1"][size]
        expected = payload["series"]["part2"][size]["mean"] - payload["series"]["part1"][size]["mean"]
        assert gap["absolute"] == pytest.approx(expected)


def test_relative_gap_is_null_when_part1_is_silent():
    # one speed per class band: neither planner can ever pair vehicles
    config = SynthConfig(
        class_speed_range={
            "Cars": (60, 60),
            "Motor Cycle": (40, 40),
            "LCV": (40, 40),
            "Buses": (48, 48),
            "Trucks": (20, 20),
            "Vehicles": (20, 20),
            "Rickshaw": (5, 5),
        }
    )
    result = run_compare(small_spec(synth=config))
    payload = json.loads(render_summary_json(result))
    for size in ("8", "12"):
        assert payload["series"]["part1"][size]["mean"] == 0.0
        assert payload["part2VsPart1"][size]["relative"] is None


def test_identical_specs_give_identical_outputs(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_outputs(run_compare(small_spec()), first)
    write_outputs(run_compare(small_spec()), second)
    for name in ("compare.csv", "compare.json", "compare.svg"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_written_chart_is_valid(tmp_path):
    written = write_outputs(run_compare(small_spec()), tmp_path)
    assert set(written) == {"csv", "json", "svg"}
    root = ET.fromstring(written["svg"].read_text(encoding="utf-8"))
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    result = run_compare(small_spec())
    fail_write_number(monkeypatch, 3)  # compare.svg, after the csv and the json
    with pytest.raises(OSError):
        write_outputs(result, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["compare.csv", "compare.json"]
    assert (tmp_path / "compare.csv").read_text(encoding="utf-8") == render_csv(result)
    assert (tmp_path / "compare.json").read_text(encoding="utf-8") == render_summary_json(result)
