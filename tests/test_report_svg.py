"""Canonical JSON reports and deterministic SVG charts."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from laneflow import (
    SimulationReport,
    TransitionEvent,
    VehicleRecord,
    canonical_json,
    render_report,
    simulate_part1,
    simulate_part2,
)
from laneflow.svgchart import HEIGHT, WIDTH, Series, _nice_step, _ticks, render_line_chart

from reference_planners import report_to_dict


def sample_report():
    vehicles = [
        VehicleRecord(id="v1", speed=35, arrival=0),
        VehicleRecord(id="v2", speed=45, arrival=1),
        VehicleRecord(id="v3", speed=5, arrival=0),
    ]
    return simulate_part1(vehicles)


def test_canonical_json_is_sorted_compact_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [1, 2], "c": {"z": 0, "y": 1}})
    assert text == '{"a":[1,2],"b":1,"c":{"y":1,"z":0}}\n'


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_report_field_names_and_lane_keys():
    payload = report_to_dict(sample_report())
    assert set(payload) == {
        "algorithm",
        "countingMode",
        "laneCount",
        "transitionCount",
        "events",
        "laneAverageSpeed",
        "lanePopulation",
    }
    assert set(payload["laneAverageSpeed"]) == {"1", "2"}
    assert set(payload["lanePopulation"]) == {"1", "2"}
    event = payload["events"][0]
    assert set(event) == {"overtakerId", "overtakenId", "fromLane", "toLane", "catchUpTicks"}


def test_writer_escapes_ids_like_its_spec():
    # a quote, a backslash, a non-ASCII letter, a line separator that JSON
    # allows raw but ensure_ascii escapes, an inner tab and an astral character
    ids = ['"', "\\", "\u00e9", "x\u2028y", "a\tb", "car\U0001F697"]
    events = tuple(
        TransitionEvent(fast, slow, 1 + i % 2, 2 - i % 2, i + 1)
        for i, (fast, slow) in enumerate(zip(ids, ids[1:] + ids[:1]))
    )
    report = SimulationReport(
        algorithm="part1", counting_mode="event", lane_count=2, transition_count=len(events),
        events=events, lane_average_speed={1: 35.5, 2: 45}, lane_population={1: 3, 2: 3},
    )
    text = render_report(report)
    assert text == canonical_json(report_to_dict(report))
    assert text.isascii()
    assert [e["overtakerId"] for e in json.loads(text)["events"]] == ids


def test_writer_orders_lane_keys_as_strings():
    vehicles = [VehicleRecord(f"v{i}", 5 * i, 20 - i) for i in range(1, 15)]
    report = simulate_part2(vehicles, budget=12)
    assert report.lane_count >= 10
    text = render_report(report)
    assert text == canonical_json(report_to_dict(report))
    assert text.index('"10":') < text.index('"2":')


def test_writer_renders_an_empty_event_list():
    vehicles = [VehicleRecord("v1", 35, 0), VehicleRecord("v2", 45, 1), VehicleRecord("v3", 5, 0)]
    report = simulate_part1(vehicles, "literal")
    assert report.events == () and report.transition_count > 0
    text = render_report(report)
    assert text == canonical_json(report_to_dict(report))
    assert '"events":[]' in text


def test_rendered_report_round_trips_and_repeats():
    report = sample_report()
    first = render_report(report)
    second = render_report(report)
    assert first == second
    assert first.endswith("\n")
    parsed = json.loads(first)
    assert parsed["algorithm"] == "part1"
    assert parsed["laneCount"] == 2
    assert parsed["transitionCount"] == 1


def chart(series_count=2):
    series = [
        Series(name=f"s{i}", points=((10.0, 1.0 + i), (20.0, 4.0 + i), (30.0, 3.0 + i)))
        for i in range(series_count)
    ]
    return render_line_chart(series, title="t", x_label="x", y_label="y")


def test_chart_is_well_formed_xml_with_fixed_viewport():
    root = ET.fromstring(chart())
    assert root.tag.endswith("svg")
    assert root.get("width") == str(WIDTH)
    assert root.get("height") == str(HEIGHT)


def test_chart_has_exactly_one_polyline_per_series():
    for count in (1, 2, 3):
        root = ET.fromstring(chart(count))
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == count


def test_chart_is_deterministic():
    assert chart() == chart()


def test_chart_coordinates_have_two_decimals():
    root = ET.fromstring(chart(1))
    polyline = next(el for el in root.iter() if el.tag.endswith("polyline"))
    for pair in polyline.get("points").split():
        x, y = pair.split(",")
        assert len(x.rsplit(".", 1)[1]) == 2
        assert len(y.rsplit(".", 1)[1]) == 2


def test_tick_step_is_the_smallest_nice_step_of_a_fifth_of_the_span():
    # spans over six decades, powers of ten and the 1/2/5 boundaries included
    spans = [m * 10**e for e in range(-2, 4) for m in (1, 1.5, 2, 3, 5, 7.5, 10, 25, 50)]
    for span in spans:
        raw = Fraction(repr(span)) / 5  # the span as written, not its binary float
        magnitude = Fraction(1, 1000)  # then 10**floor(log10(raw))
        while 10 * magnitude <= raw:
            magnitude *= 10
        want = min(m * magnitude for m in (1, 2, 5, 10) if m * magnitude >= raw)
        assert _nice_step(span) == pytest.approx(float(want), rel=1e-12), span


def test_ticks_reach_both_ends_of_the_range():
    for lo, hi in ((0.0, 1.0), (20.0, 50.0), (0.0, 37.5), (20.0, 400.0), (3.0, 3.5), (0.0, 12345.0)):
        step = _nice_step(hi - lo)
        ticks = _ticks(lo, hi)
        assert ticks == sorted(ticks) and len(ticks) >= 2, (lo, hi)
        assert abs(ticks[0] - lo) <= step / 2 and abs(ticks[-1] - hi) <= step / 2, (lo, hi, ticks)
        for end in (lo, hi):
            if (end / step).is_integer():
                assert end in ticks, (lo, hi, ticks)
