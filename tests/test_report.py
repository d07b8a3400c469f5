"""The report renderer against its spec, and the sliced atomic writer."""

from __future__ import annotations

import builtins
import errno
import random
import tracemalloc
import types

import pytest

import laneflow
from laneflow import (
    SimulationReport,
    TransitionEvent,
    VehicleRecord,
    canonical_json,
    render_report,
    simulate_part1,
)
from laneflow import report as report_module
from laneflow.report import WRITE_SLICE, write_text_atomic

from reference_planners import report_to_dict


def hand_report(events, lane_count=3, averages=(5.0, 35.5, 47.25)):
    return SimulationReport(
        algorithm="part1", counting_mode="event", lane_count=lane_count,
        transition_count=len(events), events=tuple(events),
        lane_average_speed=dict(enumerate(averages, start=1)), lane_population={1: 2, 2: 4, 3: 3},
    )


def assert_renders_its_spec(report):
    text = render_report(report)
    assert text == canonical_json(report_to_dict(report))
    return text


def test_the_package_exports_its_writer_and_not_the_spec():
    # the spec lives with the test oracle; __all__ is exactly the root's
    # public names, so no name goes missing from it and none is stale
    public = {
        name for name, value in vars(laneflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(laneflow.__all__) == public | {"__version__"}
    assert len(laneflow.__all__) == len(set(laneflow.__all__))
    for name in laneflow.__all__:
        getattr(laneflow, name)
    assert "render_report" in laneflow.__all__
    assert not hasattr(laneflow, "report_to_dict")


def test_events_in_any_order_render_their_spec():
    # runs of one (leader, from lane, to lane) of length 1, 2 and 3, leaders
    # that come back after another, and one leader with two lane moves
    events = [
        TransitionEvent("b", "a", 1, 2, 3),
        TransitionEvent("c", "x", 2, 1, 1),
        TransitionEvent("d", "x", 2, 1, 7),
        TransitionEvent("e", "a", 1, 2, 2),
        TransitionEvent("f", "a", 2, 3, 4),
        TransitionEvent("g", "a", 2, 1, 4),
        TransitionEvent("h", "x", 2, 1, 10),
        TransitionEvent("i", "x", 2, 1, 11),
        TransitionEvent("j", "x", 2, 1, 12),
        TransitionEvent("b", "a", 1, 2, 3),
    ]
    for order in (events, events[::-1], sorted(events), events[1::2] + events[::2]):
        assert_renders_its_spec(hand_report(order))


def test_a_simulated_report_renders_its_spec():
    rng = random.Random(7)
    vehicles = [VehicleRecord(f"v{i}", rng.randint(1, 100), rng.randint(0, 40)) for i in range(60)]
    report = simulate_part1(vehicles)
    assert len(report.events) > 100
    assert_renders_its_spec(report)
    shuffled = rng.sample(report.events, len(report.events))
    assert_renders_its_spec(hand_report(shuffled, report.lane_count))


def test_an_empty_event_list_renders_its_spec():
    text = assert_renders_its_spec(hand_report([]))
    assert '"events":[]' in text
    # a library caller's int averages render as floats, as in the spec
    text = assert_renders_its_spec(hand_report([], averages=(40, 35.5, 47)))
    assert '"laneAverageSpeed":{"1":40.0,"2":35.5,"3":47.0}' in text


def test_ids_that_need_escaping_render_their_spec():
    ids = ['"', "\\", '\\"', "café", "üß", " ", "car\U0001F697", "a\tb", "\x1f", "\x7f", "plain"]
    moves = ((1, 2), (2, 1), (2, 3), (3, 2))
    events = [
        TransitionEvent(fast, slow, *moves[i % 4], i + 1)
        for i, (fast, slow) in enumerate((a, b) for a in ids for b in ids if a != b)
    ]
    text = assert_renders_its_spec(hand_report(events))
    assert text.isascii()


def traced_peak(fn, *args):
    """fn(*args) and the peak memory tracemalloc saw it allocate beyond what
    was held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_rendering_holds_about_two_copies_of_the_text():
    # the events' strings and the joined text; not a list of every event's
    # string beside them, nor a second concatenation
    rng = random.Random(3)
    vehicles = [VehicleRecord(f"v{i}", rng.randint(1, 100), rng.randint(0, 300)) for i in range(500)]
    report = simulate_part1(vehicles)
    assert len(report.events) >= 10_000
    text, peak = traced_peak(render_report, report)
    assert text == canonical_json(report_to_dict(report))
    assert peak <= 2.2 * len(text), peak / len(text)


def sliced_text(length, wide="é€\U0001F697"):
    """length characters, with a character of wide on each side of every
    slice edge (by default two-, three- and four-byte characters in turn)."""
    chars = ["a"] * length
    for k, edge in enumerate(range(WRITE_SLICE, length + 1, WRITE_SLICE)):
        chars[edge - 1] = wide[k % len(wide)]
        if edge < length:
            chars[edge] = wide[(k + 1) % len(wide)]
    return "".join(chars)


@pytest.mark.parametrize("length", [
    0, WRITE_SLICE - 1, WRITE_SLICE, WRITE_SLICE + 1, 3 * WRITE_SLICE + 7,
])
def test_sliced_write_gives_the_utf8_bytes(tmp_path, length):
    text = sliced_text(length)
    assert len(text) == length
    target = tmp_path / "out.json"
    target.write_bytes(b"old")
    write_text_atomic(target, text)
    assert target.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class FailsOnSecondWrite:
    """A text file whose second write fails as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(text)


def test_a_failed_slice_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch):
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(FailsOnSecondWrite(builtins.open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(report_module, "open", failing_open, raising=False)
    target = tmp_path / "out.json"
    target.write_bytes(b'{"old":true}\n')
    with pytest.raises(OSError) as failure:
        write_text_atomic(target, sliced_text(3 * WRITE_SLICE))
    assert failure.value.errno == errno.ENOSPC
    assert [f.writes for f in opened] == [2]  # the first slice went out, the second failed
    assert target.read_bytes() == b'{"old":true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_sliced_write_makes_no_encoded_copy_of_the_text(tmp_path):
    # one byte per character in memory, as a report (which is ASCII) is held
    text = sliced_text(32 * WRITE_SLICE, wide="é")
    target = tmp_path / "out.json"
    _, peak = traced_peak(write_text_atomic, target, text)
    assert target.read_bytes() == text.encode("utf-8")
    assert peak <= 0.2 * len(text), peak / len(text)
