"""Speed-class lane planning and transition counting."""

from __future__ import annotations

import random

import pytest

from laneflow import (
    ConfigError,
    EmptyStream,
    PlanHasNoAdjacentLane,
    TransitionEvent,
    VehicleRecord,
    build_lane_plan,
    classify_speed,
    render_report,
    simulate_part1,
    simulate_part2,
)
from laneflow import part1, part2
from laneflow.part1 import common_scale, count_transitions, enumerate_overtake_pairs, transition_target

from conftest import literal_count_of, make_stream
from reference_planners import exact, report_to_dict


def stream(*speed_arrivals):
    return [
        VehicleRecord(id=f"v{i + 1}", speed=speed, arrival=arrival)
        for i, (speed, arrival) in enumerate(speed_arrivals)
    ]


def brute_pair_count(vehicles):
    total = 0
    for slow in vehicles:
        for fast in vehicles:
            if slow is fast:
                continue
            if (
                classify_speed(slow.speed) is classify_speed(fast.speed)
                and slow.speed < fast.speed
                and slow.arrival <= fast.arrival
            ):
                total += 1
    return total


def test_lane_formation_first_appearance_order():
    vehicles = stream((5, 0), (20, 1), (7, 2), (60, 3))
    lane_of, lane_count = build_lane_plan(vehicles)
    assert lane_count == 3
    assert lane_of == {"v1": 1, "v2": 2, "v3": 1, "v4": 3}
    lane_class = {lane_of[v.id]: v.speed_class for v in vehicles}
    assert [lane_class[i].name for i in (1, 2, 3)] == ["A", "B", "E"]


def test_lane_formation_degenerate_streams():
    assert build_lane_plan(stream((50, 0)))[1] == 1
    lane_of, lane_count = build_lane_plan(stream((5, 0), (5, 1), (5, 2)))
    assert lane_count == 1
    assert set(lane_of.values()) == {1}


def test_lane_formation_rejects_bad_input():
    with pytest.raises(EmptyStream):
        build_lane_plan([])
    twice = [VehicleRecord(id="v1", speed=5, arrival=0)] * 2
    with pytest.raises(ValueError):
        build_lane_plan(twice)


def test_pair_enumeration_guard():
    plan_and_pairs = lambda vs: enumerate_overtake_pairs(vs, build_lane_plan(vs)[0])

    def head_start_and_tick(pair):
        slow, fast, _, tick = pair
        return fast.arrival - slow.arrival, tick

    caught_up = plan_and_pairs(stream((35, 0), (45, 1)))
    assert len(caught_up) == 1
    assert head_start_and_tick(caught_up[0]) == (1, 4)  # ceil(35 * 1 / 10)

    assert plan_and_pairs(stream((35, 1), (45, 0))) == []

    same_tick = plan_and_pairs(stream((35, 0), (40, 0)))
    assert len(same_tick) == 1
    assert head_start_and_tick(same_tick[0]) == (0, 1)  # ceil(0) raised to tick 1


def test_pair_enumeration_covers_all_ordered_pairs():
    # v3 is slower than v1 but listed later; the (v3, v1) pair must
    # still be found, and order must follow input positions.
    vehicles = stream((40, 5), (45, 9), (35, 2))
    pairs = enumerate_overtake_pairs(vehicles, build_lane_plan(vehicles)[0])
    labels = [(slow.id, fast.id, tick) for slow, fast, _, tick in pairs]
    # ceil(40 * 4 / 5), ceil(35 * 3 / 5), ceil(35 * 7 / 10)
    assert labels == [("v1", "v2", 32), ("v3", "v1", 21), ("v3", "v2", 25)]


def test_count_transitions_event_mode():
    vehicles = stream((20, 0), (35, 0), (45, 1))  # lane 1: B, lane 2: C x2
    lane_of, lane_count = build_lane_plan(vehicles)
    pairs = enumerate_overtake_pairs(vehicles, lane_of)
    count, events = count_transitions(pairs, lane_count)
    assert count == 1
    event = events[0]
    assert (event.overtaken_id, event.overtaker_id) == ("v2", "v3")
    assert event.from_lane == 2
    assert event.to_lane == 1
    assert event.catch_up_ticks == 4


def test_count_transitions_interior_preference():
    vehicles = stream((5, 0), (35, 0), (45, 1), (60, 0))  # C pair sits in lane 2 of 3
    lane_of, lane_count = build_lane_plan(vehicles)
    pairs = enumerate_overtake_pairs(vehicles, lane_of)
    _, lower = count_transitions(pairs, lane_count, interior="lower")
    _, upper = count_transitions(pairs, lane_count, interior="upper")
    assert lower[0].to_lane == 1
    assert upper[0].to_lane == 3


def test_transition_target_edges_and_interior():
    assert transition_target(1, 3) == 2
    assert transition_target(3, 3) == 2
    assert transition_target(2, 3) == 1
    assert transition_target(2, 3, interior="upper") == 3
    assert transition_target(1, 2) == 2
    assert transition_target(2, 2) == 1


def test_transition_target_single_lane_rejected():
    with pytest.raises(PlanHasNoAdjacentLane):
        transition_target(1, 1)


def test_transition_target_validates_arguments():
    with pytest.raises(ValueError):
        transition_target(0, 3)
    with pytest.raises(ValueError):
        transition_target(4, 3)
    with pytest.raises(ConfigError, match="^interior must be 'lower' or 'upper'$"):
        transition_target(2, 3, interior="sideways")


def test_transition_target_is_adjacent_and_different():
    for lane_count in range(2, 9):
        for lane in range(1, lane_count + 1):
            for interior in ("lower", "upper"):
                target = transition_target(lane, lane_count, interior)
                assert target != lane
                assert abs(target - lane) == 1
                assert 1 <= target <= lane_count


def test_literal_count_three_vehicle_example():
    vehicles = stream((20, 0), (35, 0), (45, 1))  # lane 2: 35 then 45 one tick later
    lane_of, lane_count = build_lane_plan(vehicles)
    assert literal_count_of(vehicles, lane_of, lane_count) == 3  # floor(35 * 1 / 10)


def test_a_literal_report_scales_its_stream_once_per_planner_pass(monkeypatch):
    # part1 scales in lane_members, which feeds both the literal count and the
    # lane statistics, and in event mode once more in enumerate_overtake_pairs,
    # which stamps each pair's tick, so count_transitions scales nothing;
    # part2 scales once more, for its own fold
    calls = []

    def counting_scale(speeds):
        calls.append(1)
        return common_scale(speeds)

    for module in (part1, part2):
        monkeypatch.setattr(module, "common_scale", counting_scale)
    vehicles = stream((35.3, 0), (45.5, 1), (20.1, 0), (35.7, 2))  # one-decimal speeds: L = 10
    for mode, part1_scales in (("literal", 1), ("event", 2)):
        for simulate, args, scales in ((simulate_part1, (), part1_scales),
                                       (simulate_part2, (2,), part1_scales + 1)):
            calls.clear()
            report = simulate(vehicles, *args, mode=mode)
            assert report.transition_count > 0
            assert len(calls) == scales, (mode, simulate.__name__)


def test_count_transitions_empty():
    assert count_transitions([], 4) == (0, ())
    assert count_transitions([], 1) == (0, ())
    no_pairs = stream((10, 0), (10, 5), (9, 9))  # one lane, nobody faster behind
    assert literal_count_of(no_pairs, build_lane_plan(no_pairs)[0], 1) == 0


def test_unknown_mode_is_refused_before_any_work():
    unknown_mode = "^mode must be 'event' or 'literal'$"
    unknown_interior = "^interior must be 'lower' or 'upper'$"
    for vehicles in (
        [],  # would raise EmptyStream if the planner ran first
        stream((5, 0), (20, 1)),  # no pairs: would count 0 and make no event
        stream((15, 0), (20, 1), (35, 2), (5, 0)),  # pairs: literal mode makes no event
    ):
        with pytest.raises(ConfigError, match=unknown_mode):
            simulate_part1(vehicles, "both")
        with pytest.raises(ConfigError, match=unknown_mode):
            simulate_part2(vehicles, 1, "both")
        for mode in ("event", "literal"):
            with pytest.raises(ConfigError, match=unknown_interior):
                simulate_part1(vehicles, mode, "sideways")
            with pytest.raises(ConfigError, match=unknown_interior):
                simulate_part2(vehicles, 2, mode, "sideways")


def test_single_lane_with_pairs_is_contradictory():
    vehicles = stream((5, 0), (7, 1))  # both class A: one lane, one pair
    for mode in ("event", "literal"):
        with pytest.raises(PlanHasNoAdjacentLane):
            simulate_part1(vehicles, mode)


def test_simulate_three_vehicle_example():
    report = simulate_part1(stream((35, 0), (45, 1), (5, 0)))
    assert report.lane_count == 2
    assert report.transition_count == 1
    assert report.lane_population == {1: 2, 2: 1}
    assert report.lane_average_speed == {1: 40.0, 2: 5.0}


def test_events_are_transition_events():
    # a plain tuple would compare equal to the event, yet report_to_dict reads its field names
    vehicles = stream((5, 0), (35, 0), (45, 1), (40, 2), (60, 0), (7, 3))
    for report in (simulate_part1(vehicles), simulate_part2(vehicles, 3)):
        assert report.events
        assert all(type(e) is TransitionEvent for e in report.events), report.algorithm
        assert [e["overtakerId"] for e in report_to_dict(report)["events"]] == [
            e.overtaker_id for e in report.events
        ]


def test_simulate_single_vehicle():
    report = simulate_part1(stream((50, 0)))
    assert report.lane_count == 1
    assert report.transition_count == 0
    assert report.lane_average_speed == {1: 50.0}


def test_simulate_equal_speeds_never_transition():
    report = simulate_part1(stream((10, 0), (10, 5), (10, 9)))
    assert report.transition_count == 0


def test_population_and_average_bookkeeping():
    report = simulate_part1(stream((33, 0), (44, 0), (20, 1), (30, 2)))
    assert sum(report.lane_population.values()) == 4
    assert report.lane_average_speed[1] == pytest.approx(38.5)
    assert report.lane_average_speed[2] == 25.0


def test_random_streams_satisfy_invariants():
    for seed in range(120):
        vehicles = make_stream(seed, max_n=60, float_share=0.15 if seed % 3 == 0 else 0.0)
        lane_of, lane_count = build_lane_plan(vehicles)
        pairs = brute_pair_count(vehicles)
        if lane_count == 1 and pairs:
            with pytest.raises(PlanHasNoAdjacentLane):
                simulate_part1(vehicles)
            continue
        report = simulate_part1(vehicles)

        classes = {classify_speed(v.speed) for v in vehicles}
        assert report.lane_count == len(classes)

        by_lane: dict[int, set] = {}
        for v in vehicles:
            by_lane.setdefault(lane_of[v.id], set()).add(classify_speed(v.speed))
        assert all(len(cs) == 1 for cs in by_lane.values())
        assert len(set(frozenset(cs) for cs in by_lane.values())) == len(by_lane)

        assert report.transition_count == pairs
        assert sum(report.lane_population.values()) == len(vehicles)

        for lane, avg in report.lane_average_speed.items():
            members = [exact(v.speed) for v in vehicles if lane_of[v.id] == lane]
            assert avg == float(sum(members) / len(members))


def test_transition_count_is_permutation_invariant():
    rng = random.Random(42)
    for seed in range(25):
        vehicles = make_stream(seed, max_n=40)
        if build_lane_plan(vehicles)[1] == 1:
            continue
        shuffled = rng.sample(vehicles, len(vehicles))
        for mode in ("event", "literal"):
            assert (
                simulate_part1(vehicles, mode).transition_count
                == simulate_part1(shuffled, mode).transition_count
            )


def test_simulation_is_reproducible():
    vehicles = make_stream(321, max_n=80)
    vehicles.append(VehicleRecord(id="slow-cap", speed=1, arrival=0))
    vehicles.append(VehicleRecord(id="fast-cap", speed=100, arrival=0))
    first = render_report(simulate_part1(vehicles))
    second = render_report(simulate_part1(vehicles))
    assert first == second
