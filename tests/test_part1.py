"""Speed-class lane planning and transition counting."""

from __future__ import annotations

import random

import pytest

from laneflow import (
    EmptyStream,
    OvertakePairing,
    PlanHasNoAdjacentLane,
    VehicleRecord,
    build_lane_plan,
    classify_speed,
    count_transitions,
    enumerate_overtake_pairs,
    render_report,
    simulate_part1,
)
from laneflow.kinematics import exact

from conftest import make_stream


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
    plan = build_lane_plan(stream((5, 0), (20, 1), (7, 2), (60, 3)))
    assert plan.lane_count == 3
    assert plan.assignment == {"v1": 1, "v2": 2, "v3": 1, "v4": 3}
    assert [plan.lane_class[i].name for i in (1, 2, 3)] == ["A", "B", "E"]


def test_lane_formation_degenerate_streams():
    assert build_lane_plan(stream((50, 0))).lane_count == 1
    plan = build_lane_plan(stream((5, 0), (5, 1), (5, 2)))
    assert plan.lane_count == 1
    assert set(plan.assignment.values()) == {1}


def test_lane_formation_rejects_bad_input():
    with pytest.raises(EmptyStream):
        build_lane_plan([])
    twice = [VehicleRecord(id="v1", speed=5, arrival=0)] * 2
    with pytest.raises(ValueError):
        build_lane_plan(twice)


def test_pair_enumeration_guard():
    plan_and_pairs = lambda vs: enumerate_overtake_pairs(vs, build_lane_plan(vs))

    caught_up = plan_and_pairs(stream((35, 0), (45, 1)))
    assert len(caught_up) == 1
    assert caught_up[0].kinematics().head_start == 1

    assert plan_and_pairs(stream((35, 1), (45, 0))) == []

    same_tick = plan_and_pairs(stream((35, 0), (40, 0)))
    assert len(same_tick) == 1
    assert same_tick[0].kinematics().head_start == 0


def test_pair_enumeration_covers_all_ordered_pairs():
    # v3 is slower than v1 but listed later; the (v3, v1) pair must
    # still be found, and order must follow input positions.
    vehicles = stream((40, 5), (45, 9), (35, 2))
    pairs = enumerate_overtake_pairs(vehicles, build_lane_plan(vehicles))
    labels = [(p.slow.id, p.fast.id) for p in pairs]
    assert labels == [("v1", "v2"), ("v3", "v1"), ("v3", "v2")]


def test_count_transitions_event_mode():
    vehicles = stream((20, 0), (35, 0), (45, 1))  # lane 1: B, lane 2: C x2
    plan = build_lane_plan(vehicles)
    pairs = enumerate_overtake_pairs(vehicles, plan)
    count, events = count_transitions(pairs, plan.lane_count, "event")
    assert count == 1
    event = events[0]
    assert (event.overtaken_id, event.overtaker_id) == ("v2", "v3")
    assert event.from_lane == 2
    assert event.to_lane == 1
    assert event.catch_up_ticks == 4


def test_count_transitions_interior_preference():
    vehicles = stream((5, 0), (35, 0), (45, 1), (60, 0))  # C pair sits in lane 2 of 3
    plan = build_lane_plan(vehicles)
    pairs = enumerate_overtake_pairs(vehicles, plan)
    _, lower = count_transitions(pairs, plan.lane_count, "event", interior="lower")
    _, upper = count_transitions(pairs, plan.lane_count, "event", interior="upper")
    assert lower[0].to_lane == 1
    assert upper[0].to_lane == 3


def test_count_transitions_literal_mode():
    vehicles = stream((20, 0), (35, 0), (45, 1))
    plan = build_lane_plan(vehicles)
    pairs = enumerate_overtake_pairs(vehicles, plan)
    count, events = count_transitions(pairs, plan.lane_count, "literal")
    assert count == 3
    assert events == ()


def test_count_transitions_rejects_non_overtaking_pairs():
    slow, fast, later_slow = stream((35, 0), (45, 1), (35, 2))
    for mode in ("event", "literal"):
        for bad in (OvertakePairing(fast, slow, 1), OvertakePairing(slow, slow, 1),
                    OvertakePairing(later_slow, fast, 1)):
            with pytest.raises(ValueError):
                count_transitions([bad], 2, mode)


def test_count_transitions_empty():
    assert count_transitions([], 4, "event") == (0, ())
    assert count_transitions([], 1, "literal") == (0, ())


def test_count_transitions_unknown_mode():
    with pytest.raises(ValueError):
        count_transitions([], 2, "both")


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
        plan = build_lane_plan(vehicles)
        pairs = brute_pair_count(vehicles)
        if plan.lane_count == 1 and pairs:
            with pytest.raises(PlanHasNoAdjacentLane):
                simulate_part1(vehicles)
            continue
        report = simulate_part1(vehicles)

        classes = {classify_speed(v.speed) for v in vehicles}
        assert report.lane_count == len(classes)

        by_lane: dict[int, set] = {}
        for v in vehicles:
            by_lane.setdefault(plan.assignment[v.id], set()).add(classify_speed(v.speed))
        assert all(len(cs) == 1 for cs in by_lane.values())
        assert len(set(frozenset(cs) for cs in by_lane.values())) == len(by_lane)

        assert report.transition_count == pairs
        assert sum(report.lane_population.values()) == len(vehicles)

        for lane, avg in report.lane_average_speed.items():
            members = [exact(v.speed) for v in vehicles if plan.assignment[v.id] == lane]
            assert avg == float(sum(members) / len(members))


def test_transition_count_is_permutation_invariant():
    rng = random.Random(42)
    for seed in range(25):
        vehicles = make_stream(seed, max_n=40)
        if build_lane_plan(vehicles).lane_count == 1:
            continue
        shuffled = vehicles[:]
        rng.shuffle(shuffled)
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
