"""Knowledge-base lane growth, assignment rules, and transition counting.

assign_stream returns only the lane map and the lane count; each lane's
speeds, in the order the fold took them, are derived from the map
(conftest.lane_speeds).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from laneflow import (
    ConfigError,
    EmptyStream,
    PlanHasNoAdjacentLane,
    VehicleRecord,
    assign_stream,
    budget_from_part1,
    render_report,
    simulate_part2,
)

from conftest import lane_speeds, make_stream
from reference_planners import exact


def stream(*speed_arrivals):
    return [
        VehicleRecord(id=f"v{i + 1}", speed=speed, arrival=arrival)
        for i, (speed, arrival) in enumerate(speed_arrivals)
    ]


def fold(budget, speeds):
    """(each lane's speeds, each vehicle's lane) for speeds arriving one a tick."""
    vehicles = stream(*((speed, i) for i, speed in enumerate(speeds)))
    assignment, lane_count = assign_stream(vehicles, budget)
    return lane_speeds(vehicles, assignment, lane_count), [assignment[v.id] for v in vehicles]


def test_budget_must_be_positive_integer():
    for bad in (0, -1, 2.0, True):
        with pytest.raises(ConfigError, match="^budget must be an integer of at least 1$"):
            assign_stream(stream((10, 0)), bad)


def test_assignment_walkthrough():
    held, lanes = fold(2, [10, 10, 50, 28])
    assert lanes == [1, 1, 2, 1]
    assert held[1] == (10, 10, 28)
    assert held[2] == (50,)
    report = simulate_part2(stream((10, 0), (10, 1), (50, 2), (28, 3)), budget=2)
    assert report.lane_average_speed == {1: 16.0, 2: 50.0}


def test_formation_only():
    held, lanes = fold(3, [10, 50])
    assert lanes == [1, 2]
    assert len(held) == 2


def test_single_lane_takes_everything():
    held, lanes = fold(1, [10, 90])
    assert lanes == [1, 1]
    assert held[1] == (10, 90)
    # the 90 leaves first, so the lone lane holds no overtaking pair
    report = simulate_part2(stream((90, 0), (10, 1)), budget=1)
    assert report.lane_average_speed == {1: 50.0}


def test_nearest_average_ties_go_low():
    # lanes average 10 and 30; a 20 is equally near both
    _, lanes = fold(2, [10, 30, 20])
    assert lanes == [1, 2, 1]


def test_exact_match_beats_formation_and_distance():
    # 90 is far from lane 1's average but already present in its buffer
    held, lanes = fold(3, [90, 10, 90])
    assert lanes == [1, 2, 1]
    assert len(held) == 2


def test_assignment_follows_arrival_order_with_stable_ties():
    vehicles = [
        VehicleRecord(id="late", speed=20, arrival=5),
        VehicleRecord(id="first", speed=10, arrival=0),
        VehicleRecord(id="tied", speed=30, arrival=5),
    ]
    assignment, lane_count = assign_stream(vehicles, budget=2)
    assert assignment == {"first": 1, "late": 2, "tied": 2}
    held = lane_speeds(vehicles, assignment, lane_count)
    assert held[1] == (10,)
    assert held[2] == (20, 30)
    assert simulate_part2(vehicles, budget=2).lane_average_speed == {1: 10.0, 2: 25.0}


def test_assign_stream_rejects_bad_input():
    with pytest.raises(EmptyStream):
        assign_stream([], 2)
    twice = [VehicleRecord(id="x", speed=10, arrival=0)] * 2
    with pytest.raises(ValueError):
        assign_stream(twice, 2)


def test_budget_from_part1_matches_class_count():
    assert budget_from_part1(stream((5, 0), (20, 1), (7, 2), (60, 3))) == 3
    assert budget_from_part1(stream((50, 0))) == 1
    everything = stream(*((v, 0) for v in range(1, 101)))
    assert budget_from_part1(everything) == 5


def test_simulate_walkthrough():
    report = simulate_part2(stream((10, 0), (10, 3), (50, 1), (28, 2)), budget=2)
    assert report.algorithm == "part2"
    assert report.lane_count == 2
    assert report.transition_count == 1
    event = report.events[0]
    assert (event.overtaken_id, event.overtaker_id) == ("v1", "v4")
    assert event.from_lane == 1
    assert event.to_lane == 2
    assert event.catch_up_ticks == 2
    assert report.lane_average_speed == {1: 16.0, 2: 50.0}
    assert report.lane_population == {1: 3, 2: 1}


def test_simulate_single_vehicle():
    report = simulate_part2(stream((50, 0)), budget=3)
    assert report.lane_count == 1
    assert report.transition_count == 0


def test_single_lane_with_pairs_is_contradictory():
    for mode in ("event", "literal"):
        with pytest.raises(PlanHasNoAdjacentLane):
            simulate_part2(stream((10, 0), (20, 1)), budget=1, mode=mode)


def test_generous_budget_never_transitions_exhaustively():
    # every stream of up to four vehicles over a tiny grid
    speeds = (5, 10, 20)
    arrivals = (0, 1)
    options = list(itertools.product(speeds, arrivals))
    for n in range(1, 5):
        for combo in itertools.product(options, repeat=n):
            vehicles = stream(*combo)
            budget = len({v.speed for v in vehicles})
            for mode in ("event", "literal"):
                report = simulate_part2(vehicles, budget, mode)
                assert report.transition_count == 0, combo


def test_random_streams_satisfy_invariants():
    rng = random.Random(99)
    for seed in range(120):
        vehicles = make_stream(seed, max_n=60, float_share=0.15 if seed % 4 == 0 else 0.0)
        distinct = len({v.speed for v in vehicles})
        budget = distinct if seed % 5 == 0 else rng.randint(1, 6)

        assignment, lane_count = assign_stream(vehicles, budget)
        held = lane_speeds(vehicles, assignment, lane_count)
        assert sum(len(speeds) for speeds in held.values()) == len(vehicles)
        assert lane_count <= budget
        assert lane_count == min(budget, distinct)
        assert sorted(set(assignment.values())) == list(range(1, lane_count + 1))

        try:
            report = simulate_part2(vehicles, budget)
        except PlanHasNoAdjacentLane:
            assert lane_count == 1
        else:
            for lane, speeds in held.items():
                recomputed = Fraction(sum(exact(s) for s in speeds)) / len(speeds)
                assert report.lane_average_speed[lane] == float(recomputed)
                assert report.lane_population[lane] == len(speeds)

        if budget >= distinct:
            # each lane holds exactly one distinct speed, so no lane can
            # contain a strictly faster follower
            for mode in ("event", "literal"):
                assert simulate_part2(vehicles, budget, mode).transition_count == 0


def test_exact_match_repeats_go_to_the_same_lane():
    rng = random.Random(5)
    for _ in range(50):
        speeds = [rng.randint(1, 100) for _ in range(rng.randint(1, 12))]
        twice = rng.choice(speeds)
        _, lanes = fold(rng.randint(1, 4), speeds + [twice, twice])
        assert lanes[-1] == lanes[-2]


def test_simulation_is_reproducible():
    vehicles = make_stream(77, max_n=80)
    first = render_report(simulate_part2(vehicles, budget=3))
    second = render_report(simulate_part2(vehicles, budget=3))
    assert first == second


def test_event_count_matches_same_lane_pair_recount():
    for seed in range(40):
        vehicles = make_stream(seed + 1000, max_n=50)
        budget = (seed % 4) + 2
        assignment, lane_count = assign_stream(vehicles, budget)
        if lane_count == 1:
            continue
        report = simulate_part2(vehicles, budget)
        brute = 0
        for slow in vehicles:
            for fast in vehicles:
                if slow is fast:
                    continue
                if (
                    assignment[slow.id] == assignment[fast.id]
                    and slow.speed < fast.speed
                    and slow.arrival <= fast.arrival
                ):
                    brute += 1
        assert report.transition_count == brute