"""Speed-class lane planner: one lane per distinct class, then a count of
predicted overtaking transitions.

A transition is predicted for every ordered pair of vehicles that share a
lane where the follower is strictly faster and did not arrive earlier than
the leader.  Two counting modes exist because "number of overtakes" can be
read two ways:

* event   - one transition per pair, stamped with its catch-up tick
            (enumerate_overtake_pairs returns a list of plain
            (slow, fast, lane) tuples, then count_transitions)
* literal - per pair, every tick the follower is still at or behind the
            leader is counted; literal_count sums these straight from each
            lane's members and builds no pairs

The slow leader enters a lane first and the fast follower ``head`` ticks
later.  Measuring tick t = 1, 2, ... from the follower's entry, the leader
has covered slow * (head + t) and the follower fast * t.  With
gain = fast - slow > 0, the follower first draws level with or passes the
leader at

    catch-up tick = max(1, ceil(slow * head / gain))

and spends floor(slow * head / gain) ticks at or behind it.
count_transitions stamps each event with the first, -(-slow * head // gain)
raised to at least 1; literal_count sums the second, slow * head // gain.

All arithmetic is exact: a speed is read as the decimal it was written as,
so a parsed "35.3" is 353/10, never its binary float.  common_scale maps
every distinct speed of a stream to that rational times L, where L is the
least common multiple of the denominators (L = 1 for an integer stream).
Multiplying slow and fast by the same positive L leaves slow * head / gain
unchanged, so its floor and ceiling are the same on the scaled integers as
on the exact speeds; a running lane average is likewise the scaled total
divided by the population and by L.  Scaling also keeps the order of
speeds, so speed comparisons on the scaled integers agree with comparisons
on the speeds.

The two planners differ only in how they assign lanes: each hands its lane
map (and in event mode its own count_transitions result) to planner_report,
whose one lane_members pass feeds literal_count, lane_statistics and the report.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Iterable, Mapping

from .config import check_counting_mode, check_interior, check_setting
from .domain import SimulationReport, Speed, TransitionEvent, VehicleRecord
from .errors import EmptyStream, PlanHasNoAdjacentLane


def _ratio(value: Speed) -> tuple[int, int]:
    """The speed's decimal as (numerator, denominator) in lowest terms.

    A float is read as the decimal of its shortest repr, so 35.3 gives
    353 / 10 and 5e-05 gives 1 / 20000.
    """
    return Decimal(repr(value) if type(value) is float else value).as_integer_ratio()


def common_scale(speeds: Iterable[Speed]) -> tuple[dict[Speed, int], int]:
    """Map each distinct speed to an integer, the speed times L, and return L.

    A speed is read as the decimal it was written as, so 35.3 is 353/10.  L
    is the least common multiple of those denominators, so it is 1 when
    every speed is an integer, and then each speed maps to itself.  Equal
    speeds such as 35 and 35.0 share one entry.
    """
    distinct = set(speeds)
    if all(type(speed) is int for speed in distinct):  # a bool goes through _ratio
        return {speed: speed for speed in distinct}, 1
    ratios = {speed: _ratio(speed) for speed in distinct}
    scale = math.lcm(1, *(denominator for _, denominator in ratios.values()))
    return {speed: n * (scale // d) for speed, (n, d) in ratios.items()}, scale


def transition_target(from_lane: int, lane_count: int, interior: str = "lower") -> int:
    """Adjacent lane an overtaken vehicle moves to.

    Edge lanes have one neighbour, so lane 1 moves to 2 and the top lane
    moves down one.  Interior lanes prefer the lower-indexed neighbour by
    default; pass interior="upper" to prefer the higher one.  A single lane
    has no neighbour: PlanHasNoAdjacentLane.
    """
    check_setting("interior", check_interior, interior)
    if not 1 <= from_lane <= lane_count:
        raise ValueError(f"lane {from_lane} outside 1..{lane_count}")
    if lane_count == 1:
        raise PlanHasNoAdjacentLane("a single-lane layout has no adjacent lane")
    if from_lane == 1:
        return 2
    if from_lane == lane_count:
        return lane_count - 1
    return from_lane - 1 if interior == "lower" else from_lane + 1


def build_lane_plan(vehicles: list[VehicleRecord]) -> tuple[dict[str, int], int]:
    """One lane per distinct speed class, numbered 1.. in first-appearance
    order; returns (vehicle id -> lane, lane count)."""
    if not vehicles:
        raise EmptyStream("cannot plan lanes for an empty stream")
    lane_of_class: dict[int, int] = {}
    lane_of: dict[str, int] = {}
    for v in vehicles:
        if v.id in lane_of:
            raise ValueError(f"duplicate vehicle id {v.id!r}")
        lane_of[v.id] = lane_of_class.setdefault(v.speed_class, len(lane_of_class) + 1)
    return lane_of, len(lane_of_class)


def enumerate_overtake_pairs(
    vehicles: list[VehicleRecord], lane_of: Mapping[str, int]
) -> list[tuple[VehicleRecord, VehicleRecord, int]]:
    """Every ordered same-lane pair with a strictly faster, no-earlier follower,
    as a plain (slow, fast, lane) tuple.

    lane_of maps each vehicle id to its lane.  Pairs come back
    lexicographically by (leader position, follower position) in the input
    stream, which keeps downstream event lists deterministic.
    """
    # Only same-lane followers qualify, so each leader scans its own lane's
    # members, kept in input order so pairs come out in the pairwise order.
    members: dict[int, list[tuple[Speed, int, VehicleRecord]]] = {}
    for v in vehicles:
        members.setdefault(lane_of[v.id], []).append((v.speed, v.arrival, v))
    pairs: list[tuple[VehicleRecord, VehicleRecord, int]] = []
    for slow in vehicles:
        lane = lane_of[slow.id]
        speed, arrival = slow.speed, slow.arrival
        pairs += [
            (slow, fast, lane)
            for fast_speed, fast_arrival, fast in members[lane]
            if speed < fast_speed and arrival <= fast_arrival
        ]
    return pairs


def count_transitions(
    pairings: list[tuple[VehicleRecord, VehicleRecord, int]],
    lane_count: int,
    interior: str = "lower",
) -> tuple[int, tuple[TransitionEvent, ...]]:
    """One transition event per qualifying (slow, fast, lane) pair, stamped
    with its catch-up tick; returns (event count, events).

    A plan with a single lane cannot host any transition: if pairs exist the
    situation is contradictory and PlanHasNoAdjacentLane is raised.  A pair
    whose lane lies outside 1..lane_count raises ValueError.
    """
    if pairings and lane_count == 1:
        raise PlanHasNoAdjacentLane("overtaking pairs exist but the plan holds a single lane")
    # Exact ratios slow*head/(fast-slow) on integer speeds (see the module
    # docstring), on one scale taken from the pairs' distinct speeds.
    speeds = {slow.speed for slow, _, _ in pairings} | {fast.speed for _, fast, _ in pairings}
    scaled, _ = common_scale(speeds)
    targets = {lane: transition_target(lane, lane_count, interior)
               for lane in range(1, lane_count + 1)} if pairings else {}
    events = []
    new = tuple.__new__  # a TransitionEvent without NamedTuple's Python-level __new__
    try:
        for slow, fast, lane in pairings:
            s = scaled[slow.speed]
            head, gain = fast.arrival - slow.arrival, scaled[fast.speed] - s
            if head < 0 or gain <= 0:
                raise ValueError(
                    f"{slow.id!r} -> {fast.id!r} is not an overtaking pair: the follower must be "
                    f"strictly faster (slow={slow.speed}, fast={fast.speed}) and arrive no earlier"
                )
            ticks = -(-s * head // gain) or 1  # 0 only when head is 0; raised to tick 1
            events.append(new(TransitionEvent, (fast.id, slow.id, lane, targets[lane], ticks)))
    except KeyError as err:  # scaled holds every pair's speeds, so only targets misses
        raise ValueError(f"lane {err.args[0]} outside 1..{lane_count}") from None
    return len(events), tuple(events)


Lanes = dict[int, list[tuple[int, int]]]  # lane -> its members' (arrival, scaled speed)


def lane_members(
    vehicles: list[VehicleRecord], lane_of: Mapping[str, int], lane_count: int
) -> tuple[Lanes, int]:
    """Each lane's members as (arrival, scaled speed), in input order, for
    lanes 1..lane_count (an empty lane holds []), and the scale L: the one
    common_scale pass that literal_count and lane_statistics read."""
    scaled, scale = common_scale(v.speed for v in vehicles)
    lanes: Lanes = {lane: [] for lane in range(1, lane_count + 1)}
    for v in vehicles:
        lanes[lane_of[v.id]].append((v.arrival, scaled[v.speed]))
    return lanes, scale


def literal_count(lanes: Lanes) -> int:
    """The literal-mode transition count of lane_members' lanes: floor(slow *
    head / gain) summed over every qualifying pair, with no pair built.

    Sorting each lane in place by (arrival, scaled speed) leaves a member's
    qualifying followers exactly the strictly faster members after it: one
    before it arrived earlier, or at the same tick and no faster.  So a lane
    holds a qualifying pair exactly when its sorted speeds rise somewhere,
    which is how a single-lane plan with pairs is caught (PlanHasNoAdjacentLane,
    as in event mode), also when every such pair counts 0.
    """
    total = 0
    for members in lanes.values():
        members.sort()
        if len(lanes) == 1 and any(x[1] < y[1] for x, y in zip(members, members[1:])):
            raise PlanHasNoAdjacentLane("overtaking pairs exist but the plan holds a single lane")
        for i, (a, s) in enumerate(members, 1):
            for b, f in members[i:]:
                if f > s:
                    total += s * (b - a) // (f - s)
    return total


def lane_statistics(lanes: Lanes, scale: int) -> tuple[dict[int, float], dict[int, int]]:
    """Per-lane mean speed and population of lane_members' lanes.

    A lane's scaled speeds sum to an integer total, so its mean is the
    rational total / (population * L); Python's int / int rounds that ratio
    correctly, so the float is the exact mean's nearest float.
    """
    averages = {lane: sum(s for _, s in members) / (len(members) * scale)
                for lane, members in lanes.items() if members}
    return averages, {lane: len(members) for lane, members in lanes.items()}


def planner_report(
    algorithm: str, vehicles: list[VehicleRecord], lane_of: Mapping[str, int], lane_count: int,
    mode: str, counted: tuple[int, tuple[TransitionEvent, ...]] | None,
) -> SimulationReport:
    """Either planner's report from its lane map and one lane_members pass: in
    literal mode literal_count counts those lanes, in event mode counted is the
    planner's own count_transitions result; both read lane_statistics."""
    lanes, scale = lane_members(vehicles, lane_of, lane_count)
    count, events = (literal_count(lanes), ()) if mode == "literal" else counted
    averages, populations = lane_statistics(lanes, scale)
    return SimulationReport(algorithm, mode, lane_count, count, events, averages, populations)


def simulate_part1(
    vehicles: list[VehicleRecord], mode: str = "event", interior: str = "lower"
) -> SimulationReport:
    """Plan lanes by speed class and count overtaking transitions."""
    check_setting("mode", check_counting_mode, mode)
    check_setting("interior", check_interior, interior)
    lane_of, lane_count = build_lane_plan(vehicles)
    counted = None if mode == "literal" else count_transitions(
        enumerate_overtake_pairs(vehicles, lane_of), lane_count, interior)
    return planner_report("part1", vehicles, lane_of, lane_count, mode, counted)
