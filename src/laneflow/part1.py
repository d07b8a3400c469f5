"""Speed-class lane planner: one lane per distinct class, then a count of
predicted overtaking transitions.

A transition is predicted for every ordered pair of vehicles that share a
lane where the follower is strictly faster and did not arrive earlier than
the leader.  Two counting modes exist because "number of overtakes" can be
read two ways:

* event   - one transition per pair, stamped with its catch-up tick
* literal - per pair, every tick the follower is still at or behind the
            leader is counted (see kinematics)
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, NoReturn

from .domain import COUNTING_MODES, SimulationReport, Speed, TransitionEvent, VehicleRecord
from .errors import EmptyStream, PlanHasNoAdjacentLane
from .kinematics import common_scale, transition_target

_PAIR_SPEEDS = attrgetter("slow.speed", "fast.speed")


class OvertakePairing(NamedTuple):
    """A qualifying (leader, follower) pair and the lane they share."""

    slow: VehicleRecord
    fast: VehicleRecord
    lane: int


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
) -> list[OvertakePairing]:
    """Every ordered same-lane pair with a strictly faster, no-earlier follower.

    lane_of maps each vehicle id to its lane.  Pairs come back
    lexicographically by (leader position, follower position) in the input
    stream, which keeps downstream event lists deterministic.
    """
    # Only same-lane followers qualify, so each leader scans its own lane's
    # members, kept in input order so pairs come out in the pairwise order.
    members: dict[int, list[tuple[Speed, int, VehicleRecord]]] = {}
    for v in vehicles:
        members.setdefault(lane_of[v.id], []).append((v.speed, v.arrival, v))
    pairs: list[OvertakePairing] = []
    for slow in vehicles:
        lane = lane_of[slow.id]
        speed, arrival = slow.speed, slow.arrival
        for fast_speed, fast_arrival, fast in members[lane]:
            if speed < fast_speed and arrival <= fast_arrival:
                pairs.append(OvertakePairing(slow, fast, lane))
    return pairs


def _not_an_overtake(slow: VehicleRecord, fast: VehicleRecord) -> NoReturn:
    raise ValueError(
        f"{slow.id!r} -> {fast.id!r} is not an overtaking pair: the follower must be "
        f"strictly faster (slow={slow.speed}, fast={fast.speed}) and arrive no earlier"
    )


def count_transitions(
    pairings: Iterable[OvertakePairing],
    lane_count: int,
    mode: str = "event",
    interior: str = "lower",
) -> tuple[int, tuple[TransitionEvent, ...]]:
    """Turn qualifying pairs into a transition count (and events, in event mode).

    A plan with a single lane cannot host any transition: if pairs exist the
    situation is contradictory and PlanHasNoAdjacentLane is raised.
    """
    if mode not in COUNTING_MODES:
        raise ValueError(f"unknown counting mode {mode!r}")
    pairings = list(pairings)
    if pairings and lane_count == 1:
        raise PlanHasNoAdjacentLane(
            "overtaking pairs exist but the plan holds a single lane"
        )
    # Exact ratios slow*head/(fast-slow) on integer speeds (see kinematics).
    scaled, _ = common_scale(chain.from_iterable(map(_PAIR_SPEEDS, pairings)))
    if mode == "literal":
        total = 0
        for slow, fast, _ in pairings:
            s = scaled[slow.speed]
            head, gain = fast.arrival - slow.arrival, scaled[fast.speed] - s
            if head < 0 or gain <= 0:
                _not_an_overtake(slow, fast)
            total += s * head // gain
        return total, ()
    targets: dict[int, int] = {}
    events = []
    for slow, fast, lane in pairings:
        target = targets.get(lane)
        if target is None:
            target = targets[lane] = transition_target(lane, lane_count, interior)
        s = scaled[slow.speed]
        head, gain = fast.arrival - slow.arrival, scaled[fast.speed] - s
        if head < 0 or gain <= 0:
            _not_an_overtake(slow, fast)
        ticks = -(-s * head // gain)
        events.append(TransitionEvent(fast.id, slow.id, lane, target, ticks if ticks > 1 else 1))
    return len(events), tuple(events)


def lane_statistics(
    vehicles: list[VehicleRecord], lane_of: Mapping[str, int], lane_count: int
) -> tuple[dict[int, float], dict[int, int]]:
    """Per-lane mean speed and population, averaged exactly then floated.

    Speeds are summed on the common integer scale L, so a lane's mean is the
    rational total / (population * L); Python's int / int rounds that ratio
    correctly, so the float is the exact mean's nearest float.
    """
    scaled, scale = common_scale(v.speed for v in vehicles)
    totals = dict.fromkeys(range(1, lane_count + 1), 0)
    members = dict.fromkeys(range(1, lane_count + 1), 0)
    for v in vehicles:
        lane = lane_of[v.id]
        totals[lane] += scaled[v.speed]
        members[lane] += 1
    averages = {
        lane: totals[lane] / (members[lane] * scale)
        for lane in totals
        if members[lane]
    }
    return averages, members


def simulate_part1(
    vehicles: list[VehicleRecord], mode: str = "event", interior: str = "lower"
) -> SimulationReport:
    """Plan lanes by speed class and count overtaking transitions."""
    lane_of, lane_count = build_lane_plan(vehicles)
    pairs = enumerate_overtake_pairs(vehicles, lane_of)
    count, events = count_transitions(pairs, lane_count, mode, interior)
    averages, populations = lane_statistics(vehicles, lane_of, lane_count)
    return SimulationReport(
        algorithm="part1",
        counting_mode=mode,
        lane_count=lane_count,
        transition_count=count,
        events=events,
        lane_average_speed=averages,
        lane_population=populations,
    )
