"""Reference oracle: the pairwise planners the integer kernels replaced.

This is the earlier implementation, kept verbatim in behaviour: every
ordered vehicle pair is tested, each qualifying pair becomes a frozen
OvertakePairing whose kinematics() feeds the per-pair closed forms, and the
knowledge base is an immutable fold that copies a lane's buffer on every
vehicle.  It is slow (quadratic with large constants).
tests/test_differential.py requires the package to match it exactly, and
tests/test_kinematics.py and acceptance check 3/8 hold its closed forms to a
tick-by-tick walk.  report_to_dict is the spec of laneflow.render_report:
the report as plain data, whose canonical_json the writer must give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Iterable, Mapping

from laneflow.domain import SimulationReport, Speed, TransitionEvent, VehicleRecord
from laneflow.errors import ConfigError, EmptyStream, PlanHasNoAdjacentLane
from laneflow.part1 import build_lane_plan, transition_target

COUNTING_MODES = ("event", "literal")


def exact(value: Speed) -> int | Fraction:
    """Exact rational view of a speed; floats get their decimal reading."""
    if isinstance(value, int):
        return value
    return Fraction(str(value))


# Per-pair closed forms, on the exact speeds (see laneflow.part1 for the
# derivation).  The two agree exactly when the ratio is a positive integer;
# otherwise catch_up_ticks = literal_overtake_count + 1.


@dataclass(frozen=True)
class OvertakePair:
    """A strictly slower leader and a faster follower on one lane."""

    slow_speed: Speed
    fast_speed: Speed
    head_start: int  # ticks the slow vehicle was already on the lane; >= 0

    def __post_init__(self) -> None:
        if not self.slow_speed < self.fast_speed:
            raise ValueError(
                f"overtaking needs a strictly faster follower "
                f"(slow={self.slow_speed}, fast={self.fast_speed})"
            )
        if self.head_start < 0:
            raise ValueError("head start cannot be negative")


def _ratio(pair: OvertakePair) -> tuple[int, int] | Fraction:
    """slow*head/(fast-slow), as (num, den) ints when possible."""
    if isinstance(pair.slow_speed, int) and isinstance(pair.fast_speed, int):
        return pair.slow_speed * pair.head_start, pair.fast_speed - pair.slow_speed
    return (
        exact(pair.slow_speed)
        * pair.head_start
        / (exact(pair.fast_speed) - exact(pair.slow_speed))
    )


def catch_up_ticks(pair: OvertakePair) -> int:
    """First tick (>= 1) at which the follower is level with or past the leader."""
    r = _ratio(pair)
    if isinstance(r, tuple):
        num, den = r
        ticks = -(-num // den)  # ceil for non-negative num, positive den
    else:
        ticks = math.ceil(r)
    return max(1, ticks)


def literal_overtake_count(pair: OvertakePair) -> int:
    """Number of ticks the follower spends at or behind the leader."""
    r = _ratio(pair)
    if isinstance(r, tuple):
        num, den = r
        count = num // den
    else:
        count = math.floor(r)
    return count if count >= 1 else 0


@dataclass(frozen=True)
class OvertakePairing:
    slow: VehicleRecord
    fast: VehicleRecord
    lane: int

    def kinematics(self) -> OvertakePair:
        return OvertakePair(
            slow_speed=self.slow.speed,
            fast_speed=self.fast.speed,
            head_start=self.fast.arrival - self.slow.arrival,
        )


def enumerate_pairs(
    vehicles: list[VehicleRecord], lane_of: Mapping[str, int]
) -> list[OvertakePairing]:
    pairs: list[OvertakePairing] = []
    for slow in vehicles:
        slow_lane = lane_of[slow.id]
        for fast in vehicles:
            if fast is slow:
                continue
            if (
                lane_of[fast.id] == slow_lane
                and slow.speed < fast.speed
                and slow.arrival <= fast.arrival
            ):
                pairs.append(OvertakePairing(slow=slow, fast=fast, lane=slow_lane))
    return pairs


def count_transitions(
    pairings: Iterable[OvertakePairing],
    lane_count: int,
    mode: str = "event",
    interior: str = "lower",
) -> tuple[int, tuple[TransitionEvent, ...]]:
    if mode not in COUNTING_MODES:
        raise ValueError(f"unknown counting mode {mode!r}")
    pairings = list(pairings)
    if pairings and lane_count == 1:
        raise PlanHasNoAdjacentLane(
            "overtaking pairs exist but the plan holds a single lane"
        )
    if mode == "literal":
        total = sum(literal_overtake_count(p.kinematics()) for p in pairings)
        return total, ()
    events = []
    for p in pairings:
        target = transition_target(p.lane, lane_count, interior)
        events.append(
            TransitionEvent(
                overtaker_id=p.fast.id,
                overtaken_id=p.slow.id,
                from_lane=p.lane,
                to_lane=target,
                catch_up_ticks=catch_up_ticks(p.kinematics()),
            )
        )
    return len(events), tuple(events)


def simulate_part1(
    vehicles: list[VehicleRecord], mode: str = "event", interior: str = "lower"
) -> SimulationReport:
    lane_of, lane_count = build_lane_plan(vehicles)
    pairs = enumerate_pairs(vehicles, lane_of)
    count, events = count_transitions(pairs, lane_count, mode, interior)
    lanes: dict[int, list[int | Fraction]] = {lane: [] for lane in range(1, lane_count + 1)}
    for v in vehicles:
        lanes[lane_of[v.id]].append(exact(v.speed))
    # each lane's exact mean, floated as simulate_part2 below floats lane.average
    averages = {lane: float(sum(speeds, Fraction(0)) / len(speeds))
                for lane, speeds in lanes.items() if speeds}
    populations = {lane: len(speeds) for lane, speeds in lanes.items()}
    return SimulationReport(
        algorithm="part1",
        counting_mode=mode,
        lane_count=lane_count,
        transition_count=count,
        events=events,
        lane_average_speed=averages,
        lane_population=populations,
    )


@dataclass(frozen=True)
class LaneState:
    index: int
    buffer: tuple[int | float, ...]
    average: Fraction

    @property
    def population(self) -> int:
        return len(self.buffer)

    def admit(self, speed: int | float) -> "LaneState":
        n = len(self.buffer)
        new_avg = (self.average * n + exact(speed)) / (n + 1)
        return LaneState(index=self.index, buffer=self.buffer + (speed,), average=new_avg)


@dataclass(frozen=True)
class KnowledgeBase:
    lanes: tuple[LaneState, ...]
    budget: int
    formation_cursor: int = 0
    assigned: int = 0

    @property
    def lane_count(self) -> int:
        return len(self.lanes)


def kb_new(budget: int) -> KnowledgeBase:
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ConfigError("budget must be an integer of at least 1")
    return KnowledgeBase(lanes=(), budget=budget)


def kb_assign(kb: KnowledgeBase, vehicle: VehicleRecord) -> tuple[KnowledgeBase, int]:
    speed = vehicle.speed
    assigned = kb.assigned + 1

    for lane in kb.lanes:
        if speed in lane.buffer:
            lanes = tuple(
                lane.admit(speed) if ln.index == lane.index else ln for ln in kb.lanes
            )
            return replace(kb, lanes=lanes, assigned=assigned), lane.index

    if kb.lane_count < kb.budget:
        new_lane = LaneState(index=kb.lane_count + 1, buffer=(speed,), average=Fraction(exact(speed)))
        cursor = assigned if kb.lane_count + 1 == kb.budget else kb.formation_cursor
        return (
            replace(kb, lanes=kb.lanes + (new_lane,), formation_cursor=cursor, assigned=assigned),
            new_lane.index,
        )

    if not kb.lanes:
        raise RuntimeError("internal inconsistency: no lanes to place a vehicle into")
    exact_speed = exact(speed)
    best = kb.lanes[0]
    best_gap = abs(exact_speed - best.average)
    for lane in kb.lanes[1:]:
        gap = abs(exact_speed - lane.average)
        if gap < best_gap:
            best, best_gap = lane, gap
    lanes = tuple(lane.admit(speed) if lane.index == best.index else lane for lane in kb.lanes)
    return replace(kb, lanes=lanes, assigned=assigned), best.index


def assign_stream(
    vehicles: list[VehicleRecord], budget: int
) -> tuple[KnowledgeBase, dict[str, int]]:
    if not vehicles:
        raise EmptyStream("cannot grow a knowledge base from an empty stream")
    kb = kb_new(budget)
    assignment: dict[str, int] = {}
    for v in sorted(vehicles, key=lambda v: v.arrival):
        if v.id in assignment:
            raise ValueError(f"duplicate vehicle id {v.id!r}")
        kb, lane = kb_assign(kb, v)
        assignment[v.id] = lane
    return kb, assignment


def simulate_part2(
    vehicles: list[VehicleRecord],
    budget: int,
    mode: str = "event",
    interior: str = "lower",
) -> SimulationReport:
    kb, assignment = assign_stream(vehicles, budget)
    pairs = enumerate_pairs(vehicles, assignment)
    count, events = count_transitions(pairs, kb.lane_count, mode, interior)
    return SimulationReport(
        algorithm="part2",
        counting_mode=mode,
        lane_count=kb.lane_count,
        transition_count=count,
        events=events,
        lane_average_speed={lane.index: float(lane.average) for lane in kb.lanes},
        lane_population={lane.index: lane.population for lane in kb.lanes},
    )


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    """The report as plain data; render_report must give canonical_json of it."""
    events = [
        {
            "overtakerId": e.overtaker_id,
            "overtakenId": e.overtaken_id,
            "fromLane": e.from_lane,
            "toLane": e.to_lane,
            "catchUpTicks": e.catch_up_ticks,
        }
        for e in report.events
    ]
    return {
        "algorithm": report.algorithm,
        "countingMode": report.counting_mode,
        "laneCount": report.lane_count,
        "transitionCount": report.transition_count,
        "events": events,
        "laneAverageSpeed": {str(lane): float(avg) for lane, avg in report.lane_average_speed.items()},
        "lanePopulation": {str(lane): pop for lane, pop in report.lane_population.items()},
    }
