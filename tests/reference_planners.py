"""Reference oracle: the pairwise planners the integer kernels replaced.

This is the earlier implementation, kept verbatim in behaviour: every
ordered vehicle pair is tested, each qualifying pair becomes a frozen
OvertakePairing whose kinematics() feeds the per-pair closed forms, and the
knowledge base is an immutable fold that copies a lane's buffer on every
vehicle.  It is slow (quadratic with large constants) and is used only by
tests/test_differential.py, which requires the package to match it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from laneflow.domain import SimulationReport, TransitionEvent, VehicleRecord
from laneflow.errors import EmptyStream, InvalidBudget, NoAdjacentLane, PlanHasNoAdjacentLane
from laneflow.kinematics import (
    OvertakePair,
    catch_up_ticks,
    exact,
    literal_overtake_count,
    transition_target,
)
from laneflow.part1 import build_lane_plan, lane_statistics

COUNTING_MODES = ("event", "literal")


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
        try:
            target = transition_target(p.lane, lane_count, interior)
        except NoAdjacentLane as err:
            raise PlanHasNoAdjacentLane(str(err)) from err
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
    plan = build_lane_plan(vehicles)
    pairs = enumerate_pairs(vehicles, plan.assignment)
    count, events = count_transitions(pairs, plan.lane_count, mode, interior)
    averages, populations = lane_statistics(vehicles, plan.assignment, plan.lane_count)
    return SimulationReport(
        algorithm="part1",
        counting_mode=mode,
        lane_count=plan.lane_count,
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
        raise InvalidBudget(f"lane budget must be a positive integer, got {budget!r}")
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
