"""Population-knowledge-base planner.

Instead of fixed speed-class bands, lanes are grown from the traffic itself
under a lane budget.  Each lane keeps the speeds assigned to it (its buffer)
and their running average.  A vehicle is placed by three rules, first match
wins:

1. exact   - some lane already holds this exact speed: lowest such lane
2. grow    - the budget still allows a new lane: open one for this speed
3. nearest - otherwise, the lane whose average is closest to the speed
             (ties go to the lowest-indexed lane)

Assignment folds over vehicles in arrival order (ties broken by input
position).  The fold runs on integers: every speed is scaled by one common
factor (kinematics.common_scale), each lane keeps a scaled total and a count,
and the nearest rule compares |x - T/n| across lanes by cross-multiplying.
The knowledge base it returns is immutable: kb_assign places one vehicle and
returns a new one, so partial folds can be kept, replayed, or compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domain import SimulationReport, Speed, VehicleRecord
from .errors import EmptyStream, InvalidBudget
from .kinematics import common_scale
from .part1 import _enumerate_pairs, build_lane_plan, count_transitions


@dataclass(frozen=True)
class LaneState:
    """One grown lane: the speeds it holds and their exact average."""

    index: int
    buffer: tuple[int | float, ...]
    average: Fraction

    @property
    def population(self) -> int:
        return len(self.buffer)


@dataclass(frozen=True)
class KnowledgeBase:
    """All lanes grown so far, the budget, and formation bookkeeping.

    formation_cursor is 0 while lanes may still be opened; once the final
    budgeted lane opens it freezes at the number of vehicles assigned up to
    and including that one.
    """

    lanes: tuple[LaneState, ...]
    budget: int
    formation_cursor: int = 0
    assigned: int = 0  # total vehicles folded in so far

    @property
    def lane_count(self) -> int:
        return len(self.lanes)


def kb_new(budget: int) -> KnowledgeBase:
    """Fresh knowledge base; the budget must allow at least one lane."""
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise InvalidBudget(f"lane budget must be a positive integer, got {budget!r}")
    return KnowledgeBase(lanes=(), budget=budget)


class _Fold:
    """The knowledge base while it grows, in integer units of 1/scale km/h.

    Lane j (0-based) holds buffers[j], whose scaled speeds sum to totals[j].
    lane_of_speed names the lane that first took each speed; later vehicles
    of that speed always join it, so it is the lowest lane holding it.
    """

    def __init__(self, kb: KnowledgeBase, scaled: dict[Speed, int], scale: int) -> None:
        self.budget = kb.budget
        self.formation_cursor = kb.formation_cursor
        self.assigned = kb.assigned
        self.scaled = scaled
        self.scale = scale
        self.buffers = [list(lane.buffer) for lane in kb.lanes]
        self.totals = [sum(scaled[s] for s in lane.buffer) for lane in kb.lanes]
        self.lane_of_speed: dict[Speed, int] = {}
        for index, lane in enumerate(kb.lanes):
            for speed in lane.buffer:
                self.lane_of_speed.setdefault(speed, index)

    def place(self, speed: Speed) -> int:
        """Apply the exact, grow and nearest rules; returns the 1-based lane."""
        self.assigned += 1
        x = self.scaled[speed]
        lane = self.lane_of_speed.get(speed)  # 1. exact
        if lane is None:
            lane = len(self.buffers)
            if lane < self.budget:  # 2. grow
                self.buffers.append([])
                self.totals.append(0)
                if lane + 1 == self.budget:
                    self.formation_cursor = self.assigned
            else:  # 3. nearest
                lane = self._nearest(x)
            self.lane_of_speed[speed] = lane
        self.buffers[lane].append(speed)
        self.totals[lane] += x
        return lane + 1

    def _nearest(self, x: int) -> int:
        if not self.buffers:  # cannot happen: budget >= 1 makes rule 2 fire first
            raise RuntimeError("internal inconsistency: no lanes to place a vehicle into")
        # |x - T_j/n_j| < |x - T_b/n_b|  <=>  |x*n_j - T_j| * n_b < |x*n_b - T_b| * n_j;
        # strict, so ties go to the lowest index.
        best, best_gap, best_n = 0, 0, 0
        for lane, (buffer, total) in enumerate(zip(self.buffers, self.totals)):
            n = len(buffer)
            gap = abs(x * n - total)
            if not lane or gap * best_n < best_gap * n:
                best, best_gap, best_n = lane, gap, n
        return best

    def knowledge_base(self) -> KnowledgeBase:
        lanes = tuple(
            LaneState(
                index=index,
                buffer=tuple(buffer),
                average=Fraction(total, len(buffer) * self.scale),
            )
            for index, (buffer, total) in enumerate(zip(self.buffers, self.totals), start=1)
        )
        return KnowledgeBase(
            lanes=lanes,
            budget=self.budget,
            formation_cursor=self.formation_cursor,
            assigned=self.assigned,
        )


def kb_assign(kb: KnowledgeBase, vehicle: VehicleRecord) -> tuple[KnowledgeBase, int]:
    """Place one vehicle; returns the successor knowledge base and the lane index."""
    speeds = [speed for lane in kb.lanes for speed in lane.buffer]
    fold = _Fold(kb, *common_scale([*speeds, vehicle.speed]))
    lane = fold.place(vehicle.speed)
    return fold.knowledge_base(), lane


def budget_from_part1(vehicles: list[VehicleRecord]) -> int:
    """Default budget: the lane count the speed-class planner would use."""
    return build_lane_plan(vehicles).lane_count


def assign_stream(
    vehicles: list[VehicleRecord], budget: int
) -> tuple[KnowledgeBase, dict[str, int]]:
    """Fold the whole stream in arrival order; returns (kb, id -> lane index)."""
    if not vehicles:
        raise EmptyStream("cannot grow a knowledge base from an empty stream")
    fold = _Fold(kb_new(budget), *common_scale(v.speed for v in vehicles))
    assignment: dict[str, int] = {}
    for v in sorted(vehicles, key=lambda v: v.arrival):  # stable: input order on ties
        if v.id in assignment:
            raise ValueError(f"duplicate vehicle id {v.id!r}")
        assignment[v.id] = fold.place(v.speed)
    return fold.knowledge_base(), assignment


def simulate_part2(
    vehicles: list[VehicleRecord],
    budget: int,
    mode: str = "event",
    interior: str = "lower",
) -> SimulationReport:
    """Grow lanes under a budget, then count transitions as the class planner does,
    with "same lane" meaning "same grown lane"."""
    kb, assignment = assign_stream(vehicles, budget)
    pairs = _enumerate_pairs(vehicles, assignment)
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
