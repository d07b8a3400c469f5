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
Only the assignment is part2's own: pairs, counts and lane statistics come
from the same part1 functions the class planner uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import SimulationReport, Speed, VehicleRecord
from .errors import EmptyStream, InvalidBudget
from .kinematics import common_scale
from .part1 import build_lane_plan, count_transitions, enumerate_overtake_pairs, lane_statistics


@dataclass(frozen=True)
class LaneState:
    """One grown lane: its 1-based index and the speeds it holds, in order."""

    index: int
    buffer: tuple[Speed, ...]


@dataclass(frozen=True)
class KnowledgeBase:
    """All lanes grown by one fold of a stream."""

    lanes: tuple[LaneState, ...]

    @property
    def lane_count(self) -> int:
        return len(self.lanes)


class _Fold:
    """The knowledge base while it grows, in integer units of 1/scale km/h.

    Lane j (0-based) holds buffers[j], whose scaled speeds sum to totals[j].
    lane_of_speed names the lane that first took each speed; later vehicles
    of that speed always join it, so it is the lowest lane holding it.
    """

    def __init__(self, budget: int, scaled: dict[Speed, int]) -> None:
        self.budget = budget
        self.scaled = scaled
        self.buffers: list[list[Speed]] = []
        self.totals: list[int] = []
        self.lane_of_speed: dict[Speed, int] = {}

    def place(self, speed: Speed) -> int:
        """Apply the exact, grow and nearest rules; returns the 1-based lane."""
        x = self.scaled[speed]
        lane = self.lane_of_speed.get(speed)  # 1. exact
        if lane is None:
            lane = len(self.buffers)
            if lane < self.budget:  # 2. grow
                self.buffers.append([])
                self.totals.append(0)
            else:  # 3. nearest
                lane = self._nearest(x)
            self.lane_of_speed[speed] = lane
        self.buffers[lane].append(speed)
        self.totals[lane] += x
        return lane + 1

    def _nearest(self, x: int) -> int:
        # |x - T_j/n_j| < |x - T_b/n_b|  <=>  |x*n_j - T_j| * n_b < |x*n_b - T_b| * n_j;
        # strict, so ties go to the lowest index.
        best, best_gap, best_n = 0, 0, 0
        for lane, (buffer, total) in enumerate(zip(self.buffers, self.totals)):
            n = len(buffer)
            gap = abs(x * n - total)
            if not lane or gap * best_n < best_gap * n:
                best, best_gap, best_n = lane, gap, n
        return best


def budget_from_part1(vehicles: list[VehicleRecord]) -> int:
    """Default budget: the lane count the speed-class planner would use."""
    return build_lane_plan(vehicles).lane_count


def assign_stream(
    vehicles: list[VehicleRecord], budget: int
) -> tuple[KnowledgeBase, dict[str, int]]:
    """Fold the whole stream in arrival order; returns (kb, id -> lane index)."""
    if not vehicles:
        raise EmptyStream("cannot grow a knowledge base from an empty stream")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise InvalidBudget(f"lane budget must be a positive integer, got {budget!r}")
    scaled, _ = common_scale(v.speed for v in vehicles)
    fold = _Fold(budget, scaled)
    assignment: dict[str, int] = {}
    for v in sorted(vehicles, key=lambda v: v.arrival):  # stable: input order on ties
        if v.id in assignment:
            raise ValueError(f"duplicate vehicle id {v.id!r}")
        assignment[v.id] = fold.place(v.speed)
    lanes = tuple(LaneState(index, tuple(buffer)) for index, buffer in enumerate(fold.buffers, 1))
    return KnowledgeBase(lanes), assignment


def simulate_part2(
    vehicles: list[VehicleRecord],
    budget: int,
    mode: str = "event",
    interior: str = "lower",
) -> SimulationReport:
    """Grow lanes under a budget, then count transitions as the class planner does,
    with "same lane" meaning "same grown lane"."""
    kb, assignment = assign_stream(vehicles, budget)
    pairs = enumerate_overtake_pairs(vehicles, assignment)
    count, events = count_transitions(pairs, kb.lane_count, mode, interior)
    averages, populations = lane_statistics(vehicles, assignment, kb.lane_count)
    return SimulationReport(
        algorithm="part2",
        counting_mode=mode,
        lane_count=kb.lane_count,
        transition_count=count,
        events=events,
        lane_average_speed=averages,
        lane_population=populations,
    )
