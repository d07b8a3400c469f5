"""Population-knowledge-base planner.

Instead of fixed speed-class bands, lanes are grown from the traffic itself
under a lane budget.  Each lane keeps a running total and population of the
speeds assigned to it, so its average speed.  A vehicle is placed by three
rules, first match wins:

1. exact   - some lane already holds this exact speed: lowest such lane
2. grow    - the budget still allows a new lane: open one for this speed
3. nearest - otherwise, the lane whose average is closest to the speed
             (ties go to the lowest-indexed lane)

Assignment folds over vehicles in arrival order (ties broken by input
position).  The fold runs on integers: every speed is scaled by one common
factor (part1.common_scale), each lane keeps a scaled total and a count,
and the nearest rule compares |x - T/n| across lanes by cross-multiplying.
Only the assignment is part2's own: it returns the same (id -> lane, lane
count) shape as part1.build_lane_plan, pairs and event counts come from the
same part1 functions the class planner uses, and part1.planner_report builds
the report of both planners.
"""

from __future__ import annotations

from .config import check_at_least_one, check_counting_mode, check_interior, check_setting
from .domain import SimulationReport, Speed, VehicleRecord, classify_speed
from .errors import EmptyStream
from .part1 import common_scale, count_transitions, enumerate_overtake_pairs, planner_report


def _nearest(x: int, populations: list[int], totals: list[int]) -> int:
    """The 0-based lane whose average totals[j] / populations[j] is nearest x."""
    # |x - T_j/n_j| < |x - T_b/n_b|  <=>  |x*n_j - T_j| * n_b < |x*n_b - T_b| * n_j;
    # strict, so ties go to the lowest index.
    best, best_gap, best_n = 0, 0, 0
    for lane, (n, total) in enumerate(zip(populations, totals)):
        gap = abs(x * n - total)
        if not lane or gap * best_n < best_gap * n:
            best, best_gap, best_n = lane, gap, n
    return best


def budget_from_part1(vehicles: list[VehicleRecord]) -> int:
    """Default budget: the lane count the speed-class planner would use, one
    lane per distinct speed class; each distinct speed is classified once."""
    if not vehicles:
        raise EmptyStream("cannot plan lanes for an empty stream")
    return len({classify_speed(speed) for speed in {v.speed for v in vehicles}})


def assign_stream(vehicles: list[VehicleRecord], budget: int) -> tuple[dict[str, int], int]:
    """Fold the whole stream in arrival order; returns (vehicle id -> lane,
    lane count), lanes numbered 1.. in the order they were grown."""
    if not vehicles:
        raise EmptyStream("cannot grow a knowledge base from an empty stream")
    check_setting("budget", check_at_least_one, budget)
    scaled, _ = common_scale(v.speed for v in vehicles)
    # Lane j (0-based) holds populations[j] vehicles whose scaled speeds sum
    # to totals[j].  lane_of_speed names the lane that first took each speed;
    # later vehicles of that speed always join it, so it is the lowest lane
    # holding it.
    populations: list[int] = []
    totals: list[int] = []
    lane_of_speed: dict[Speed, int] = {}
    lane_of: dict[str, int] = {}
    for v in sorted(vehicles, key=lambda v: v.arrival):  # stable: input order on ties
        if v.id in lane_of:
            raise ValueError(f"duplicate vehicle id {v.id!r}")
        x = scaled[v.speed]
        lane = lane_of_speed.get(v.speed)  # 1. exact
        if lane is None:
            lane = len(totals)
            if lane < budget:  # 2. grow
                populations.append(0)
                totals.append(0)
            else:  # 3. nearest
                lane = _nearest(x, populations, totals)
            lane_of_speed[v.speed] = lane
        populations[lane] += 1
        totals[lane] += x
        lane_of[v.id] = lane + 1
    return lane_of, len(totals)


def simulate_part2(
    vehicles: list[VehicleRecord],
    budget: int,
    mode: str = "event",
    interior: str = "lower",
) -> SimulationReport:
    """Grow lanes under a budget, then count transitions as the class planner does,
    with "same lane" meaning "same grown lane"."""
    check_setting("mode", check_counting_mode, mode)
    check_setting("interior", check_interior, interior)
    lane_of, lane_count = assign_stream(vehicles, budget)
    counted = None if mode == "literal" else count_transitions(
        enumerate_overtake_pairs(vehicles, lane_of), lane_count, interior)
    return planner_report("part2", vehicles, lane_of, lane_count, mode, counted)
