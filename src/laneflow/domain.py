"""Core vocabulary: vehicles, speed classes, reports.

Speeds are modeled on the open interval (0, 101) km/h and fall into five
classes, each an open band:

    A: 0 < v < 11      B: 10 < v < 31     C: 30 < v < 46
    D: 45 < v < 51     E: 50 < v < 101

The bands overlap at their integer edges (10, 30, 45, 50); classification is
first-match in A..E order, so integer speeds land in disjoint ranges
(A: 1-10, B: 11-30, C: 31-45, D: 46-50, E: 51-100) while decimal speeds such
as 10.5 resolve to the earlier band.  Anything at or below 0, or at or above
101, is outside the model and rejected — never clamped.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterator, NamedTuple

from .errors import EmptyStream, ParseError, SpeedOutOfModel

Speed = int | float  # km/h; int preserved when the source text is integral
_SPEED_TYPES = (int, float)  # exactly these: a bool, Decimal or Fraction speed is refused

ALGORITHMS = ("part1", "part2")  # the speed-class and the lane-budget planner
COUNTING_MODES = ("event", "literal")  # part1.count_transitions or part1.literal_count
INTERIORS = ("lower", "upper")  # which neighbour an interior lane's transitions target


class SpeedClass(enum.IntEnum):
    """The five speed classes, ordered slowest to fastest."""

    A = 1
    B = 2
    C = 3
    D = 4
    E = 5


_CLASSES = tuple(SpeedClass)  # indexed directly: calling SpeedClass(n) costs ~3x more per speed


def classify_speed(speed: Speed) -> SpeedClass:
    """Map a speed to its class, first matching band wins.

    Each band's lower edge lies below the previous band's upper edge, so
    under first match only the upper edges (11, 31, 46, 51, 101) decide:
    the class is the first band whose upper edge lies above the speed.
    Raises SpeedOutOfModel for speeds outside the open interval (0, 101).
    """
    if not 0 < speed < 101:
        raise SpeedOutOfModel(f"speed {speed} outside the modeled interval (0, 101) km/h")
    return _CLASSES[bisect_right((11, 31, 46, 51, 101), speed)]


@dataclass(frozen=True)
class VehicleRecord:
    """One observed vehicle: opaque id, speed in km/h, arrival tick."""

    id: str
    speed: Speed
    arrival: int

    def __post_init__(self) -> None:
        if type(self.id) is not str or not self.id:
            raise ValueError("vehicle id must be a non-empty string")
        if type(self.speed) not in _SPEED_TYPES:
            raise ValueError(f"vehicle {self.id!r}: speed must be an int or a float, "
                             f"not {type(self.speed).__name__}")
        if not 0 < self.speed < 101:
            raise SpeedOutOfModel(
                f"vehicle {self.id!r}: speed {self.speed} outside the modeled interval (0, 101) km/h"
            )
        if not isinstance(self.arrival, int) or isinstance(self.arrival, bool):
            raise ValueError(f"vehicle {self.id!r}: arrival must be an integer tick")
        if self.arrival < 0:
            raise ValueError(f"vehicle {self.id!r}: arrival must be >= 0")

    @property
    def speed_class(self) -> SpeedClass:
        return classify_speed(self.speed)


class TransitionEvent(NamedTuple):
    """One predicted lane transition caused by an overtaking pair.

    Made only by part1.count_transitions, which keeps the two lanes adjacent
    and inside the plan, from a pair that part1.enumerate_overtake_pairs
    found and stamped with catch_up_ticks at least 1.
    """

    overtaker_id: str
    overtaken_id: str
    from_lane: int
    to_lane: int
    catch_up_ticks: int


@dataclass(frozen=True)
class SimulationReport:
    """What part1.simulate_part1 or part2.simulate_part2 produced, ready for
    canonical serialization: in event mode transition_count is len(events),
    in literal mode events is empty."""

    algorithm: str       # one of ALGORITHMS
    counting_mode: str   # one of COUNTING_MODES
    lane_count: int
    transition_count: int
    events: tuple[TransitionEvent, ...] = ()
    lane_average_speed: dict[int, float] = field(default_factory=dict)
    lane_population: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input files: one number grammar, one CSV reader, and the vehicle stream
# format (CSV with header  id,speed,arrival)
# ---------------------------------------------------------------------------

VEHICLE_FILE_HEADER = ("id", "speed", "arrival")

# The one number grammar of every input file: ASCII digits, an optional
# leading minus, and (for speeds only) one dot with digits on both sides.
# Python's int() and float() would also take "1_0", "+5", "1e1", "inf" and
# non-ASCII digits.
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?")


def parse_number(text: str, decimal: bool = False) -> int | float:
    """Read -?[0-9]+ as an int, or with decimal=True also -?[0-9]+.[0-9]+ as
    float(text); raises ValueError for anything else, and for decimal text
    whose value differs from the float's repr, the decimal the planners count
    with (10.99999999999999999 reads as 11.0).  Text that is the repr costs
    one string compare."""
    match = _NUMBER.fullmatch(text)
    if match is None or (match[1] and not decimal):
        raise ValueError(f"{text!r} is not {'a number' if decimal else 'an integer'}")
    if not match[1]:
        return int(text)
    number = float(text)
    if repr(number) != text and Decimal(repr(number)) != Decimal(text):
        raise ValueError(f"{text!r} has more digits than a float holds")
    return number


def read_csv(text: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-blank line of a CSV text as (file line number, stripped
    cells), the header first.

    Raises ParseError for a text without a non-blank line ("empty <what>
    file") and for a line whose cell count differs from the header's.
    """
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            cells = [cell.strip() for cell in raw.split(",")]
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ParseError(f"expected {width} cells, got {len(cells)}", lineno, 1)
            yield lineno, cells
    if width is None:
        raise ParseError(f"empty {what} file", 1, 1)


def parse_vehicle_file(text: str) -> list[VehicleRecord]:
    """Parse the id,speed,arrival CSV format into validated records.

    Raises ParseError (with 1-based line/column) for structural problems and
    SpeedOutOfModel for well-formed rows whose speed the model rejects.
    """
    lines = read_csv(text, "vehicle")
    lineno, header = next(lines)
    if tuple(header) != VEHICLE_FILE_HEADER:
        raise ParseError(f"expected header {','.join(VEHICLE_FILE_HEADER)!r}", lineno, 1)
    records: list[VehicleRecord] = []
    seen: set[str] = set()
    for lineno, (vid, speed_text, arrival_text) in lines:
        if not vid:
            raise ParseError("empty vehicle id", lineno, 1)
        if vid in seen:
            raise ParseError(f"duplicate vehicle id {vid!r}", lineno, 1)
        seen.add(vid)
        try:
            speed = parse_number(speed_text, decimal=True)
        except ValueError as err:
            raise ParseError(f"speed {err}", lineno, 2) from None
        try:
            arrival = parse_number(arrival_text)
        except ValueError as err:
            raise ParseError(f"arrival {err}", lineno, 3) from None
        if arrival < 0:
            raise ParseError("arrival must be >= 0", lineno, 3)
        records.append(VehicleRecord(id=vid, speed=speed, arrival=arrival))
    if not records:
        raise EmptyStream("vehicle file contains a header but no rows")
    return records


def render_vehicle_file(vehicles: list[VehicleRecord]) -> str:
    """The id,speed,arrival CSV of vehicles; raises ValueError for an id that
    parse_vehicle_file would read back as another id or another row."""
    lines = [",".join(VEHICLE_FILE_HEADER)]
    for v in vehicles:
        if "," in v.id or v.id.splitlines() != [v.id] or v.id != v.id.strip():
            raise ValueError(f"vehicle id {v.id!r} would not read back: it holds a comma, "
                             "a line break or surrounding whitespace")
        speed = str(v.speed)
        if "e" in speed:  # e.g. 5e-05: parse_number reads positional digits only
            speed = format(Decimal(speed), "f")
        lines.append(f"{v.id},{speed},{v.arrival}")
    return "\n".join(lines) + "\n"
