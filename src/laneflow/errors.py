"""Exception types shared across the package.

Everything raised deliberately by laneflow derives from LaneflowError, so
callers (and the CLI) can split "the model rejected your input" from plain
bugs.  Parse-level problems carry a 1-based line/column where known.  A
setting that breaks its rule (a budget, a sample size, a counting mode or
an interior preference) raises ConfigError naming the argument, whether it
came from a flag, a config line or a library call (config.check_setting).

ValueError remains for data that breaks a function's own contract: a
duplicate vehicle id, a pair that does not overtake or lies outside the plan,
a VehicleRecord whose fields break its invariants (its speed must be of type
int or float, not bool, Decimal or Fraction, before its range is checked).
"""

from __future__ import annotations


class LaneflowError(Exception):
    """Base class for all errors raised on purpose by this package."""


class SpeedOutOfModel(LaneflowError):
    """Speed outside the modeled open interval (0, 101) km/h."""


class EmptyStream(LaneflowError):
    """An operation that needs at least one vehicle got none."""


class PlanHasNoAdjacentLane(LaneflowError):
    """A single-lane plan has no adjacent lane, so it cannot host the
    transitions its overtaking pairs call for."""


class DegenerateDistribution(LaneflowError):
    """Class counts are unusable: empty, or all zero."""


class DegenerateFit(LaneflowError):
    """A trend fit needs at least two distinct x values."""


class ConfigError(LaneflowError):
    """Invalid or incomplete synthesis/ensemble configuration."""


class RowUnusable(LaneflowError):
    """Census row contains missing cells and cannot drive sampling."""


class ParseError(LaneflowError):
    """Malformed input text.

    line and column are 1-based and optional; str() renders them when set.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
