"""Deterministic traffic lane planning, sampling, and comparison tools."""

from .census import parse_census, parse_counts_file
from .compare import EnsembleSpec, run_compare, write_outputs
from .config import parse_config_text
from .domain import (
    SimulationReport,
    SpeedClass,
    TransitionEvent,
    VehicleRecord,
    classify_speed,
    parse_vehicle_file,
    render_vehicle_file,
)
from .errors import (
    ConfigError,
    DegenerateDistribution,
    DegenerateFit,
    EmptyStream,
    LaneflowError,
    ParseError,
    PlanHasNoAdjacentLane,
    RowUnusable,
    SpeedOutOfModel,
)
from .part1 import build_lane_plan, simulate_part1
from .part2 import assign_stream, budget_from_part1, simulate_part2
from .report import canonical_json, render_report
from .rng import SplitMix64, combine_seed
from .stats import (
    ClassCountVector,
    class_count_sd,
    linear_trend,
    scale_class_counts,
    size_biased_expectation,
)
from .synth import SynthConfig, synthesize_stream

__version__ = "0.1.0"

__all__ = [
    "ClassCountVector",
    "ConfigError",
    "DegenerateDistribution",
    "DegenerateFit",
    "EmptyStream",
    "EnsembleSpec",
    "LaneflowError",
    "ParseError",
    "PlanHasNoAdjacentLane",
    "RowUnusable",
    "SimulationReport",
    "SpeedClass",
    "SpeedOutOfModel",
    "SplitMix64",
    "SynthConfig",
    "TransitionEvent",
    "VehicleRecord",
    "assign_stream",
    "budget_from_part1",
    "build_lane_plan",
    "canonical_json",
    "class_count_sd",
    "classify_speed",
    "combine_seed",
    "linear_trend",
    "parse_census",
    "parse_config_text",
    "parse_counts_file",
    "parse_vehicle_file",
    "render_report",
    "render_vehicle_file",
    "run_compare",
    "scale_class_counts",
    "simulate_part1",
    "simulate_part2",
    "size_biased_expectation",
    "synthesize_stream",
    "write_outputs",
    "__version__",
]
