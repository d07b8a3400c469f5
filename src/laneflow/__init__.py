"""Deterministic traffic lane planning, sampling, and comparison tools."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each module and the names the root exports from it; importing a module
# also binds it here, as ``laneflow.part1``
_EXPORTS = {
    "census": ("parse_census", "parse_counts_file"),
    "compare": ("EnsembleSpec", "run_compare", "write_outputs"),
    "config": ("parse_config_text",),
    "domain": ("SimulationReport", "SpeedClass", "TransitionEvent", "VehicleRecord", "classify_speed",
               "parse_vehicle_file", "render_vehicle_file"),
    "errors": ("ConfigError", "DegenerateDistribution", "DegenerateFit", "EmptyStream", "LaneflowError",
               "ParseError", "PlanHasNoAdjacentLane", "RowUnusable", "SpeedOutOfModel"),
    "part1": ("build_lane_plan", "simulate_part1"),
    "part2": ("assign_stream", "budget_from_part1", "simulate_part2"),
    "report": ("canonical_json", "render_report"),
    "rng": ("SplitMix64", "combine_seed"),
    "stats": ("ClassCountVector", "class_count_sd", "linear_trend", "scale_class_counts",
              "size_biased_expectation"),
    "synth": ("SynthConfig", "synthesize_stream"),
}

for _module, _names in _EXPORTS.items():
    _home = _import_module(f".{_module}", __name__)
    globals().update({name: getattr(_home, name) for name in _names})
del _module, _names, _home

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
