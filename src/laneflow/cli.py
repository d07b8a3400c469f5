"""Command-line interface.

Four subcommands, all batch-style (read inputs, write files, exit):

    simulate   run one planner over a vehicle CSV, emit a canonical JSON report
    sample     scale a census row to a sample size and synthesize a vehicle CSV
    stats      expectation + dispersion for a counts file, as canonical JSON
    compare    seeded ensemble of both planners across sample sizes
               (CSV + SVG chart + JSON summary)

Exit codes tell scripts what went wrong:

    0  success
    2  usage error (bad flags or arguments)
    3  input file missing or unreadable
    4  malformed input or config text
    5  the model rejected a well-formed input
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .census import CensusTable, parse_census, parse_counts_file
from .compare import (
    EnsembleSpec,
    check_base_seed,
    check_runs_per_size,
    check_sample_sizes,
    run_compare,
    write_outputs,
)
from .config import FileConfig, parse_config_text
from .domain import parse_vehicle_file, render_vehicle_file
from .errors import ConfigError, DegenerateDistribution, LaneflowError, ParseError
from .part1 import simulate_part1
from .part2 import budget_from_part1, simulate_part2
from .refdata import load_token_samples
from .report import canonical_json, render_report, write_text_atomic
from .stats import class_count_sd, scale_class_counts, size_biased_expectation
from .synth import DEFAULT_ARRIVAL_GAP_MAX, DEFAULT_SPEED_RANGES, SynthConfig, synthesize_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_PARSE = 4
EXIT_MODEL = 5


class UsageError(Exception):
    pass


class UnreadableInput(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UnreadableInput(f"cannot read {path}: {err.strerror or err}") from err


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def _load_census(path: str | None) -> CensusTable:
    if path is None:
        return load_token_samples()
    return parse_census(_read_file(path))


def _load_config(path: str | None) -> FileConfig:
    if path is None:
        return FileConfig()
    return parse_config_text(_read_file(path))


def _synth_config(cfg: FileConfig, seed_flag: int | None) -> SynthConfig:
    ranges = dict(DEFAULT_SPEED_RANGES)
    ranges.update(cfg.speed_ranges)
    seed = seed_flag if seed_flag is not None else (cfg.seed if cfg.seed is not None else 0)
    return SynthConfig(
        class_speed_range=ranges,
        arrival_gap_max=cfg.arrival_gap_max
        if cfg.arrival_gap_max is not None
        else DEFAULT_ARRIVAL_GAP_MAX,
        seed=seed,
    )


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise UsageError(f"--sizes expects comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.algo == "part1" and args.budget is not None:
        raise UsageError("--budget only applies to --algo part2")
    vehicles = parse_vehicle_file(_read_file(args.input))
    if args.algo == "part1":
        report = simulate_part1(vehicles, mode=args.mode, interior=args.interior)
    else:
        budget_text = args.budget if args.budget is not None else "auto"
        if budget_text == "auto":
            budget = budget_from_part1(vehicles)
        else:
            try:
                budget = int(budget_text)
            except ValueError:
                raise UsageError(f"--budget expects an integer or 'auto', got {budget_text!r}") from None
        report = simulate_part2(vehicles, budget, mode=args.mode, interior=args.interior)
    _write_text(args.out, render_report(report))
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    census = _load_census(args.census)
    try:
        counts = census.usable_counts(args.row)
    except KeyError as err:
        raise UsageError(str(err.args[0])) from None
    scaled = scale_class_counts(counts, args.n)
    if scaled.total == 0:
        raise DegenerateDistribution(
            f"scaling row {args.row!r} to {args.n} rounded every class to zero"
        )
    config = _synth_config(_load_config(args.config), args.seed)
    stream = synthesize_stream(scaled, config)
    _write_text(args.out, render_vehicle_file(stream))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    counts = parse_counts_file(_read_file(args.counts))
    payload = {
        "labels": list(counts.labels),
        "counts": list(counts.counts),
        "sampleSize": args.n,
        "expectation": size_biased_expectation(counts, args.n),
        "standardDeviation": class_count_sd(counts),
    }
    _write_text(args.out, canonical_json(payload))
    return EXIT_OK


def _checked_flag(flag: str, value, check):
    """A flag's value under the ensemble's own rule; a bad one is a usage error."""
    if value is None:
        return None
    try:
        return check(value)
    except ConfigError as err:
        raise UsageError(f"{flag}: {err}") from None


def _first_set(*values):
    return next(value for value in values if value is not None)


def _cmd_compare(args: argparse.Namespace) -> int:
    # Flags are checked first, so a bad flag fails as usage before any file is read.
    sizes = _checked_flag(
        "--sizes", _parse_sizes(args.sizes) if args.sizes is not None else None, check_sample_sizes
    )
    runs = _checked_flag("--runs", args.runs, check_runs_per_size)
    base_seed = _checked_flag("--base-seed", args.base_seed, check_base_seed)
    cfg = _load_config(args.config)
    census = _load_census(args.census)
    try:
        counts = census.usable_counts(args.row)
    except KeyError as err:
        raise UsageError(str(err.args[0])) from None
    spec = EnsembleSpec(
        sample_sizes=_first_set(sizes, cfg.sizes, (20, 25, 30, 40, 50)),
        runs_per_size=_first_set(runs, cfg.runs_per_size, 100),
        base_seed=_first_set(base_seed, cfg.base_seed, 0),
        counting_mode=_first_set(args.mode, cfg.counting_mode, "event"),
        source_counts=counts,
        synth=_synth_config(cfg, None),
    )
    written = write_outputs(run_compare(spec), args.out_dir)
    for kind in ("csv", "json", "svg"):
        sys.stdout.write(f"{written[kind]}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser & dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laneflow",
        description="Deterministic traffic lane planning and comparison harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one planner over a vehicle CSV")
    p_sim.add_argument("--algo", choices=("part1", "part2"), required=True)
    p_sim.add_argument("--input", required=True, help="vehicle CSV (id,speed,arrival)")
    p_sim.add_argument("--mode", choices=("event", "literal"), default="event")
    p_sim.add_argument("--budget", default=None, help="lane budget for part2: an integer or 'auto'")
    p_sim.add_argument("--interior", choices=("lower", "upper"), default="lower",
                       help="neighbour an interior lane transitions to")
    p_sim.add_argument("--out", default=None, help="report path (default: stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sample = sub.add_parser("sample", help="synthesize a vehicle CSV from a census row")
    p_sample.add_argument("--census", default=None, help="census CSV (default: bundled token samples)")
    p_sample.add_argument("--row", default="1", help="row name or 1-based index (default: 1)")
    p_sample.add_argument("--n", type=int, required=True, help="target sample size")
    p_sample.add_argument("--seed", type=int, default=None, help="synthesis seed (default: config file, else 0)")
    p_sample.add_argument("--config", default=None, help="flat key-value config file")
    p_sample.add_argument("--out", default=None, help="vehicle CSV path (default: stdout)")
    p_sample.set_defaults(func=_cmd_sample)

    p_stats = sub.add_parser("stats", help="expectation and dispersion for a counts file")
    p_stats.add_argument("--counts", required=True, help="counts CSV: label header + one count row")
    p_stats.add_argument("--n", type=int, required=True, help="sample size for the expectation")
    p_stats.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p_stats.set_defaults(func=_cmd_stats)

    p_cmp = sub.add_parser("compare", help="ensemble comparison of both planners")
    p_cmp.add_argument("--sizes", default=None, help="comma-separated sample sizes (default: 20,25,30,40,50)")
    p_cmp.add_argument("--runs", type=int, default=None, help="runs per size (default: 100)")
    p_cmp.add_argument("--base-seed", type=int, default=None, help="ensemble base seed (default: 0)")
    p_cmp.add_argument("--mode", choices=("event", "literal"), default=None)
    p_cmp.add_argument("--census", default=None, help="census CSV (default: bundled token samples)")
    p_cmp.add_argument("--row", default="1", help="source row name or 1-based index (default: 1)")
    p_cmp.add_argument("--config", default=None, help="flat key-value config file")
    p_cmp.add_argument("--out-dir", default=".", help="directory for compare.{csv,json,svg}")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else EXIT_OK
    try:
        return args.func(args)
    except UsageError as err:
        print(f"laneflow: {err}", file=sys.stderr)
        return EXIT_USAGE
    except UnreadableInput as err:
        print(f"laneflow: {err}", file=sys.stderr)
        return EXIT_UNREADABLE
    except (ParseError, ConfigError) as err:
        print(f"laneflow: {err}", file=sys.stderr)
        return EXIT_PARSE
    except LaneflowError as err:
        print(f"laneflow: {err}", file=sys.stderr)
        return EXIT_MODEL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
