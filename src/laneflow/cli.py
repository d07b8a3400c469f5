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
    3  a file or standard output cannot be read or written (missing input,
       missing or read-only output directory, disk full); the message names
       the path given on the command line, or standard output
    4  malformed input or config text
    5  the model rejected a well-formed input
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys
from pathlib import Path

from .census import parse_census, parse_counts_file
from .compare import EnsembleSpec, run_compare, write_outputs
from .config import FileConfig, check_at_least_one, check_u64, parse_config_text, parse_sizes, read_integer
from .domain import ALGORITHMS, COUNTING_MODES, INTERIORS, parse_vehicle_file, render_vehicle_file
from .errors import ConfigError, DegenerateDistribution, LaneflowError, ParseError
from .part1 import simulate_part1
from .part2 import budget_from_part1, simulate_part2
from .refdata import load_token_samples
from .report import canonical_json, render_report, write_text_atomic
from .stats import ClassCountVector, class_count_sd, scale_class_counts, size_biased_expectation
from .synth import DEFAULT_ARRIVAL_GAP_MAX, DEFAULT_SPEED_RANGES, SynthConfig, synthesize_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_PARSE = 4
EXIT_MODEL = 5


class UsageError(Exception):
    pass


class FileFailure(Exception):
    pass


# the exit code of each error a command raises, first match wins: ParseError
# and ConfigError are LaneflowErrors too
_ERROR_EXITS = (
    (UsageError, EXIT_USAGE),
    (FileFailure, EXIT_FILE),
    ((ParseError, ConfigError), EXIT_PARSE),
    (LaneflowError, EXIT_MODEL),
)


def _file_failure(verb: str, path: str, err: OSError) -> FileFailure:
    return FileFailure(f"cannot {verb} {path}: {err.strerror or err}")


def _read_file(path: str) -> str:
    """The text of an input file, less one leading UTF-8 byte-order mark, as
    spreadsheet tools write it.  Decoding keeps the mark, so the offset of an
    undecodable byte is an offset into the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as err:
        raise _file_failure("read", path, err) from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: byte {err.start} cannot be decoded") from None


def _write_text(path: str | None, text: str) -> None:
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            write_text_atomic(path, text)
    except OSError as err:
        if path is None:  # point stdout at the null device, or its flush at exit fails again: exit 120
            with contextlib.suppress(AttributeError, OSError, ValueError):  # a stream with no descriptor
                null = os.open(os.devnull, os.O_WRONLY)
                try:
                    os.dup2(null, sys.stdout.fileno())
                finally:
                    os.close(null)
        raise _file_failure("write", "standard output" if path is None else path, err) from err


def _row_counts(args: argparse.Namespace) -> ClassCountVector:
    census = load_token_samples() if args.census is None else parse_census(_read_file(args.census))
    try:
        return census.usable_counts(args.row)
    except KeyError as err:
        raise UsageError(f"--row: {err.args[0]}") from None


def _load_config(path: str | None) -> FileConfig:
    if path is None:
        return FileConfig()
    return parse_config_text(_read_file(path))


def _first_set(*values):
    return next(value for value in values if value is not None)


def _synth_config(cfg: FileConfig, counts: ClassCountVector) -> SynthConfig:
    cfg.check_speed_labels(counts.labels)
    return SynthConfig(
        class_speed_range={**DEFAULT_SPEED_RANGES, **cfg.speed_ranges},
        arrival_gap_max=_first_set(cfg.arrival_gap_max, DEFAULT_ARRIVAL_GAP_MAX),
    )


def _flag(read):
    """An argparse type: read(text), whose ValueError is a usage error naming
    its flag (exit 2)."""

    def convert(text: str):
        try:
            return read(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


_count_flag = _flag(read_integer(check_at_least_one))
_seed_flag = _flag(read_integer(check_u64))


def _budget_flag(text: str) -> int | str:
    return text if text == "auto" else _count_flag(text)


def _path_flag(text: str) -> str:
    """An argparse type: a file or directory path; an empty one names none (exit 2)."""
    if not text:
        raise argparse.ArgumentTypeError("must be a path, got ''")
    return text


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
        budget = args.budget if args.budget not in (None, "auto") else budget_from_part1(vehicles)
        report = simulate_part2(vehicles, budget, mode=args.mode, interior=args.interior)
    _write_text(args.out, render_report(report))
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    counts = _row_counts(args)
    scaled = scale_class_counts(counts, args.n)
    if scaled.total == 0:
        raise DegenerateDistribution(f"scaling row {args.row!r} to {args.n} rounded every class to zero")
    cfg = _load_config(args.config)
    stream = synthesize_stream(scaled, _synth_config(cfg, counts), _first_set(args.seed, cfg.seed, 0))
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


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    counts = _row_counts(args)
    spec = EnsembleSpec(
        sample_sizes=_first_set(args.sizes, cfg.sizes, (20, 25, 30, 40, 50)),
        runs_per_size=_first_set(args.runs, cfg.runs_per_size, 100),
        base_seed=_first_set(args.base_seed, cfg.base_seed, 0),
        counting_mode=_first_set(args.mode, cfg.counting_mode, "event"),
        source_counts=counts,
        synth=_synth_config(cfg, counts),
    )
    result = run_compare(spec)
    try:
        written = write_outputs(result, args.out_dir)
    except OSError as err:
        raise _file_failure("write", args.out_dir, err) from err
    _write_text(None, "".join(f"{written[kind]}\n" for kind in ("csv", "json", "svg")))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser & dispatch
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `laneflow` parser, built on the first call and shared after it.

    Parsing reads the parser and never changes it: each `parse_args` returns a
    fresh namespace, and `--help` takes its width and `sys.stdout` when it
    prints.  So every `main` call in a process can use the one parser.
    """
    parser = argparse.ArgumentParser(
        prog="laneflow",
        description="Deterministic traffic lane planning and comparison harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one planner over a vehicle CSV")
    p_sim.add_argument("--algo", choices=ALGORITHMS, required=True)
    p_sim.add_argument("--input", type=_path_flag, required=True, help="vehicle CSV (id,speed,arrival)")
    p_sim.add_argument("--mode", choices=COUNTING_MODES, default="event")
    p_sim.add_argument("--budget", type=_budget_flag, default=None,
                       help="lane budget for part2: an integer or 'auto'")
    p_sim.add_argument("--interior", choices=INTERIORS, default="lower",
                       help="neighbour an interior lane transitions to")
    p_sim.add_argument("--out", type=_path_flag, help="report path (default: stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sample = sub.add_parser("sample", help="synthesize a vehicle CSV from a census row")
    p_sample.add_argument("--census", type=_path_flag, help="census CSV (default: bundled token samples)")
    p_sample.add_argument("--row", default="1", help="row name or 1-based index (default: 1)")
    p_sample.add_argument("--n", type=_count_flag, required=True, help="target sample size")
    p_sample.add_argument("--seed", type=_seed_flag, default=None,
                          help="synthesis seed (default: config file, else 0)")
    p_sample.add_argument("--config", type=_path_flag, help="flat key-value config file")
    p_sample.add_argument("--out", type=_path_flag, help="vehicle CSV path (default: stdout)")
    p_sample.set_defaults(func=_cmd_sample)

    p_stats = sub.add_parser("stats", help="expectation and dispersion for a counts file")
    p_stats.add_argument("--counts", type=_path_flag, required=True,
                         help="counts CSV: label header + one count row")
    p_stats.add_argument("--n", type=_count_flag, required=True, help="sample size for the expectation")
    p_stats.add_argument("--out", type=_path_flag, help="JSON path (default: stdout)")
    p_stats.set_defaults(func=_cmd_stats)

    p_cmp = sub.add_parser("compare", help="ensemble comparison of both planners")
    p_cmp.add_argument("--sizes", type=_flag(parse_sizes), default=None,
                       help="comma-separated sample sizes (default: 20,25,30,40,50)")
    p_cmp.add_argument("--runs", type=_count_flag, default=None, help="runs per size (default: 100)")
    p_cmp.add_argument("--base-seed", type=_seed_flag, default=None,
                       help="ensemble base seed (default: 0)")
    p_cmp.add_argument("--mode", choices=COUNTING_MODES, default=None)
    p_cmp.add_argument("--census", type=_path_flag, help="census CSV (default: bundled token samples)")
    p_cmp.add_argument("--row", default="1", help="source row name or 1-based index (default: 1)")
    p_cmp.add_argument("--config", type=_path_flag, help="flat key-value config file")
    p_cmp.add_argument("--out-dir", type=_path_flag, default=".",
                       help="directory for compare.{csv,json,svg}")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The argument parser is built by the first call in a process, not at
    import, and every later call reuses it; a caller that runs many commands
    in one process (a script, the benchmark, the tests) pays for it once.

    The cyclic garbage collector is paused while the command runs: the
    planners and writers build no reference cycles (a corpus test in
    tests/test_differential.py holds this), so reference counting frees
    everything, and the collector would only re-walk every pair and event to
    find nothing.  The caller's collector state is put back on every exit,
    an escaping exception included.  Library callers may wrap large runs the
    same way.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else EXIT_OK
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UsageError, FileFailure, LaneflowError) as err:
        print(f"laneflow: {err}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(err, kinds))
    finally:
        if was_enabled:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
