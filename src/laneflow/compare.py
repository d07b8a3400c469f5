"""Ensemble comparison of the two planners across sample sizes.

For every sample size the source counts are scaled down, runs_per_size
streams are synthesized (each from a seed derived from the base seed and the
run's coordinates), and both planners count transitions on the very same
streams.  Aggregates per (size, algorithm) go to a CSV, a line chart goes to
an SVG, and a JSON summary carries the per-size stats plus a least-squares
trend per algorithm.

Every run is independent and addressable by (size index, run index), so the
work could be farmed out in parallel; results are merged strictly by those
coordinates, and the sequential implementation here is just the simplest
correct merge order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .config import check_at_least_one, check_counting_mode, check_sample_sizes, check_setting, check_u64
from .domain import ALGORITHMS
from .errors import DegenerateDistribution
from .part1 import simulate_part1
from .part2 import budget_from_part1, simulate_part2
from .report import canonical_json, write_text_atomic
from .rng import combine_seed
from .stats import ClassCountVector, TrendFit, class_count_sd, linear_trend, ordered_sum, scale_class_counts
from .svgchart import Series, render_line_chart
from .synth import SynthConfig, synthesize_stream

CSV_HEADER = "sampleSize,algorithm,meanTransitions,sdTransitions,minTransitions,maxTransitions"


@dataclass(frozen=True)
class EnsembleSpec:
    """What to run: sizes, repetitions, seeding, counting mode, source data."""

    sample_sizes: tuple[int, ...]
    runs_per_size: int
    base_seed: int
    counting_mode: str
    source_counts: ClassCountVector
    synth: SynthConfig

    def __post_init__(self) -> None:
        check_setting("sample sizes", check_sample_sizes, self.sample_sizes)
        check_setting("runs_per_size", check_at_least_one, self.runs_per_size)
        check_setting("base_seed", check_u64, self.base_seed)
        check_setting("counting_mode", check_counting_mode, self.counting_mode)


@dataclass(frozen=True)
class SizeStats:
    mean: float
    sd: float
    min: int
    max: int


@dataclass(frozen=True)
class CompareResult:
    spec: EnsembleSpec
    # per algorithm, per size: the individual run transition counts, run order
    runs: dict[str, dict[int, tuple[int, ...]]]
    stats: dict[str, dict[int, SizeStats]]
    trends: dict[str, TrendFit]


def _aggregate(counts: tuple[int, ...]) -> SizeStats:
    mean = ordered_sum(counts) / len(counts)
    sd = class_count_sd(counts)  # population SD over the runs
    return SizeStats(mean=mean, sd=sd, min=min(counts), max=max(counts))


def run_compare(spec: EnsembleSpec) -> CompareResult:
    runs: dict[str, dict[int, tuple[int, ...]]] = {algo: {} for algo in ALGORITHMS}
    for size_index, size in enumerate(spec.sample_sizes):
        scaled = scale_class_counts(spec.source_counts, size)
        if scaled.total == 0:
            raise DegenerateDistribution(
                f"scaling the source counts to size {size} rounded every class to zero"
            )
        part1_counts: list[int] = []
        part2_counts: list[int] = []
        for run_index in range(spec.runs_per_size):
            seed = combine_seed(spec.base_seed, size_index, run_index)
            stream = synthesize_stream(scaled, spec.synth, seed)
            part1_counts.append(simulate_part1(stream, spec.counting_mode).transition_count)
            budget = budget_from_part1(stream)
            part2_counts.append(
                simulate_part2(stream, budget, spec.counting_mode).transition_count
            )
        runs["part1"][size] = tuple(part1_counts)
        runs["part2"][size] = tuple(part2_counts)
    stats = {
        algo: {size: _aggregate(counts) for size, counts in runs[algo].items()}
        for algo in ALGORITHMS
    }
    trends = {
        algo: linear_trend([(size, stats[algo][size].mean) for size in spec.sample_sizes])
        for algo in ALGORITHMS
    }
    return CompareResult(spec=spec, runs=runs, stats=stats, trends=trends)


def render_csv(result: CompareResult) -> str:
    lines = [CSV_HEADER]
    rows = sorted(
        (size, algo)
        for algo in ALGORITHMS
        for size in result.spec.sample_sizes
    )
    for size, algo in rows:
        s = result.stats[algo][size]
        lines.append(f"{size},{algo},{s.mean},{s.sd},{s.min},{s.max}")
    return "\n".join(lines) + "\n"


def render_summary_json(result: CompareResult) -> str:
    spec = result.spec
    series: dict[str, Any] = {}
    for algo in ALGORITHMS:
        series[algo] = {str(size): asdict(result.stats[algo][size]) for size in spec.sample_sizes}
    head_to_head: dict[str, Any] = {}
    for size in spec.sample_sizes:
        m1 = result.stats["part1"][size].mean
        m2 = result.stats["part2"][size].mean
        head_to_head[str(size)] = {
            "absolute": m2 - m1,
            "relative": (m2 - m1) / m1 if m1 != 0 else None,
        }
    payload = {
        "sampleSizes": list(spec.sample_sizes),
        "runsPerSize": spec.runs_per_size,
        "baseSeed": spec.base_seed,
        "countingMode": spec.counting_mode,
        "sourceCounts": {
            "labels": list(spec.source_counts.labels),
            "counts": list(spec.source_counts.counts),
        },
        "arrivalGapMax": spec.synth.arrival_gap_max,
        "speedRanges": {
            label: [lo, hi] for label, (lo, hi) in sorted(spec.synth.class_speed_range.items())
        },
        "series": series,
        "trend": {
            algo: {
                "slope": result.trends[algo].slope,
                "intercept": result.trends[algo].intercept,
                "rSquared": result.trends[algo].r_squared,
            }
            for algo in ALGORITHMS
        },
        "part2VsPart1": head_to_head,
    }
    return canonical_json(payload)


def render_chart_svg(result: CompareResult) -> str:
    series = [
        Series(
            name=algo,
            points=tuple(
                (float(size), result.stats[algo][size].mean)
                for size in result.spec.sample_sizes
            ),
        )
        for algo in ALGORITHMS
    ]
    return render_line_chart(
        series,
        title="Mean lane transitions by sample size",
        x_label="sample size",
        y_label=f"mean transitions ({result.spec.counting_mode} mode)",
    )


def write_outputs(result: CompareResult, out_dir: str | Path) -> dict[str, Path]:
    """Render everything first, then write each file atomically: a failed run
    leaves no files, and a failed write no partial file."""
    directory = Path(out_dir)
    payloads = {
        "csv": (directory / "compare.csv", render_csv(result)),
        "json": (directory / "compare.json", render_summary_json(result)),
        "svg": (directory / "compare.svg", render_chart_svg(result)),
    }
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for kind, (path, text) in payloads.items():
        write_text_atomic(path, text)
        written[kind] = path
    return written
