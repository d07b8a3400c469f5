"""Acceptance gate: eight behavior guarantees, one [PASS]/[FAIL] line each.

Each test prints its verdict straight to the terminal (bypassing capture) so a
plain ``pytest tests/test_acceptance.py`` leaves a readable scoreboard, then
asserts.  Informational lines (trend slopes, relative differences, deviation
logs) are indented under their verdict.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import lane_speeds, make_stream
from laneflow import (
    EnsembleSpec,
    PlanHasNoAdjacentLane,
    SynthConfig,
    assign_stream,
    budget_from_part1,
    build_lane_plan,
    classify_speed,
    combine_seed,
    render_report,
    run_compare,
    scale_class_counts,
    simulate_part1,
    simulate_part2,
    size_biased_expectation,
    synthesize_stream,
)
from laneflow.cli import EXIT_OK, main
from laneflow.refdata import load_token_samples
from reference_planners import OvertakePair, catch_up_ticks, exact, literal_overtake_count
from test_refdata import load_sample_tables

SIZES = (20, 25, 30, 40, 50)


@pytest.fixture
def announce(capsys):
    """Verdict printer that survives pytest's output capture."""

    def _announce(ok: bool, label: str, detail: str = "") -> None:
        with capsys.disabled():
            line = f"[{'PASS' if ok else 'FAIL'}] {label}"
            if detail:
                line += f" — {detail}"
            print(line, flush=True)

    return _announce


@pytest.fixture
def info(capsys):
    def _info(text: str) -> None:
        with capsys.disabled():
            print(f"        {text}", flush=True)

    return _info


@contextmanager
def verdict_on_failure(announce, label):
    """Guarantee the [FAIL] line even when an assertion fires mid-loop."""
    try:
        yield
    except BaseException as err:
        announce(False, label, str(err).splitlines()[0][:100] if str(err) else "")
        raise


def brute_pair_count(stream) -> int:
    """Independent O(n^2) recount of qualifying overtaking pairs by class."""
    data = [(classify_speed(v.speed), exact(v.speed), v.arrival) for v in stream]
    count = 0
    for ci, si, ai in data:
        for cj, sj, aj in data:
            if ci == cj and si < sj and ai <= aj:
                count += 1
    return count


# --- 1/8 ------------------------------------------------------------------


def test_expectation_matches_all_reference_rows(announce):
    rows = load_sample_tables()
    started = time.perf_counter()
    misses = [
        (row.sample_size, row.row, computed, row.expectation)
        for row in rows
        if abs(
            (computed := size_biased_expectation(row.counts.counts, row.sample_size))
            - row.expectation
        )
        >= 0.005
    ]
    elapsed = time.perf_counter() - started
    ok = not misses and len(rows) == 50 and elapsed < 1.0
    announce(ok, "1/8 size-biased expectation matches all 50 reference rows (±0.005)",
             f"{50 - len(misses)}/50 in {elapsed:.3f}s")
    assert elapsed < 1.0
    assert misses == []


# --- 2/8 ------------------------------------------------------------------


def test_scaled_counts_match_reference_cells(announce, info):
    raw = load_token_samples()
    by_key = {(r.sample_size, r.row): r for r in load_sample_tables()}
    started = time.perf_counter()
    deviations = []
    exact_cells = 0
    total_cells = 0
    for size in SIZES:
        for row_index in range(1, 11):
            counts = raw.usable_counts(row_index)
            scaled = scale_class_counts(counts, size)
            computed = dict(zip(scaled.labels, scaled.counts))
            source = dict(zip(counts.labels, counts.counts))
            for label, printed in by_key[(size, row_index)].transcribed_cells():
                total_cells += 1
                if computed[label] == printed:
                    exact_cells += 1
                else:
                    unrounded = size * source[label] / counts.total  # N·p
                    deviations.append((size, row_index, label, computed[label], printed, unrounded))
    elapsed = time.perf_counter() - started
    share = exact_cells / total_cells
    worst = max((abs(got - printed) for *_, got, printed, _ in deviations), default=0)
    ok = share >= 0.95 and worst <= 1 and elapsed < 1.0
    announce(
        ok,
        "2/8 scaled counts match reference cells (≥95% exact, rest within ±1)",
        f"{exact_cells}/{total_cells} exact ({share:.2%}), worst |Δ|={worst}, {elapsed:.3f}s",
    )
    for size, row_index, label, got, printed, unrounded in deviations:
        info(f"deviation: N={size} row {row_index} {label}: computed {got}, reference {printed}, "
             f"N·p ≈ {unrounded:.2f}")
    assert elapsed < 1.0
    assert worst <= 1, f"cells deviate by more than ±1: worst |Δ|={worst}"
    assert share >= 0.95, f"only {share:.2%} of reference cells reproduced exactly"


# --- 3/8 ------------------------------------------------------------------


def test_kinematics_equals_tick_loop_exhaustively(announce):
    label = "3/8 closed-form kinematics equals the tick loop on 252,450 cases"

    def naive(slow: int, fast: int, head: int) -> tuple[int, int]:
        ticks = 0
        behind = 0
        while True:
            ticks += 1
            lead = slow * (head + ticks)
            chase = fast * ticks
            if chase <= lead:
                behind += 1
            if chase >= lead:
                return ticks, behind

    started = time.perf_counter()
    checked = 0
    with verdict_on_failure(announce, label):
        # Amortized sweep: for a fixed pair the catch-up tick is non-decreasing
        # in the head start, so one forward pointer serves all 51 head values
        # while every boundary is still decided by the genuine distance
        # comparison.
        for fast in range(2, 101):
            for slow in range(1, fast):
                tick = 1
                for head in range(51):
                    while fast * tick < slow * (head + tick):
                        tick += 1
                    behind = tick - 1 + (1 if fast * tick == slow * (head + tick) else 0)
                    pair = OvertakePair(slow, fast, head)
                    assert catch_up_ticks(pair) == tick, (slow, fast, head)
                    assert literal_overtake_count(pair) == behind, (slow, fast, head)
                    checked += 1
        # Spot-check the amortization itself against the plain tick loop.
        rng = random.Random(1187)
        for _ in range(3000):
            fast = rng.randint(2, 100)
            slow = rng.randint(1, fast - 1)
            head = rng.randint(0, 50)
            ticks, behind = naive(slow, fast, head)
            pair = OvertakePair(slow, fast, head)
            assert catch_up_ticks(pair) == ticks, (slow, fast, head)
            assert literal_overtake_count(pair) == behind, (slow, fast, head)
        assert checked == 252_450
    elapsed = time.perf_counter() - started
    announce(elapsed < 10.0, label, f"+3000 random re-walks, {elapsed:.2f}s")
    assert elapsed < 10.0


# --- 4/8 ------------------------------------------------------------------


def test_class_planner_invariants_on_random_streams(announce):
    label = "4/8 class-planner invariants hold on 1000 random streams"
    contradictions = 0
    with verdict_on_failure(announce, label):
        for seed in range(1000):
            stream = make_stream(seed, max_n=200,
                                 float_share=0.25 if seed % 4 == 0 else 0.0)
            lane_of, lane_count = build_lane_plan(stream)
            brute = brute_pair_count(stream)
            if lane_count == 1 and brute:
                with pytest.raises(PlanHasNoAdjacentLane):
                    simulate_part1(stream)
                contradictions += 1
                continue
            report = simulate_part1(stream)
            classes = {v.id: classify_speed(v.speed) for v in stream}
            assert report.lane_count == len(set(classes.values())), seed
            lane_to_class: dict[int, set] = {}
            for vid, lane in lane_of.items():
                lane_to_class.setdefault(lane, set()).add(classes[vid])
            assert all(len(found) == 1 for found in lane_to_class.values()), seed
            assert len({next(iter(s)) for s in lane_to_class.values()}) == report.lane_count
            assert report.transition_count == brute, seed
            assert render_report(simulate_part1(stream)) == render_report(report), seed
    announce(True, label, f"{contradictions} single-lane contradictions rejected")


# --- 5/8 ------------------------------------------------------------------


def test_knowledge_base_invariants_on_random_streams(announce):
    label = "5/8 knowledge-base invariants hold on 1000 random streams"
    rejected = 0
    with verdict_on_failure(announce, label):
        for seed in range(1000):
            stream = make_stream(seed + 10_000, max_n=120,
                                 float_share=0.25 if seed % 4 == 0 else 0.0)
            distinct = len({exact(v.speed) for v in stream})
            budget = 1 + seed % 11
            try:
                report = simulate_part2(stream, budget)
            except PlanHasNoAdjacentLane:
                assert min(budget, distinct) == 1, seed
                rejected += 1
            else:
                assert sum(report.lane_population.values()) == len(stream), seed
                assert report.lane_count <= budget, seed
                assert report.lane_count == min(budget, distinct), seed
                lane_of, lane_count = assign_stream(stream, budget)
                for lane, speeds in lane_speeds(stream, lane_of, lane_count).items():
                    mean = Fraction(sum(exact(s) for s in speeds)) / len(speeds)
                    got = report.lane_average_speed[lane]
                    assert abs(got - float(mean)) <= 1e-9, seed
                    if all(isinstance(s, int) for s in speeds):
                        assert got == float(mean), seed
            covering = distinct + seed % 3
            assert simulate_part2(stream, covering).transition_count == 0, seed
            assert simulate_part2(stream, covering, "literal").transition_count == 0, seed
    announce(True, label, f"{rejected} single-lane contradictions rejected")


# --- 6/8 ------------------------------------------------------------------

_ENSEMBLE: dict = {}


def _default_ensemble():
    """The benchmark the chart claims below share; memoized with its runtime."""
    if not _ENSEMBLE:
        spec = EnsembleSpec(
            sample_sizes=SIZES,
            runs_per_size=100,
            base_seed=0,
            counting_mode="event",
            source_counts=load_token_samples().usable_counts(1),
            synth=SynthConfig(),
        )
        started = time.perf_counter()
        _ENSEMBLE["result"] = run_compare(spec)
        _ENSEMBLE["elapsed"] = time.perf_counter() - started
    return _ENSEMBLE["result"], _ENSEMBLE["elapsed"]


def test_mean_transitions_strictly_increase_with_sample_size(announce, info):
    result, elapsed = _default_ensemble()
    means = [result.stats["part1"][size].mean for size in SIZES]
    increasing = all(a < b for a, b in zip(means, means[1:]))
    trend = result.trends["part1"]
    ok = increasing and elapsed < 60.0
    announce(ok, "6/8 mean class-planner transitions strictly increase with sample size",
             f"means {['%.1f' % m for m in means]} in {elapsed:.1f}s")
    info(f"part1 trend: slope={trend.slope:.4f}, intercept={trend.intercept:.4f}, "
         f"r²={trend.r_squared:.4f} (reported, not asserted)")
    assert elapsed < 60.0
    assert increasing, f"part1 means not strictly increasing: {means}"


# --- 7/8 ------------------------------------------------------------------


def test_covering_budget_silences_knowledge_base_transitions(announce, info):
    label = ("7/8 a budget covering every distinct speed forces zero "
             "knowledge-base transitions")
    raw = load_token_samples().usable_counts(1)
    runs_per_size = 30

    part1_means = []
    with verdict_on_failure(announce, label):
        # One distinct speed per class band: the auto budget always covers the
        # distinct speeds, and no stream can contain a qualifying pair at all.
        strict = SynthConfig(class_speed_range={
            "Rickshaw": (5, 5), "Trucks": (20, 20), "Vehicles": (20, 20),
            "LCV": (40, 40), "Motor Cycle": (40, 40), "Buses": (48, 48),
            "Cars": (60, 60),
        })
        for size_index, size in enumerate(SIZES):
            scaled = scale_class_counts(raw, size)
            for run in range(runs_per_size):
                seed = combine_seed(20260819, size_index, run)
                stream = synthesize_stream(scaled, strict, seed)
                assert brute_pair_count(stream) == 0
                assert simulate_part1(stream).transition_count == 0
                auto = budget_from_part1(stream)
                assert simulate_part2(stream, auto).transition_count == 0

        # Seven distinct speeds, two class bands doubly occupied: an explicit
        # budget of seven still covers them, so the knowledge base stays
        # silent while the class planner keeps transitioning.
        spread = SynthConfig(class_speed_range={
            "Rickshaw": (5, 5), "Trucks": (20, 20), "Vehicles": (25, 25),
            "LCV": (40, 40), "Motor Cycle": (45, 45), "Buses": (48, 48),
            "Cars": (60, 60),
        })
        pair_bearing_streams = 0
        for size_index, size in enumerate(SIZES):
            scaled = scale_class_counts(raw, size)
            counts = []
            for run in range(runs_per_size):
                seed = combine_seed(555_0001, size_index, run)
                stream = synthesize_stream(scaled, spread, seed)
                part1 = simulate_part1(stream).transition_count
                if brute_pair_count(stream) > 0:
                    pair_bearing_streams += 1
                    assert part1 > 0, (size, run)
                assert simulate_part2(stream, 7).transition_count == 0, (size, run)
                assert simulate_part2(stream, 7, "literal").transition_count == 0
                counts.append(part1)
            part1_means.append(sum(counts) / len(counts))
        assert pair_bearing_streams > 0
        assert all(m > 0 for m in part1_means)

    announce(True, label,
             f"class planner still averages {part1_means[0]:.1f}–{part1_means[-1]:.1f}")

    # Default (non-degenerate) configuration: report the gap, assert nothing.
    result, _ = _default_ensemble()
    m1 = sum(result.stats["part1"][s].mean for s in SIZES) / len(SIZES)
    m2 = sum(result.stats["part2"][s].mean for s in SIZES) / len(SIZES)
    info(f"default config: part1 mean {m1:.2f}, part2 mean {m2:.2f}, "
         f"relative difference {(m1 - m2) / m1:.2%} (reported, not asserted)")


# --- 8/8 ------------------------------------------------------------------


def test_cli_pipeline_is_byte_reproducible(announce, tmp_path):
    label = "8/8 sample→simulate→compare CLI pipeline is byte-reproducible"
    outputs = ("vehicles.csv", "part1.json", "part2.json",
               "compare.csv", "compare.json", "compare.svg")

    def pipeline(workdir):
        workdir.mkdir()
        vehicles = workdir / "vehicles.csv"
        assert main(["sample", "--n", "20", "--seed", "42",
                     "--out", str(vehicles)]) == EXIT_OK
        for algo in ("part1", "part2"):
            assert main(["simulate", "--algo", algo, "--input", str(vehicles),
                         "--out", str(workdir / f"{algo}.json")]) == EXIT_OK
        assert main(["compare", "--sizes", "10,20", "--runs", "2",
                     "--base-seed", "7", "--out-dir", str(workdir)]) == EXIT_OK
        return {name: (workdir / name).read_bytes() for name in outputs}

    with verdict_on_failure(announce, label):
        first = pipeline(tmp_path / "first")
        second = pipeline(tmp_path / "second")
    identical = [name for name in outputs if first[name] == second[name]]
    ok = len(identical) == len(outputs)
    announce(ok, label, f"{len(identical)}/{len(outputs)} files identical")
    assert identical == list(outputs)
