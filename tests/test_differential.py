"""The integer planners against the pairwise reference oracle.

A seeded corpus of small streams covers integer, one- and two-decimal and
mixed speeds, integer speeds beside their float twins (35 and 35.0), equal
arrivals and arrivals out of input order, lane budgets 1-7, both counting
modes and both interior preferences.  Reports must render to the same bytes,
part2's lane map must give the same assignment and each lane the same speeds
as the oracle's knowledge base, and failures must raise the same exception
with the same message.  Transition events, reports and lane plans carry no
checks of their own, so their invariants are asserted here on every report
and plan the corpus produces, together with the default part2 budget, which
must be the plan's lane count.  The literal kernel, part1.literal_count, is
held to the oracle's literal count on the corpus under other lane maps as
well.  Both counting kernels are also held to the oracle's per-pair closed
forms on every integer pair of the grid that acceptance check 3/8 walks, and
on decimal speeds.  The report writer is held to its spec,
canonical_json(report_to_dict(report)), on every report the corpus gives.  part1.common_scale is held to the exact rule it shortcuts
for integer speeds, on every stream of the corpus.  Nothing the planners,
the writer or an ensemble build may form a reference cycle, since the CLI
runs each command with the cyclic garbage collector paused.  Then relations
between two runs of the program itself, which need no reference: shifting
every arrival, or dividing every speed by ten, must not change a decision,
and a planner's literal count lies between Σticks − E and Σticks of its event
run (E events).  Last, every stream of up to three vehicles over a small
alphabet of speeds and arrivals is held to the oracle in every mode.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
from collections import Counter

import pytest

import reference_planners as ref
from conftest import collector_paused, lane_speeds, literal_count_of, make_stream
from laneflow import (
    EnsembleSpec, PlanHasNoAdjacentLane, SynthConfig, VehicleRecord, canonical_json, render_report,
    run_compare,
)
from laneflow.domain import ALGORITHMS, COUNTING_MODES, INTERIORS, TransitionEvent
from laneflow import part1, part2
from laneflow.refdata import load_token_samples

STREAMS = 1000
KINDS = ("integer", "one-decimal", "two-decimal", "mixed", "twins")


def corpus_stream(seed: int) -> list[VehicleRecord]:
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]

    def speed():
        if kind == "integer":
            return rng.randint(1, 100)
        if kind == "one-decimal":
            return rng.randint(1, 1009) / 10
        if kind == "two-decimal":
            return rng.randint(1, 10099) / 100
        if kind == "mixed":
            return rng.choice((rng.randint(1, 100), rng.randint(1, 1009) / 10,
                               rng.randint(1, 10099) / 100))
        whole = rng.randint(1, 100)
        return rng.choice((whole, float(whole)))

    # a small pool makes speeds repeat, so the exact rule fires
    pool = [speed() for _ in range(rng.randint(1, 12))]
    if kind == "twins":
        pool += [float(s) if isinstance(s, int) else int(s) for s in pool]
    n = rng.randint(1, 30)
    if seed % 2:
        arrivals = [rng.randint(0, 20) for _ in range(n)]  # out of order, with ties
    else:
        arrivals, tick = [], 0
        for _ in range(n):
            tick += rng.choice((0, 0, 1, 3))
            arrivals.append(tick)
    vehicles = [VehicleRecord(f"v{i + 1}", rng.choice(pool), a) for i, a in enumerate(arrivals)]
    if seed % 97 == 0:
        vehicles.append(VehicleRecord("v1", rng.choice(pool), 0))  # duplicate id
    return vehicles


def outcome(fn, *args):
    """What a call produced: its value, or the exception type and message."""
    try:
        return "ok", fn(*args)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return type(err).__name__, str(err)


def kb_view(kb):
    return [(lane.index, repr(lane.buffer)) for lane in kb.lanes]


def lane_map_view(vehicles, lane_of, lane_count):
    """kb_view of the lanes a lane map describes."""
    return [(lane, repr(speeds)) for lane, speeds in lane_speeds(vehicles, lane_of, lane_count).items()]


def rendered(result):
    kind, value = result
    return (kind, render_report(value)) if kind == "ok" else result


def check_events(result, where):
    """The invariants count_transitions keeps for every event it makes."""
    kind, report = result
    if kind != "ok":
        return
    for event in report.events:
        # a plain tuple would compare equal, but report_to_dict reads the field names
        assert type(event) is TransitionEvent, (where, event)
        assert abs(event.from_lane - event.to_lane) == 1, (where, event)
        assert 1 <= event.from_lane <= report.lane_count, (where, event)
        assert 1 <= event.to_lane <= report.lane_count, (where, event)
        assert event.catch_up_ticks >= 1, (where, event)


def check_plan(vehicles, seed):
    """build_lane_plan numbers lanes 1..lane_count, one speed class each, and
    budget_from_part1 gives its lane count."""
    kind, plan = outcome(part1.build_lane_plan, vehicles)
    if kind != "ok":
        return
    lane_of, lane_count = plan
    lane_class = {}
    for v in vehicles:
        lane_class.setdefault(lane_of[v.id], v.speed_class)
    assert sorted(lane_class) == list(range(1, lane_count + 1)), seed
    assert len(set(lane_class.values())) == lane_count, seed
    for v in vehicles:
        assert lane_class[lane_of[v.id]] == v.speed_class, (seed, v)
    assert part2.budget_from_part1(vehicles) == lane_count, seed


def test_budget_is_the_plan_lane_count_at_the_band_edges():
    # a decimal just past an integer band edge falls in the lower band
    speeds = (10, 10.5, 30, 30.5, 45, 45.5, 50, 50.5)
    vehicles = [VehicleRecord(f"v{i + 1}", s, i) for i, s in enumerate(speeds)]
    assert part2.budget_from_part1(vehicles) == part1.build_lane_plan(vehicles)[1] == 4


def test_budget_and_plan_refuse_the_empty_stream_alike():
    refused = outcome(part1.build_lane_plan, [])
    assert refused[0] == "EmptyStream"
    assert outcome(part2.budget_from_part1, []) == refused


def check_against_reference(vehicles, budgets, runs, where):
    """part1, and part2 at each budget, give the oracle's rendered report or
    refusal on vehicles in each (mode, interior) run; returns how often each
    outcome kind occurred."""
    planners = [(part1.simulate_part1, ref.simulate_part1, ())]
    planners += [(part2.simulate_part2, ref.simulate_part2, (budget,)) for budget in budgets]
    kinds = Counter()
    for program, reference, budget in planners:
        for mode, interior in runs:
            args = (vehicles, *budget, mode, interior)
            got = outcome(program, *args)
            check_events(got, (where, *args[1:]))
            want = rendered(outcome(reference, *args))
            assert rendered(got) == want, (where, program.__module__, *args[1:])
            kinds[got[0]] += 1
    return kinds


def test_reports_match_the_reference():
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        check_plan(vehicles, seed)
        # the interior preference only shapes events; literal mode takes one per stream
        runs = (("event", "lower"), ("event", "upper"), ("literal", INTERIORS[seed % 2]))
        check_against_reference(vehicles, (1 + seed % 7,), runs, seed)


def corpus_reports():
    """(where, report) for every report both planners give on the corpus, in
    both counting modes and with both interior preferences."""
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        budget = 1 + seed % 7
        for mode in COUNTING_MODES:
            for interior in INTERIORS:
                for algorithm, (kind, report) in (
                    ("part1", outcome(part1.simulate_part1, vehicles, mode, interior)),
                    ("part2", outcome(part2.simulate_part2, vehicles, budget, mode, interior)),
                ):
                    if kind == "ok":
                        yield (seed, algorithm, mode, interior), report


def test_writer_matches_its_spec_on_the_corpus():
    events = 0
    for where, report in corpus_reports():
        assert render_report(report) == canonical_json(ref.report_to_dict(report)), where
        events += len(report.events)
    assert events > 10_000  # most reports carry events, not just empty lists


def test_reports_keep_their_invariants_on_the_corpus():
    """SimulationReport checks nothing itself; its two builders keep these."""
    literal = 0
    for where, report in corpus_reports():
        assert report.algorithm in ALGORITHMS and report.algorithm == where[1], where
        assert report.counting_mode in COUNTING_MODES and report.counting_mode == where[2], where
        assert report.transition_count >= 0, where
        if report.counting_mode == "event":
            assert report.transition_count == len(report.events), where
        else:
            assert report.events == (), where
            literal += report.transition_count > 0
    assert literal > 1000  # literal counts are not all zero


def test_planners_writer_and_ensembles_leave_no_reference_cycles():
    """cli.main pauses the cyclic collector, so reference counting alone must
    free every report, rendered text, refusal and ensemble result."""
    counts = load_token_samples().usable_counts("1")
    gc.collect()
    with collector_paused():
        reports = 0
        for _, report in corpus_reports():
            render_report(report)
            reports += 1
        for mode in COUNTING_MODES:
            run_compare(EnsembleSpec((20, 25), 2, 0, mode, counts, SynthConfig()))
        del report
        found = gc.collect()
    assert reports > 7000  # both planners, both modes, both interiors
    assert found == 0


def exact_scale(speeds):
    """The exact rule: each distinct speed as exact(speed) * L, L the lcm of
    the exact denominators."""
    exacts = {s: ref.exact(s) for s in set(speeds)}
    scale = math.lcm(1, *(q.denominator for q in exacts.values()))
    return {s: int(q * scale) for s, q in exacts.items()}, scale


def check_scale(speeds, where):
    got, want = part1.common_scale(speeds), exact_scale(speeds)
    assert got == want, where
    # 35 == 35.0 == True, so equal maps could still differ in a key's or a value's type
    assert [(type(k), type(v)) for k, v in got[0].items()] == [(type(k), int) for k in want[0]], where


def test_integer_scale_matches_the_exact_rule():
    integer_streams = 0
    for seed in range(STREAMS):
        speeds = [v.speed for v in corpus_stream(seed)]
        integer_streams += all(type(s) is int for s in speeds)
        check_scale(speeds, seed)
    assert integer_streams >= STREAMS // len(KINDS)  # the int shortcut is taken
    for speeds in ([35, 35.0], [35.0, 35], [35, 35.0, 40, 40.0, 7], [35.0], [35], [True, 2], []):
        check_scale(speeds, speeds)


def test_decimal_scale_matches_the_exact_rule():
    # floats are read as the decimal of their repr, positional (35.3) and
    # exponent forms (5e-05) alike; both must give the exact rule's scale
    decimal_streams = 0
    for seed in range(STREAMS):
        speeds = [v.speed for v in corpus_stream(seed)]
        if any(type(s) is float for s in speeds):
            decimal_streams += 1
            check_scale(speeds, seed)
    assert decimal_streams >= 2 * STREAMS // len(KINDS)
    singles = [35.0, 0.1, 50.5, 100.99, 0.30000000000000004, 5e-05, 1e-07]
    for speeds in ([s] for s in singles):
        check_scale(speeds, speeds)
    for speeds in (singles, singles + [35, 7], [35, 35.0, 0.1], [35.0, 35, 1e-07], [2.5, 2.50, 97]):
        check_scale(speeds, speeds)
    scaled, scale = part1.common_scale([35, 35.0, 0.1])
    assert len(scaled) == 2 and scale == 10 and scaled[35] == 350


def test_pairs_match_the_reference():
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        lane_of = {v.id: (i * 7 + seed) % 3 + 1 for i, v in enumerate(vehicles)}
        got = part1.enumerate_overtake_pairs(vehicles, lane_of)
        want = ref.enumerate_pairs(vehicles, lane_of)
        assert [pair[:3] for pair in got] == [(p.slow, p.fast, p.lane) for p in want], seed
        assert [pair[3] for pair in got] == [ref.catch_up_ticks(p.kinematics()) for p in want], seed


def test_knowledge_base_matches_the_reference():
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        budget = 1 + seed % 7
        got = outcome(part2.assign_stream, vehicles, budget)
        want = outcome(ref.assign_stream, vehicles, budget)
        if want[0] != "ok":
            assert got == want, seed
            continue
        assert got[0] == "ok", (seed, got)
        (assignment, lane_count), (ref_kb, ref_assignment) = got[1], want[1]
        assert lane_count == ref_kb.lane_count, seed
        assert lane_map_view(vehicles, assignment, lane_count) == kb_view(ref_kb), seed
        assert assignment == ref_assignment, seed


def test_bad_budgets_fail_like_the_reference():
    vehicles = corpus_stream(3)
    for budget in (0, -1, True, 2.0):
        assert outcome(part2.assign_stream, vehicles, budget) == outcome(
            ref.assign_stream, vehicles, budget
        )
    assert outcome(part2.assign_stream, [], 2) == outcome(ref.assign_stream, [], 2)



def reference_literal_count(vehicles, lane_of, lane_count):
    return ref.count_transitions(ref.enumerate_pairs(vehicles, lane_of), lane_count, "literal")[0]


def check_literal_count(vehicles, lane_of, lane_count, where):
    got = outcome(literal_count_of, vehicles, lane_of, lane_count)
    assert got == outcome(reference_literal_count, vehicles, lane_of, lane_count), where


def test_literal_count_matches_the_reference():
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        lane_of = {v.id: (i * 7 + seed) % 3 + 1 for i, v in enumerate(vehicles)}
        check_literal_count(vehicles, lane_of, 3, seed)
        check_literal_count(vehicles, dict.fromkeys(lane_of, 1), 1, seed)


def test_literal_count_on_hand_picked_streams():
    streams = {
        "out of order": [(40, 5), (45, 9), (35, 2), (44, 0), (41, 7)],
        "equal arrivals": [(35, 3), (40, 3), (45, 3), (36, 4), (35, 4)],
        "twins": [(35, 0), (35.0, 1), (40, 2), (40.0, 0), (35, 2)],
        "decimal": [(35.3, 0), (35.5, 2), (45.5, 1), (0.3, 0), (0.4, 1), (99.99, 4)],
        "mixed": [(35, 0), (35.3, 1), (36, 1), (35.25, 3), (0.5, 0), (1, 4)],
    }
    for name, speed_arrivals in streams.items():
        vehicles = [VehicleRecord(f"v{i + 1}", s, a) for i, (s, a) in enumerate(speed_arrivals)]
        for lanes in (1, 2, 3):
            lane_of = {v.id: i % lanes + 1 for i, v in enumerate(vehicles)}
            check_literal_count(vehicles, lane_of, lanes, (name, lanes))


def test_single_lane_pair_that_counts_zero_still_raises():
    # equal arrivals: floor(5 * 0 / 2) = 0, yet a single lane cannot hold the pair
    vehicles = [VehicleRecord("slow", 5, 3), VehicleRecord("fast", 7, 3)]
    lane_of = {"slow": 1, "fast": 1}
    assert literal_count_of(vehicles, lane_of, 2) == 0
    with pytest.raises(PlanHasNoAdjacentLane):
        literal_count_of(vehicles, lane_of, 1)
    check_literal_count(vehicles, lane_of, 1, "floor 0")


def check_kernels_against_closed_forms(lanes):
    """Event ticks from one enumerate_overtake_pairs call over a stream with
    one lane per (slow, fast, heads) entry, which holds the slow vehicle at
    arrival 0 and a fast one at each head start (one common speed scale), and
    each (slow, fast, head) pair's literal count from literal_count on a
    two-vehicle stream of its own."""
    vehicles, lane_of = [], {}
    for lane, (s, f, heads) in enumerate(lanes, 1):
        members = [VehicleRecord(f"s{lane}", s, 0)] + [VehicleRecord(f"f{lane}@{h}", f, h) for h in heads]
        vehicles += members
        lane_of.update((v.id, lane) for v in members)
    triples = [(s, f, h) for s, f, heads in lanes for h in heads]
    pairs = part1.enumerate_overtake_pairs(vehicles, lane_of)
    both_in_lane_one = {"slow": 1, "fast": 1}
    for (s, f, h), (slow, fast, _, tick) in zip(triples, pairs, strict=True):
        assert (slow.speed, fast.speed, fast.arrival - slow.arrival) == (s, f, h), lane
        pair = ref.OvertakePair(s, f, h)
        assert tick == ref.catch_up_ticks(pair), (s, f, h)
        two = [VehicleRecord("slow", s, 0), VehicleRecord("fast", f, h)]
        literal = literal_count_of(two, both_in_lane_one, 2)
        assert literal == ref.literal_overtake_count(pair), (s, f, h)


def test_kernel_matches_the_closed_forms_on_the_full_grid():
    # the (slow, fast, head) grid on which acceptance check 3/8 holds the
    # closed forms to the tick loop
    grid = [(s, f, range(51)) for f in range(2, 101) for s in range(1, f)]
    assert len(grid) * 51 == 252_450
    check_kernels_against_closed_forms(grid)


def test_kernel_matches_the_closed_forms_on_decimal_speeds():
    rng = random.Random(353)
    speeds = [35, 35.3, 35.5, 45.5, 0.3, 0.4, 1.25, 99.99, 100]
    speeds += [rng.randint(1, 1009) / 10 for _ in range(20)]
    speeds += [rng.randint(1, 10099) / 100 for _ in range(20)]
    # a tenth of a km/h apart, and the decimal meets 0.3 / (0.4 - 0.3) = 3
    # and 35.5 / (45.5 - 35.5) that binary floats get wrong
    triples = [(35, 35.3, h) for h in range(51)] + [(0.3, 0.4, 1), (35.5, 45.5, 1)]
    for _ in range(3000):
        slow, fast = sorted(rng.sample(speeds, 2))
        if slow < fast:
            triples.append((slow, fast, rng.randint(0, 50)))
    check_kernels_against_closed_forms([(s, f, (h,)) for s, f, h in triples])


RELATION_STREAMS = 500  # about 2 s for the three relations


def relation_stream(seed: int) -> list[VehicleRecord]:
    """1-60 vehicles, integer speeds 1-100, arrivals 0-30 in any order."""
    rng = random.Random(seed)
    return [VehicleRecord(f"v{i + 1}", rng.randint(1, 100), rng.randint(0, 30))
            for i in range(rng.randint(1, 60))]


def tenths(vehicles):
    """The stream with every speed divided by 10: 35 becomes 3.5."""
    return [VehicleRecord(v.id, v.speed / 10, v.arrival) for v in vehicles]


def test_shifting_every_arrival_changes_no_report():
    refused = 0
    for seed in range(RELATION_STREAMS):
        vehicles = relation_stream(seed)
        shifted = [VehicleRecord(v.id, v.speed, v.arrival + 7) for v in vehicles]
        budget, interior = 1 + seed % 6, INTERIORS[seed % 2]
        for mode in COUNTING_MODES:
            for planner, args in ((part1.simulate_part1, (mode, interior)),
                                  (part2.simulate_part2, (budget, mode, interior))):
                want = rendered(outcome(planner, vehicles, *args))
                assert rendered(outcome(planner, shifted, *args)) == want, (seed, planner, mode)
                refused += want[0] != "ok"
    assert refused > 100  # refusals are compared too, not only reports


def test_dividing_every_speed_keeps_part2_counts_events_and_populations():
    def decisions(result):
        kind, report = result
        if kind != "ok":
            return result
        return report.transition_count, report.events, report.lane_population

    for seed in range(RELATION_STREAMS):
        vehicles = relation_stream(seed)
        budget = 1 + seed % 6
        for mode in COUNTING_MODES:
            want = decisions(outcome(part2.simulate_part2, vehicles, budget, mode))
            got = decisions(outcome(part2.simulate_part2, tenths(vehicles), budget, mode))
            assert got == want, (seed, budget, mode)


def test_dividing_every_speed_keeps_both_kernels_on_a_fixed_lane_map():
    def counts(stream, lane_of, lane_count, interior):
        pairs = part1.enumerate_overtake_pairs(stream, lane_of)
        return (outcome(part1.count_transitions, pairs, lane_count, interior),
                outcome(literal_count_of, stream, lane_of, lane_count))

    for seed in range(RELATION_STREAMS):
        vehicles = relation_stream(seed)
        lane_of, lane_count = part1.build_lane_plan(vehicles)  # held fixed for both streams
        interior = INTERIORS[seed % 2]
        want = counts(vehicles, lane_of, lane_count, interior)
        assert counts(tenths(vehicles), lane_of, lane_count, interior) == want, seed


BOUND_STREAMS = 600  # about 3 s
BOUND_PLANNERS = [(part1.simulate_part1, ())] + [(part2.simulate_part2, (budget,)) for budget in range(1, 6)]


def test_literal_count_lies_within_one_tick_per_event():
    # per pair, with x = s·head/gain, the event's catch-up tick is max(1, ⌈x⌉)
    # and the literal count adds ⌊x⌋, so each pair adds 0 or 1 to Σticks − literal
    lower = upper = 0
    for seed in range(BOUND_STREAMS):
        vehicles = make_stream(seed, max_n=120, float_share=0.5 if seed % 4 == 0 else 0.0)
        for planner, args in BOUND_PLANNERS:
            event = outcome(planner, vehicles, *args, "event")
            literal = outcome(planner, vehicles, *args, "literal")
            where = (seed, planner.__module__, args)
            if event[0] != "ok":
                assert literal == event, where
                continue
            ticks = sum(e.catch_up_ticks for e in event[1].events)
            count = literal[1].transition_count
            assert ticks - len(event[1].events) <= count <= ticks, where
            lower += count == ticks - len(event[1].events)
            upper += count == ticks
    assert lower > 0 and upper > 0  # the bound is tight on both sides


def test_every_small_stream_matches_the_reference():
    # n <= 3 over three class bands (A: 5, 10, 10.5; B: 20; C: 40), a decimal
    # speed and tied arrivals: every tie and band edge this alphabet can form
    records = [(s, a) for s in (5, 10, 10.5, 20, 40) for a in (0, 1, 2)]
    runs = list(itertools.product(COUNTING_MODES, INTERIORS))
    streams, kinds = 0, Counter()
    for n in (1, 2, 3):
        for picks in itertools.product(records, repeat=n):
            vehicles = [VehicleRecord(f"v{i + 1}", s, a) for i, (s, a) in enumerate(picks)]
            streams += 1
            kinds += check_against_reference(vehicles, (1, 2, 3), runs, picks)
    assert streams == 3615
    # refusals are compared too, not only reports, and nothing else is raised
    assert set(kinds) == {"ok", "PlanHasNoAdjacentLane"}
