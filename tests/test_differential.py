"""The integer planners against the pairwise reference oracle.

A seeded corpus of small streams covers integer, one- and two-decimal and
mixed speeds, integer speeds beside their float twins (35 and 35.0), equal
arrivals and arrivals out of input order, lane budgets 1-7, both counting
modes and both interior preferences.  Reports must render to the same bytes,
knowledge bases must hold the same lanes and bookkeeping, and failures must
raise the same exception with the same message.
"""

from __future__ import annotations

import random

import reference_planners as ref
from laneflow import VehicleRecord, render_report
from laneflow import part1, part2

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
    return (
        [(lane.index, repr(lane.buffer), lane.average, type(lane.average)) for lane in kb.lanes],
        kb.budget,
        kb.formation_cursor,
        kb.assigned,
    )


def rendered(result):
    kind, value = result
    return (kind, render_report(value)) if kind == "ok" else result


def test_reports_match_the_reference():
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        budget = 1 + seed % 7
        # the interior preference only shapes events; literal mode takes one per stream
        literal = ("literal", ("lower", "upper")[seed % 2])
        for mode, interior in (("event", "lower"), ("event", "upper"), literal):
            args = (vehicles, mode, interior)
            assert rendered(outcome(part1.simulate_part1, *args)) == rendered(
                outcome(ref.simulate_part1, *args)
            ), (seed, mode, interior)
            args = (vehicles, budget, mode, interior)
            assert rendered(outcome(part2.simulate_part2, *args)) == rendered(
                outcome(ref.simulate_part2, *args)
            ), (seed, budget, mode, interior)


def test_pairs_match_the_reference():
    for seed in range(STREAMS):
        vehicles = corpus_stream(seed)
        lane_of = {v.id: (i * 7 + seed) % 3 + 1 for i, v in enumerate(vehicles)}
        got = [(p.slow, p.fast, p.lane) for p in part1._enumerate_pairs(vehicles, lane_of)]
        want = [(p.slow, p.fast, p.lane) for p in ref.enumerate_pairs(vehicles, lane_of)]
        assert got == want, seed


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
        (kb, assignment), (ref_kb, ref_assignment) = got[1], want[1]
        assert kb_view(kb) == kb_view(ref_kb), seed
        assert assignment == ref_assignment, seed


def test_stepwise_assignment_matches_the_reference():
    for seed in range(0, STREAMS, 4):
        vehicles = corpus_stream(seed)
        budget = 1 + seed % 7
        kb, ref_kb = part2.kb_new(budget), ref.kb_new(budget)
        for v in sorted(vehicles, key=lambda v: v.arrival):
            kb, lane = part2.kb_assign(kb, v)
            ref_kb, ref_lane = ref.kb_assign(ref_kb, v)
            assert lane == ref_lane, seed
            assert kb_view(kb) == kb_view(ref_kb), seed


def test_bad_budgets_fail_like_the_reference():
    vehicles = corpus_stream(3)
    for budget in (0, -1, True, 2.0):
        assert outcome(part2.assign_stream, vehicles, budget) == outcome(
            ref.assign_stream, vehicles, budget
        )
    assert outcome(part2.assign_stream, [], 2) == outcome(ref.assign_stream, [], 2)
    no_room = outcome(part2.kb_assign, part2.KnowledgeBase(lanes=(), budget=0), vehicles[0])
    assert no_room == outcome(ref.kb_assign, ref.KnowledgeBase(lanes=(), budget=0), vehicles[0])
