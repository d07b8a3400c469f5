"""Catch-up math: closed forms against a tick-by-tick loop."""

from __future__ import annotations

import random

import pytest

from reference_planners import OvertakePair, catch_up_ticks, literal_overtake_count


def tick_loop(slow, fast, head):
    """Independent oracle: walk t1 = 1, 2, ... and watch the two distances.

    Returns (first tick the follower is level or ahead, number of ticks it
    spent at or behind).  The gap fast*t1 - slow*(head+t1) grows strictly
    each tick, so the loop stops at the first tick the follower is ahead.
    """
    t1 = 0
    caught = None
    behind = 0
    while True:
        t1 += 1
        d = slow * (head + t1)
        d1 = fast * t1
        if caught is None and d1 >= d:
            caught = t1
        if d1 <= d:
            behind += 1
        if d1 > d:
            return caught, behind


def test_chase_with_head_start():
    pair = OvertakePair(slow_speed=35, fast_speed=45, head_start=1)
    assert catch_up_ticks(pair) == 4
    assert literal_overtake_count(pair) == 3


def test_exact_meet_counts_as_caught():
    pair = OvertakePair(slow_speed=20, fast_speed=40, head_start=1)
    assert catch_up_ticks(pair) == 1
    assert literal_overtake_count(pair) == 1


def test_simultaneous_arrival_is_immediate():
    pair = OvertakePair(slow_speed=20, fast_speed=40, head_start=0)
    assert catch_up_ticks(pair) == 1
    assert literal_overtake_count(pair) == 0


def test_matches_tick_loop_on_small_grid():
    for slow in range(1, 26):
        for fast in range(slow + 1, 26):
            for head in range(0, 13):
                pair = OvertakePair(slow, fast, head)
                caught, behind = tick_loop(slow, fast, head)
                assert catch_up_ticks(pair) == caught, (slow, fast, head)
                assert literal_overtake_count(pair) == behind, (slow, fast, head)


def test_matches_tick_loop_near_top_speed():
    for slow in range(95, 100):
        for head in range(0, 51):
            pair = OvertakePair(slow, 100, head)
            caught, behind = tick_loop(slow, 100, head)
            assert catch_up_ticks(pair) == caught
            assert literal_overtake_count(pair) == behind


def test_caught_is_behind_plus_one_except_exact_division():
    for slow in range(1, 40):
        for fast in range(slow + 1, 41):
            for head in range(0, 8):
                pair = OvertakePair(slow, fast, head)
                caught = catch_up_ticks(pair)
                behind = literal_overtake_count(pair)
                num, den = slow * head, fast - slow
                if num % den == 0 and num // den >= 1:
                    assert caught == behind
                else:
                    assert caught == behind + 1


def test_monotone_in_each_argument():
    rng = random.Random(7)
    for _ in range(300):
        slow = rng.randint(1, 98)
        fast = rng.randint(slow + 1, 99)
        head = rng.randint(0, 40)
        base = catch_up_ticks(OvertakePair(slow, fast, head))
        assert catch_up_ticks(OvertakePair(slow, fast, head + 1)) >= base
        if slow + 1 < fast:
            assert catch_up_ticks(OvertakePair(slow + 1, fast, head)) >= base
        assert catch_up_ticks(OvertakePair(slow, fast + 1, head)) <= base


def test_decimal_speeds_are_exact():
    # 0.3 / (0.4 - 0.3) is exactly 3 in decimal; binary float subtraction
    # would land just below and floor to 2.
    pair = OvertakePair(slow_speed=0.3, fast_speed=0.4, head_start=1)
    assert catch_up_ticks(pair) == 3
    assert literal_overtake_count(pair) == 3

    pair = OvertakePair(slow_speed=35.5, fast_speed=45.5, head_start=1)
    assert catch_up_ticks(pair) == 4
    assert literal_overtake_count(pair) == 3


def test_pair_validation():
    with pytest.raises(ValueError):
        OvertakePair(slow_speed=40, fast_speed=40, head_start=1)
    with pytest.raises(ValueError):
        OvertakePair(slow_speed=50, fast_speed=40, head_start=1)
    with pytest.raises(ValueError):
        OvertakePair(slow_speed=30, fast_speed=40, head_start=-1)
