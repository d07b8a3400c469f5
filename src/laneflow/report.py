"""Canonical JSON rendering of simulation reports, and crash-safe output files.

Canonical means: keys sorted, compact separators, shortest round-trip float
rendering, no locale anywhere, trailing newline.  Serializing the same
report twice must yield identical bytes — downstream tooling diffs these
files directly.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any

from .domain import SimulationReport


def _report_fields(report: SimulationReport, events: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "algorithm": report.algorithm,
        "countingMode": report.counting_mode,
        "laneCount": report.lane_count,
        "transitionCount": report.transition_count,
        "events": events,
        "laneAverageSpeed": {str(lane): float(avg) for lane, avg in report.lane_average_speed.items()},
        "lanePopulation": {str(lane): pop for lane, pop in report.lane_population.items()},
    }


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    """The report as plain data; render_report must give canonical_json of it."""
    events = [
        {
            "overtakerId": e.overtaker_id,
            "overtakenId": e.overtaken_id,
            "fromLane": e.from_lane,
            "toLane": e.to_lane,
            "catchUpTicks": e.catch_up_ticks,
        }
        for e in report.events
    ]
    return _report_fields(report, events)


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class _Quoted(dict):
    """Vehicle id -> its JSON string literal, made by json.dumps on first use."""

    def __missing__(self, key: str) -> str:
        quoted = self[key] = json.dumps(key)
        return quoted


def render_report(report: SimulationReport) -> str:
    """canonical_json(report_to_dict(report)), without a dict per event.

    The event keys are fixed, so each event is one f-string with its keys in
    sorted order, and each vehicle id is quoted once.  The rest of the report
    goes through canonical_json with an empty event list, and the joined
    events take that list's place.
    """
    left, _, right = canonical_json(_report_fields(report, [])).partition('"events":[]')
    q = _Quoted()
    events = ",".join([
        f'{{"catchUpTicks":{ticks},"fromLane":{from_lane},"overtakenId":{q[overtaken]},'
        f'"overtakerId":{q[overtaker]},"toLane":{to_lane}}}'
        for overtaker, overtaken, from_lane, to_lane, ticks in report.events
    ])
    return f'{left}"events":[{events}]{right}'


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path so that path is either complete or untouched.

    The text goes to a temporary file in the same directory, which then
    replaces path in one rename; a failed write removes the temporary file.
    This guards against a failing or interrupted process, not against power
    loss: nothing is fsynced.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    # mode 0o666 lets the umask decide permissions, as for a plain open()
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
