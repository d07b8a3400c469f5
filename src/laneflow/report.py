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

from .domain import SimulationReport, TransitionEvent


def event_to_dict(event: TransitionEvent) -> dict[str, Any]:
    return {
        "overtakerId": event.overtaker_id,
        "overtakenId": event.overtaken_id,
        "fromLane": event.from_lane,
        "toLane": event.to_lane,
        "catchUpTicks": event.catch_up_ticks,
    }


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    return {
        "algorithm": report.algorithm,
        "countingMode": report.counting_mode,
        "laneCount": report.lane_count,
        "transitionCount": report.transition_count,
        "events": [event_to_dict(e) for e in report.events],
        "laneAverageSpeed": {str(lane): float(avg) for lane, avg in report.lane_average_speed.items()},
        "lanePopulation": {str(lane): pop for lane, pop in report.lane_population.items()},
    }


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def render_report(report: SimulationReport) -> str:
    return canonical_json(report_to_dict(report))


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
