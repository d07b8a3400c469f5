"""Canonical JSON rendering of simulation reports, and crash-safe output files.

Canonical means: keys sorted, compact separators, shortest round-trip float
rendering, no locale anywhere, trailing newline.  Serializing the same
report twice must yield identical bytes — downstream tooling diffs these
files directly.
"""

from __future__ import annotations

import json
import operator
import os
from itertools import groupby
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path
from typing import Any

from .domain import SimulationReport


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


_RUN = operator.itemgetter(1, 2, 3)  # an event's (overtaken_id, from_lane, to_lane)


def render_report(report: SimulationReport) -> str:
    """The report as canonical JSON: the package's one report writer.

    Its spec is canonical_json(report_to_dict(report)), where report_to_dict
    (in tests/reference_planners.py) gives the report as plain data, one dict
    per event; this writer makes no dict per event.  The event keys are fixed
    and sorted, so an event reads
    {"catchUpTicks":T,"fromLane":F,"overtakenId":O,"overtakerId":R,"toLane":L}.
    Each run of events with one (O, F, L), which count_transitions emits per
    leader, formats its middle and tail once and joins into one string.  Each
    id is quoted by json.encoder.encode_basestring_ascii, the function
    json.dumps applies to a str by default (ensure_ascii=True), so escaping
    is json.dumps's.  The rest of the report, each lane average as a float,
    goes through canonical_json with an empty event list, and one join puts
    the runs in that list's place, so the text is built once from the runs'
    strings.
    """
    head = {
        "algorithm": report.algorithm,
        "countingMode": report.counting_mode,
        "laneCount": report.lane_count,
        "transitionCount": report.transition_count,
        "events": [],
        "laneAverageSpeed": {str(lane): float(avg) for lane, avg in report.lane_average_speed.items()},
        "lanePopulation": {str(lane): pop for lane, pop in report.lane_population.items()},
    }
    left, _, right = canonical_json(head).partition('"events":[]')
    parts = [left, '"events":[']
    lead = '{"catchUpTicks":'
    for (overtaken, from_lane, to_lane), run in groupby(report.events, _RUN):
        middle = f',"fromLane":{from_lane},"overtakenId":{quote(overtaken)},"overtakerId":'
        tail = f',"toLane":{to_lane}}}'
        parts += (lead, (tail + ',{"catchUpTicks":').join([
            f"{ticks}{middle}{quote(overtaker)}" for overtaker, _, _, _, ticks in run
        ]), tail)
        lead = ',{"catchUpTicks":'
    parts += ("]", right)
    return "".join(parts)


WRITE_SLICE = 1 << 16  # characters encoded and written at a time


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path so that path is either complete or untouched.

    The text goes to a temporary file in the same directory, which then
    replaces path in one rename; a failed write removes the temporary file.
    The text is encoded and written WRITE_SLICE characters at a time, so no
    encoded copy of the whole text is made.  This guards against a failing
    or interrupted process, not against power loss: nothing is fsynced.
    """
    path = Path(path)
    temp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"  # with_name refuses "" and "."
    # mode 0o666 lets the umask decide permissions, as for a plain open()
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), WRITE_SLICE):
                fh.write(text[start:start + WRITE_SLICE])
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
