"""Loaders for the reference data bundled with the package.

Two files ship under laneflow/data:

* token_samples.csv  ten raw per-class count rows (census format); the
                     default sampling source for the CLI
* sample_tables.csv  downscaled sample tables with their expectation column;
                     cells that were reconstructed by scaling rather than
                     transcribed carry their labels in the last column
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .census import CensusTable, parse_census
from .stats import ClassCountVector

SAMPLE_LABELS = ("Cars", "Motor Cycle", "LCV", "Buses", "Trucks", "Vehicles", "Rickshaw")


def _read(name: str) -> str:
    return resources.files("laneflow").joinpath("data", name).read_text(encoding="utf-8")


def load_token_samples() -> CensusTable:
    return parse_census(_read("token_samples.csv"))


@dataclass(frozen=True)
class SampleTableRow:
    """One row of the downscaled reference tables."""

    sample_size: int
    row: int  # 1-based within its table
    counts: ClassCountVector
    expectation: float
    reconstructed: frozenset[str]  # labels whose counts are reconstructed, not transcribed

    def transcribed_cells(self) -> list[tuple[str, int]]:
        return [
            (label, count)
            for label, count in zip(self.counts.labels, self.counts.counts)
            if label not in self.reconstructed
        ]


def load_sample_tables() -> tuple[SampleTableRow, ...]:
    lines = _read("sample_tables.csv").splitlines()
    header = lines[0].split(",")
    labels = tuple(header[2:9])
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            SampleTableRow(
                sample_size=int(cells[0]),
                row=int(cells[1]),
                counts=ClassCountVector(labels=labels, counts=tuple(int(c) for c in cells[2:9])),
                expectation=float(cells[9]),
                reconstructed=frozenset(cells[10].split("|")) if cells[10] else frozenset(),
            )
        )
    return tuple(rows)
