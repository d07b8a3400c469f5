"""Bundled reference data: integrity and internal consistency."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from laneflow import ClassCountVector, parse_census, size_biased_expectation
from laneflow.errors import RowUnusable
from laneflow.refdata import load_token_samples

DATA = Path(__file__).with_name("data")

SAMPLE_LABELS = ("Cars", "Motor Cycle", "LCV", "Buses", "Trucks", "Vehicles", "Rickshaw")


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
    """Downscaled sample tables with their expectation column; cells that were
    reconstructed by scaling rather than transcribed carry their labels in the
    last column."""
    lines = (DATA / "sample_tables.csv").read_text(encoding="utf-8").splitlines()
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



def load_metro_registrations():
    """City vehicle registrations with "-" and "A" markers: the full census format."""
    return parse_census((DATA / "metro_registrations.csv").read_text(encoding="utf-8"))


def load_dispersion_reference():
    """Standard-deviation series kept as reference data only; nothing computes them."""
    lines = (DATA / "dispersion_reference.csv").read_text(encoding="utf-8").splitlines()
    return tuple(
        (int(size), float(value))
        for size, value in (line.split(",") for line in lines[1:])
    )

ROW_1 = (840, 895, 268, 209, 2855, 3014, 551)


class TestTokenSamples:
    def test_shape(self):
        table = load_token_samples()
        assert table.labels == SAMPLE_LABELS
        assert len(table.rows) == 10
        assert [r.name for r in table.rows] == [f"S{i}" for i in range(1, 11)]

    def test_first_row_values(self):
        table = load_token_samples()
        counts = table.usable_counts("S1")
        assert counts.counts == ROW_1
        assert counts.total == 8632

    def test_every_row_is_usable(self):
        table = load_token_samples()
        for i in range(1, 11):
            assert table.usable_counts(i).total > 0


class TestMetroRegistrations:
    def test_shape(self):
        table = load_metro_registrations()
        assert len(table.labels) == 12
        assert len(table.rows) == 23
        assert table.labels[0] == "All Vehicles"

    def test_missing_cells_block_sampling(self):
        table = load_metro_registrations()
        with pytest.raises(RowUnusable):
            table.usable_counts("Calcutta")

    def test_merged_cell_reads_as_zero(self):
        table = load_metro_registrations()
        delhi = table.row("Delhi")
        jeeps = table.labels.index("Jeeps")
        assert delhi.counts[jeeps] == 0
        assert delhi.counts[table.labels.index("Cars")] == 633852

    def test_clean_row_round_trips(self):
        table = load_metro_registrations()
        mumbai = table.row("Mumbai")
        assert mumbai.counts[table.labels.index("Three Wheelers Goods")] == 25327
        assert mumbai.counts[table.labels.index("Taxis")] == 44842
        assert mumbai.usable


class TestSampleTables:
    def test_shape(self):
        rows = load_sample_tables()
        assert len(rows) == 50
        assert sorted({r.sample_size for r in rows}) == [20, 25, 30, 40, 50]
        for size in (20, 25, 30, 40, 50):
            assert sum(1 for r in rows if r.sample_size == size) == 10

    def test_labels_everywhere(self):
        for row in load_sample_tables():
            assert row.counts.labels == SAMPLE_LABELS

    def test_expectation_column_is_self_consistent(self):
        # the stored expectation must match recomputation from the stored counts
        for row in load_sample_tables():
            recomputed = size_biased_expectation(row.counts.counts, row.sample_size)
            assert recomputed == pytest.approx(row.expectation, abs=5e-3), (
                row.sample_size,
                row.row,
            )

    def test_reconstruction_flags(self):
        rows = load_sample_tables()
        for row in rows:
            if row.sample_size == 50:
                assert row.reconstructed == {"Cars", "Motor Cycle"}
            else:
                assert row.reconstructed == frozenset()

    def test_transcribed_cells_drop_reconstructed_labels(self):
        rows = load_sample_tables()
        full = next(r for r in rows if r.sample_size == 20)
        assert len(full.transcribed_cells()) == 7
        partial = next(r for r in rows if r.sample_size == 50)
        cells = partial.transcribed_cells()
        assert len(cells) == 5
        assert all(label not in ("Cars", "Motor Cycle") for label, _ in cells)

    def test_known_row(self):
        rows = load_sample_tables()
        target = next(r for r in rows if r.sample_size == 20 and r.row == 1)
        assert target.counts.counts == (2, 2, 1, 0, 7, 7, 1)
        assert target.expectation == pytest.approx(5.4)


class TestDispersionReference:
    def test_shape(self):
        entries = load_dispersion_reference()
        assert len(entries) == 50
        for size in (20, 25, 30, 40, 50):
            assert sum(1 for s, _ in entries if s == size) == 10

    def test_values_positive(self):
        assert all(value > 0 for _, value in load_dispersion_reference())
