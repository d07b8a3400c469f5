"""Census table ingestion.

The input is comma-separated text: a header whose first column names the row
key (city, sample id, ...) and whose remaining columns are class labels, then
one row per entry.  Two markers appear in real registration tables:

    "-"  count not available; the row parses but is unusable for sampling
    "A"  the class was folded into the Cars column; it reads as 0

Anything else must be a non-negative integer in plain ASCII digits
(domain.parse_number); offenders raise ParseError with a 1-based line and
column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import parse_number, read_csv
from .errors import ParseError, RowUnusable
from .stats import ClassCountVector

MISSING_MARK = "-"
MERGED_MARK = "A"
_CENSUS_CELL = f"an integer, {MISSING_MARK!r} or {MERGED_MARK!r}"  # what a census count cell may hold


@dataclass(frozen=True)
class CensusRow:
    """One named row; counts hold None wherever the source cell was "-"."""

    name: str
    counts: tuple[int | None, ...]

    @property
    def usable(self) -> bool:
        return all(c is not None for c in self.counts)


@dataclass(frozen=True)
class CensusTable:
    labels: tuple[str, ...]
    rows: tuple[CensusRow, ...]

    def row(self, key: str | int) -> CensusRow:
        """Look up by exact name, else by 1-based index."""
        if isinstance(key, str):
            for row in self.rows:
                if row.name == key:
                    return row
            try:
                key = parse_number(key)
            except ValueError:
                raise KeyError(f"no census row named {key!r}") from None
        if not 1 <= key <= len(self.rows):
            raise KeyError(f"row index {key} outside 1..{len(self.rows)}")
        return self.rows[key - 1]

    def usable_counts(self, key: str | int) -> ClassCountVector:
        """Counts for a row, refusing rows with missing cells."""
        row = self.row(key)
        if not row.usable:
            raise RowUnusable(
                f"census row {row.name!r} has missing counts and cannot drive sampling"
            )
        return ClassCountVector(labels=self.labels, counts=tuple(c for c in row.counts if c is not None))


def _class_labels(header: list[str], lineno: int, first: int) -> tuple[str, ...]:
    """header[first:] as class labels; an empty or repeated label is refused
    at its column."""
    labels = tuple(header[first:])
    for i, label in enumerate(labels):
        if not label:
            raise ParseError("header has an empty class label", lineno, first + i + 1)
        if label in labels[:i]:
            raise ParseError(f"class label {label!r} is repeated", lineno, first + i + 1)
    return labels


def _count(cell: str, lineno: int, col: int, expected: str = "an integer") -> int:
    """A count cell: the integer grammar of domain.parse_number, then >= 0."""
    try:
        value = parse_number(cell)
    except ValueError:
        raise ParseError(f"count {cell!r} is not {expected}", lineno, col) from None
    if value < 0:
        raise ParseError("counts cannot be negative", lineno, col)
    return value


def parse_census(text: str) -> CensusTable:
    lines = read_csv(text, "census")
    header_line, header = next(lines)
    if len(header) < 2:
        raise ParseError(
            "census header needs a name column plus at least one class", header_line, 1
        )
    labels = _class_labels(header, header_line, 1)
    rows: list[CensusRow] = []
    seen: set[str] = set()
    for lineno, (name, *cells) in lines:
        if not name:
            raise ParseError("empty row name", lineno, 1)
        if name in seen:
            raise ParseError(f"duplicate row name {name!r}", lineno, 1)
        seen.add(name)
        counts: list[int | None] = []
        for col, cell in enumerate(cells, start=2):
            if cell == MISSING_MARK:
                counts.append(None)
            elif cell == MERGED_MARK:
                counts.append(0)
            else:
                counts.append(_count(cell, lineno, col, _CENSUS_CELL))
        rows.append(CensusRow(name=name, counts=tuple(counts)))
    if not rows:
        raise ParseError("census file has a header but no rows", header_line + 1, 1)
    return CensusTable(labels=labels, rows=tuple(rows))


def parse_counts_file(text: str) -> ClassCountVector:
    """Parse the two-line counts format: a label header and one count row."""
    lines = list(read_csv(text, "counts"))
    if len(lines) != 2:
        raise ParseError(
            f"expected a header line and one counts line, got {len(lines)} lines", lines[-1][0], 1
        )
    (header_line, header), (lineno, cells) = lines
    labels = _class_labels(header, header_line, 0)
    counts = tuple(_count(cell, lineno, col) for col, cell in enumerate(cells, start=1))
    return ClassCountVector(labels=labels, counts=counts)
