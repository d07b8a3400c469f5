"""Census table parsing: markers, lookups, and position-carrying errors."""

from __future__ import annotations

import pytest

from laneflow import ParseError, RowUnusable, parse_census, parse_counts_file

SMALL = """city,Cars,Buses,Taxis
Springfield,120,30,12
Shelbyville,-,25,9
Ogdenville,200,A,40
"""


def test_numeric_rows_parse_exactly():
    table = parse_census(SMALL)
    assert table.labels == ("Cars", "Buses", "Taxis")
    row = table.row("Springfield")
    assert row.counts == (120, 30, 12)
    assert row.usable


def test_missing_marker_flags_row_unusable():
    table = parse_census(SMALL)
    row = table.row("Shelbyville")
    assert not row.usable
    assert row.counts == (None, 25, 9)
    with pytest.raises(RowUnusable):
        table.usable_counts("Shelbyville")


def test_merge_marker_reads_as_zero():
    table = parse_census(SMALL)
    row = table.row("Ogdenville")
    assert row.usable
    assert row.counts == (200, 0, 40)
    counts = table.usable_counts("Ogdenville")
    assert counts.counts == (200, 0, 40)


def test_lookup_by_index_and_name():
    table = parse_census(SMALL)
    assert table.row(1).name == "Springfield"
    assert table.row("2").name == "Shelbyville"
    assert table.row(3) is table.row("Ogdenville")
    with pytest.raises(KeyError):
        table.row("Atlantis")
    with pytest.raises(KeyError):
        table.row(0)
    with pytest.raises(KeyError):
        table.row(4)


def test_bad_cell_reports_line_and_column():
    text = "city,Cars,Buses\nSpringfield,12,thirty\n"
    with pytest.raises(ParseError) as err:
        parse_census(text)
    assert err.value.line == 2
    assert err.value.column == 3


def test_negative_count_rejected():
    with pytest.raises(ParseError):
        parse_census("city,Cars\nSpringfield,-4\n")


def test_column_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_census("city,Cars,Buses\nSpringfield,12\n")
    assert err.value.line == 2


def test_duplicate_row_name_rejected():
    with pytest.raises(ParseError):
        parse_census("city,Cars\nSpringfield,1\nSpringfield,2\n")


def test_structural_errors():
    with pytest.raises(ParseError):
        parse_census("")
    with pytest.raises(ParseError):
        parse_census("justonecolumn\n")
    with pytest.raises(ParseError):
        parse_census("city,Cars\n")
    with pytest.raises(ParseError) as err:
        parse_census("\ncity,Cars,,Buses\nSpringfield,1,2,3\n")
    assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(ParseError) as err:
        parse_census("\ncity,Cars\n\nSpringfield,1,2\n")
    assert (err.value.line, err.value.column) == (4, 1)
    with pytest.raises(ParseError, match="^empty row name") as err:
        parse_census("city,Cars,Buses\n,10,20\n")
    assert (err.value.line, err.value.column) == (2, 1)
    # a label keys its speed.<Label> config line, so a repeat would be ambiguous
    with pytest.raises(ParseError, match="^class label 'Cars' is repeated") as err:
        parse_census("city,Cars,Buses,Cars\nX,10,20,30\n")
    assert (err.value.line, err.value.column) == (1, 4)


def test_blank_lines_are_skipped():
    table = parse_census("city,Cars\n\nSpringfield,5\n\n")
    assert len(table.rows) == 1
    assert parse_census("\n \n" + SMALL) == parse_census(SMALL)
    assert parse_counts_file("\n\nCars,Buses\n\n12,3\n") == parse_counts_file("Cars,Buses\n12,3\n")


def test_counts_file_round_trip():
    counts = parse_counts_file("Cars,Buses\n12,3\n")
    assert counts.labels == ("Cars", "Buses")
    assert counts.counts == (12, 3)


def test_counts_file_errors():
    with pytest.raises(ParseError):
        parse_counts_file("")
    with pytest.raises(ParseError):
        parse_counts_file("Cars,Buses\n12\n")
    with pytest.raises(ParseError):
        parse_counts_file("Cars\n12\n34\n")
    # positions are file lines, blank lines included; an empty or repeated label is refused
    # as in the census
    for text, line, column in [
        ("Cars,Buses\n12,-3\n", 2, 2),
        ("\nA,B\n\n1,x\n", 4, 2),
        ("A,B\n\n\n1,2,3\n", 4, 1),
        ("Cars,,Buses\n1,2,3\n", 1, 2),
        ("Cars,Cars\n10,20\n", 1, 2),
        ("\nBuses,Cars,Buses\n1,2,3\n", 2, 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_counts_file(text)
        assert (err.value.line, err.value.column) == (line, column), text
