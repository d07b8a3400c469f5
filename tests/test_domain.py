"""Speed classification, record validation, and the vehicle file format."""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from laneflow import (
    EmptyStream,
    ParseError,
    SpeedClass,
    SpeedOutOfModel,
    VehicleRecord,
    classify_speed,
    parse_vehicle_file,
    render_vehicle_file,
)
from laneflow.domain import read_csv

BANDS = {
    SpeedClass.A: range(1, 11),
    SpeedClass.B: range(11, 31),
    SpeedClass.C: range(31, 46),
    SpeedClass.D: range(46, 51),
    SpeedClass.E: range(51, 101),
}


def test_classify_known_speeds():
    assert classify_speed(10) is SpeedClass.A
    assert classify_speed(46) is SpeedClass.D
    assert classify_speed(100) is SpeedClass.E


def test_classify_rejects_out_of_model():
    for bad in (0, -3, 101, 150, 0.0, 101.0):
        with pytest.raises(SpeedOutOfModel):
            classify_speed(bad)


def test_classify_integer_bands_are_disjoint_and_total():
    for cls, band in BANDS.items():
        for v in band:
            assert classify_speed(v) is cls


def test_classify_overlap_edges_take_the_earlier_band():
    # The bands are open intervals that overlap on (10,11), (30,31),
    # (45,46) and (50,51); the first match wins there.
    assert classify_speed(10.5) is SpeedClass.A
    assert classify_speed(30.5) is SpeedClass.B
    assert classify_speed(45.5) is SpeedClass.C
    assert classify_speed(50.5) is SpeedClass.D
    assert classify_speed(100.5) is SpeedClass.E
    # the float neighbours of the upper edges 11, 31, 51 and 101
    assert classify_speed(10.999999999999998) is SpeedClass.A
    assert classify_speed(11.000000000000002) is SpeedClass.B
    assert classify_speed(30.999999999999996) is SpeedClass.B
    assert classify_speed(50.99999999999999) is SpeedClass.D
    assert classify_speed(100.99999999999999) is SpeedClass.E


def test_classify_fractions_follow_their_integer_floor():
    for k in range(1, 100):
        base = classify_speed(k)
        for frac in (0.1, 0.5, 0.9):
            assert classify_speed(k + frac) is base, k + frac


def test_classes_are_ordered():
    assert SpeedClass.A < SpeedClass.B < SpeedClass.C < SpeedClass.D < SpeedClass.E


def test_vehicle_record_validation():
    v = VehicleRecord(id="x", speed=30, arrival=0)
    assert v.speed_class is SpeedClass.B
    with pytest.raises(ValueError):
        VehicleRecord(id="", speed=30, arrival=0)
    with pytest.raises(SpeedOutOfModel):
        VehicleRecord(id="x", speed=0, arrival=0)
    with pytest.raises(SpeedOutOfModel):
        VehicleRecord(id="x", speed=101, arrival=0)
    with pytest.raises(ValueError):
        VehicleRecord(id="x", speed=30, arrival=-1)
    with pytest.raises(ValueError):
        VehicleRecord(id="x", speed=30, arrival=1.5)
    with pytest.raises(ValueError):
        VehicleRecord(id="x", speed=30, arrival=True)


@pytest.mark.parametrize(
    "speed", [Fraction(71, 2), Decimal("35.5"), "35", True], ids=lambda speed: type(speed).__name__
)
def test_a_speed_that_is_not_an_int_or_a_float_is_refused(speed):
    # checked before the range, so "35" is not compared and True is not read as 1 km/h
    message = f"^vehicle 'x': speed must be an int or a float, not {type(speed).__name__}$"
    with pytest.raises(ValueError, match=message):
        VehicleRecord(id="x", speed=speed, arrival=0)


def test_parse_round_trip():
    vehicles = [
        VehicleRecord(id="v1", speed=35, arrival=0),
        VehicleRecord(id="v2", speed=45.5, arrival=1),
        VehicleRecord(id="v3", speed=5, arrival=2),
        VehicleRecord(id="v4", speed=5e-05, arrival=3),  # str() would give exponent form
    ]
    text = render_vehicle_file(vehicles)
    assert text.splitlines()[0] == "id,speed,arrival"
    parsed = parse_vehicle_file(text)
    assert parsed == vehicles
    assert isinstance(parsed[0].speed, int)
    assert isinstance(parsed[1].speed, float)
    # an inner space reads back; a comma, a line break (U+2028 is one to
    # str.splitlines) or surrounding whitespace would not
    inner = [VehicleRecord(id="a b", speed=10, arrival=0)]
    assert parse_vehicle_file(render_vehicle_file(inner)) == inner
    for bad in ("a,b", "a\u2028b", " x"):
        with pytest.raises(ValueError, match=re.escape(f"vehicle id {bad!r}")):
            render_vehicle_file([VehicleRecord(id=bad, speed=10, arrival=0)])


def test_parse_flags_positions():
    with pytest.raises(ParseError) as err:
        parse_vehicle_file("id,speed,arrival\nv1,35,0\nv2,fast,1\n")
    assert err.value.line == 3
    assert err.value.column == 2
    assert "line 3" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_vehicle_file("id,speed,arrival\nv1,35,soon\n")
    assert err.value.line == 2
    assert err.value.column == 3

    with pytest.raises(ParseError) as err:
        parse_vehicle_file("\nid,speed,arrival\n\nv1,35,0,9\n")
    assert (err.value.line, err.value.column) == (4, 1)

    with pytest.raises(ParseError, match="^empty vehicle id") as err:
        parse_vehicle_file("id,speed,arrival\n,10,0\n")
    assert (err.value.line, err.value.column) == (2, 1)


@pytest.mark.parametrize("text", ["10.99999999999999999", "35.00000000000000001", "100.99999999999999999"])
def test_a_speed_a_float_cannot_hold_is_refused_at_its_cell(text):
    with pytest.raises(ParseError) as err:
        parse_vehicle_file(f"id,speed,arrival\nv1,35,0\nv2,{text},1\n")
    assert str(err.value) == f"speed {text!r} has more digits than a float holds (line 3, column 2)"


@pytest.mark.parametrize("text", ["35.30", "0.00001", "0.30000000000000004", "100.99"])
def test_a_speed_a_float_holds_keeps_its_written_value(text):
    [vehicle] = parse_vehicle_file(f"id,speed,arrival\nv1,{text},0\n")
    assert Decimal(repr(vehicle.speed)) == Decimal(text)


def test_parse_structure_errors():
    with pytest.raises(ParseError):
        parse_vehicle_file("")
    with pytest.raises(ParseError):
        parse_vehicle_file("speed,id,arrival\n1,2,3\n")
    with pytest.raises(ParseError):
        parse_vehicle_file("id,speed,arrival\nv1,35\n")
    with pytest.raises(ParseError):
        parse_vehicle_file("id,speed,arrival\nv1,35,0\nv1,40,1\n")
    with pytest.raises(ParseError):
        parse_vehicle_file("id,speed,arrival\nv1,inf,0\n")
    with pytest.raises(EmptyStream):
        parse_vehicle_file("id,speed,arrival\n")


def test_parse_skips_blank_lines_and_strips_spaces():
    parsed = parse_vehicle_file("id,speed,arrival\n\n v1 , 35 , 0 \n\nv2,40,1\n")
    assert [v.id for v in parsed] == ["v1", "v2"]
    assert parse_vehicle_file("\n  \nid,speed,arrival\nv1,35,0\n") == parse_vehicle_file("id,speed,arrival\nv1,35,0\n")


def test_read_csv_yields_file_lines_and_refuses_ragged_rows():
    assert list(read_csv("\n a , b \n\n1,2\n", "test")) == [(2, ["a", "b"]), (4, ["1", "2"])]
    for text in ("", "\n \n"):
        with pytest.raises(ParseError, match="empty test file"):
            list(read_csv(text, "test"))
    with pytest.raises(ParseError, match=r"expected 2 cells, got 1 \(line 3, column 1\)"):
        list(read_csv("a,b\n1,2\n3\n", "test"))


def test_parse_rejects_model_violations_with_model_error():
    with pytest.raises(SpeedOutOfModel):
        parse_vehicle_file("id,speed,arrival\nv1,150,0\n")
    with pytest.raises(ParseError):
        parse_vehicle_file("id,speed,arrival\nv1,50,-1\n")
