"""Flat key-value config parsing."""

from __future__ import annotations

import pytest

from laneflow import ConfigError, parse_config_text
from laneflow.cli import EXIT_PARSE, main

FULL = """
# synthesis
speed.Cars = 31-60
speed.Motor Cycle = 31-50
speed.Rickshaw = 7
arrival_gap_max = 4
seed = 12345

# ensemble
sizes = 20, 25, 30
runs_per_size = 10
base_seed = 99
counting_mode = literal
"""


def test_all_keys_parse():
    cfg = parse_config_text(FULL)
    assert cfg.speed_ranges == {
        "Cars": (31, 60),
        "Motor Cycle": (31, 50),
        "Rickshaw": (7, 7),
    }
    assert cfg.arrival_gap_max == 4
    assert cfg.seed == 12345
    assert cfg.sizes == (20, 25, 30)
    assert cfg.runs_per_size == 10
    assert cfg.base_seed == 99
    assert cfg.counting_mode == "literal"


def test_empty_text_sets_nothing():
    cfg = parse_config_text("")
    assert cfg.speed_ranges == {}
    assert cfg.arrival_gap_max is None
    assert cfg.seed is None
    assert cfg.sizes is None
    assert cfg.counting_mode is None


def test_comments_and_blanks_skipped():
    cfg = parse_config_text("# hello\n\n   \nseed = 4\n")
    assert cfg.seed == 4


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("velocity.Cars = 10-20\n")
    assert "line 1" in str(err.value)


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("seed\n")
    with pytest.raises(ConfigError):
        parse_config_text("seed =\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 5\n")


def test_bad_values_name_their_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\narrival_gap_max = soon\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError, match="^line 1: counting_mode must be 'event' or 'literal'$"):
        parse_config_text("counting_mode = both\n")
    with pytest.raises(ConfigError):
        parse_config_text("speed.Cars = 10-20-30\n")
    with pytest.raises(ConfigError):
        parse_config_text("speed. = 10-20\n")
    with pytest.raises(ConfigError):
        parse_config_text("sizes = 20,fast\n")


@pytest.mark.parametrize("value", ["20,,30", "20,30,", ",20,30", "20, fast"])
def test_a_malformed_sizes_entry_names_the_whole_value(value):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"sizes = {value}\n")
    assert str(err.value) == f"line 1: sizes must be comma-separated integers, got {value!r}"


# A value outside its setting's rule is refused where the file is read, with
# its line, by a subcommand that reads the key.
OUT_OF_RULE = [
    ("seed = -1", "sample --n 20", "seed must fit in an unsigned 64-bit integer"),
    ("base_seed = 18446744073709551616", "compare", "base_seed must fit in an unsigned 64-bit integer"),
    ("runs_per_size = 0", "compare", "runs_per_size must be an integer of at least 1"),
    ("arrival_gap_max = 0", "sample --n 20", "arrival_gap_max must be an integer of at least 1"),
]


@pytest.mark.parametrize("line, command, message", OUT_OF_RULE)
def test_values_out_of_rule_exit_4_naming_their_line(capsys, monkeypatch, tmp_path, line, command, message):
    monkeypatch.chdir(tmp_path)  # compare would write into the working directory
    (tmp_path / "run.conf").write_text(line + "\n", encoding="utf-8")
    assert main([*command.split(), "--config", "run.conf"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == f"laneflow: line 1: {message}\n"
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.conf"]


@pytest.mark.parametrize("value", ["-5", "5-"])
def test_a_range_with_an_empty_end_names_the_value_written(capsys, tmp_path, value):
    (tmp_path / "run.conf").write_text(f"speed.Cars = {value}\n", encoding="utf-8")
    assert main(["sample", "--n", "5", "--config", str(tmp_path / "run.conf")]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == (
        f"laneflow: line 1: speed.Cars expects 'lo-hi' or a single value, got {value!r}\n"
    )
    assert captured.out == ""


def test_rules_name_the_line_of_every_checked_key():
    for text, message in [
        ("\nseed = 18446744073709551616\n", "line 2: seed must fit"),
        ("base_seed = -1\n", "line 1: base_seed must fit"),
        ("# sizes\nsizes = 30, 20\n", "line 2: sizes must be strictly increasing"),
        ("sizes = 5\n", "line 1: sizes must hold at least two sizes"),
        ("speed.Cars = 0-60\n", "line 1: speed.Cars must satisfy 1 <= lo <= hi <= 100, got 0-60"),
        ("speed.Cars = 60-31\n", "line 1: speed.Cars must satisfy"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value).startswith(message), text


def test_rule_bounds_are_inclusive():
    cfg = parse_config_text("seed = 0\nbase_seed = 18446744073709551615\nruns_per_size = 1\n"
                            "arrival_gap_max = 1\nspeed.Cars = 1-100\n")
    assert (cfg.seed, cfg.base_seed, cfg.runs_per_size) == (0, (1 << 64) - 1, 1)
    assert cfg.arrival_gap_max == 1
    assert cfg.speed_ranges == {"Cars": (1, 100)}


def test_a_key_given_twice_names_both_lines():
    with pytest.raises(ConfigError, match="^line 3: seed is already set on line 1$"):
        parse_config_text("seed = 1\n# again\nseed = 2\n")
    with pytest.raises(ConfigError, match="^line 2: speed.Cars is already set on line 1$"):
        parse_config_text("speed.Cars = 31-60\nspeed. Cars = 40\n")
    cfg = parse_config_text("speed.Cars = 31-60\nspeed.Buses = 31-60\nseed = 1\n")
    assert cfg.lines == {"speed.Cars": 1, "speed.Buses": 2, "seed": 3}


BUNDLED_CLASSES = "Cars, Motor Cycle, LCV, Buses, Trucks, Vehicles, Rickshaw"


@pytest.mark.parametrize("text, command, message", [
    ("seed = 1\nseed = 2\n", "sample --n 20", "line 2: seed is already set on line 1"),
    ("sizes = 8, 12\nruns_per_size = 2\nsizes = 8, 12\n", "compare",
     "line 3: sizes is already set on line 1"),
    ("seed = 1\nspeed.Nope = 1-2\n", "sample --n 20",
     f"line 2: speed.Nope names no class of the census in use ({BUNDLED_CLASSES})"),
    ("speed.Nope = 1-2\nsizes = 8, 12\nruns_per_size = 2\n", "compare",
     f"line 1: speed.Nope names no class of the census in use ({BUNDLED_CLASSES})"),
])
def test_repeated_keys_and_unknown_classes_exit_4(capsys, monkeypatch, tmp_path, text, command, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(text, encoding="utf-8")
    assert main([*command.split(), "--config", "run.conf"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == f"laneflow: {message}\n"
    assert captured.out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.conf"]
