"""End-to-end CLI behavior: subcommands, outputs, exit codes."""

from __future__ import annotations

import errno
import gc
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from laneflow import cli, parse_vehicle_file
from laneflow.cli import EXIT_FILE, EXIT_MODEL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from laneflow.refdata import load_token_samples
from laneflow.svgchart import HEIGHT, MARGIN_BOTTOM

from conftest import collector_paused, fail_write_number

THREE = "id,speed,arrival\nv1,35,0\nv2,45,1\nv3,5,0\n"


@pytest.fixture
def three_vehicles(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(THREE, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_part1_report(capsys, three_vehicles):
    code, out, err = run(capsys, "simulate", "--algo", "part1", "--input", str(three_vehicles))
    assert code == EXIT_OK
    assert err == ""
    payload = json.loads(out)
    assert payload["algorithm"] == "part1"
    assert payload["laneCount"] == 2
    assert payload["transitionCount"] == 1
    assert payload["events"][0]["catchUpTicks"] == 4


def test_simulate_part2_auto_budget(capsys, three_vehicles):
    argv = ("simulate", "--algo", "part2", "--input", str(three_vehicles))
    code, out, _ = run(capsys, *argv)
    # the auto budget is the class plan's lane count, 2: the same report bytes
    assert run(capsys, *argv, "--budget", "2") == (code, out, "")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["algorithm"] == "part2"
    assert payload["laneCount"] == 2  # auto budget from the class planner


def test_simulate_literal_mode(capsys, three_vehicles):
    code, out, _ = run(
        capsys, "simulate", "--algo", "part1", "--input", str(three_vehicles), "--mode", "literal"
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["countingMode"] == "literal"
    assert payload["events"] == []
    assert payload["transitionCount"] == 3


def test_simulate_writes_file(capsys, three_vehicles, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "simulate", "--algo", "part1", "--input", str(three_vehicles),
        "--out", str(out_path),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["laneCount"] == 2


def test_simulate_budget_is_part2_only(capsys, three_vehicles):
    code, _, err = run(
        capsys, "simulate", "--algo", "part1", "--input", str(three_vehicles), "--budget", "3"
    )
    assert code == EXIT_USAGE
    assert "laneflow:" in err


def test_simulate_rejects_garbage_budget(capsys, three_vehicles):
    code, _, err = run(
        capsys, "simulate", "--algo", "part2", "--input", str(three_vehicles), "--budget", "many"
    )
    assert code == EXIT_USAGE


def test_missing_input_names_the_path(capsys, tmp_path):
    ghost = tmp_path / "ghost.csv"
    code, _, err = run(capsys, "simulate", "--algo", "part1", "--input", str(ghost))
    assert code == EXIT_FILE
    assert "ghost.csv" in err


def test_malformed_vehicle_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,speed,arrival\nv1,fast,0\n", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--algo", "part1", "--input", str(path))
    assert code == EXIT_PARSE
    assert "line 2" in err


def test_a_speed_with_more_digits_than_a_float_holds_is_malformed(capsys, tmp_path):
    path = tmp_path / "long.csv"  # as floats, the two speeds would be 11.0 and 5: two lanes
    path.write_text("id,speed,arrival\na,10.99999999999999999,0\nb,5,0\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", "--algo", "part1", "--input", str(path))
    assert code == EXIT_PARSE
    assert err == ("laneflow: speed '10.99999999999999999' has more digits than a float holds "
                   "(line 2, column 2)\n")
    assert out == ""


def test_model_rejection_is_distinct_from_parse_error(capsys, tmp_path):
    path = tmp_path / "too_fast.csv"
    path.write_text("id,speed,arrival\nv1,150,0\n", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--algo", "part1", "--input", str(path))
    assert code == EXIT_MODEL


def test_sample_produces_scaled_stream(capsys):
    code, out, _ = run(capsys, "sample", "--n", "20", "--seed", "7")
    assert code == EXIT_OK
    vehicles = parse_vehicle_file(out)
    assert len(vehicles) == 20  # bundled row 1 scales to exactly 20


def test_sample_is_seed_deterministic(capsys):
    _, first, _ = run(capsys, "sample", "--n", "20", "--seed", "7")
    _, second, _ = run(capsys, "sample", "--n", "20", "--seed", "7")
    _, third, _ = run(capsys, "sample", "--n", "20", "--seed", "8")
    assert first == second
    assert first != third


def test_sample_row_lookup_failure_is_usage(capsys):
    code, _, err = run(capsys, "sample", "--n", "20", "--seed", "1", "--row", "Gotham")
    assert code == EXIT_USAGE


def test_sample_unusable_row(capsys, tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("city,Cars\nNowhere,-\n", encoding="utf-8")
    code, _, err = run(
        capsys, "sample", "--census", str(census), "--row", "Nowhere", "--n", "10", "--seed", "1"
    )
    assert code == EXIT_MODEL
    assert "Nowhere" in err


def test_sample_needs_speed_ranges_for_custom_labels(capsys, tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("city,Zeppelins\nFriedrichshafen,12\n", encoding="utf-8")
    code, _, err = run(
        capsys, "sample", "--census", str(census), "--row", "1", "--n", "6", "--seed", "1"
    )
    assert code == EXIT_PARSE  # ConfigError: no range for "Zeppelins"


def test_sample_config_overrides(capsys, tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("city,Zeppelins\nFriedrichshafen,12\n", encoding="utf-8")
    config = tmp_path / "synth.conf"
    config.write_text("speed.Zeppelins = 90-100\nseed = 5\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "sample", "--census", str(census), "--row", "1", "--n", "6",
        "--config", str(config),
    )
    assert code == EXIT_OK
    vehicles = parse_vehicle_file(out)
    assert len(vehicles) == 6
    assert all(90 <= v.speed <= 100 for v in vehicles)


def test_sample_seed_comes_from_the_flag_then_the_config_then_zero(capsys, tmp_path):
    config = tmp_path / "seed.conf"
    config.write_text("seed = 5\n", encoding="utf-8")

    def sample(*flags):
        code, out, _ = run(capsys, "sample", "--n", "20", *flags)
        assert code == EXIT_OK
        return out

    assert sample("--config", str(config)) == sample("--seed", "5")
    assert sample("--config", str(config), "--seed", "6") == sample("--seed", "6")
    assert sample("--seed", "6") != sample("--seed", "5")
    assert sample() == sample("--seed", "0")


def test_sample_all_zero_scaling_is_a_model_error(capsys, tmp_path):
    census = tmp_path / "census.csv"
    census.write_text(
        "city,Cars,Motor Cycle,LCV,Buses,Trucks,Vehicles,Rickshaw\n"
        "Flatland,1,1,1,1,1,1,1\n",
        encoding="utf-8",
    )
    # every quota is 1/7, which rounds to zero in all seven cells
    code, _, err = run(
        capsys, "sample", "--census", str(census), "--row", "Flatland", "--n", "1", "--seed", "1"
    )
    assert code == EXIT_MODEL


def test_sample_row_index_out_of_range_is_usage(capsys, tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("city,Cars,Buses\nTinyville,4,1\n", encoding="utf-8")
    code, _, err = run(
        capsys, "sample", "--census", str(census), "--row", "2", "--n", "1", "--seed", "1"
    )
    assert code == EXIT_USAGE


def test_stats_reports_expectation_and_sd(capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("Cars,Motor Cycle,LCV,Buses,Trucks,Vehicles,Rickshaw\n2,2,1,0,7,7,1\n")
    code, out, _ = run(capsys, "stats", "--counts", str(counts), "--n", "20")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["expectation"] == pytest.approx(5.4)
    assert payload["sampleSize"] == 20
    assert payload["counts"] == [2, 2, 1, 0, 7, 7, 1]
    assert payload["standardDeviation"] == pytest.approx(2.6954, abs=1e-4)


def test_stats_single_class(capsys, tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("All\n20\n")
    code, out, _ = run(capsys, "stats", "--counts", str(counts), "--n", "20")
    assert code == EXIT_OK
    assert json.loads(out)["expectation"] == pytest.approx(20.0)


@pytest.mark.parametrize("command, flag, text", [
    ("stats", "--counts", "Cars,Cars\n10,20\n"),
    ("sample", "--census", "city,Cars,Cars\nX,10,20\n"),
], ids=["counts", "census"])
def test_repeated_class_label_is_malformed_input(capsys, tmp_path, command, flag, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, flag, str(path), "--n", "5")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("laneflow: class label 'Cars' is repeated (line 1, column ")


def test_compare_writes_three_files(capsys, tmp_path):
    out_dir = tmp_path / "cmp"
    code, out, _ = run(
        capsys, "compare", "--sizes", "8,12", "--runs", "2", "--out-dir", str(out_dir)
    )
    assert code == EXIT_OK
    for name in ("compare.csv", "compare.json", "compare.svg"):
        assert (out_dir / name).exists()
        assert str(out_dir / name) in out


def test_compare_chart_of_all_zero_means_lies_on_the_x_axis(capsys, tmp_path):
    # one speed for every class: no vehicle overtakes, so every mean is 0
    config = tmp_path / "flat.conf"
    config.write_text("".join(f"speed.{label} = 40\n" for label in load_token_samples().labels))
    out_dir = tmp_path / "flat"
    code, _, _ = run(
        capsys, "compare", "--config", str(config), "--sizes", "8,12", "--runs", "2",
        "--out-dir", str(out_dir),
    )
    assert code == EXIT_OK
    series = json.loads((out_dir / "compare.json").read_text(encoding="utf-8"))["series"]
    assert [cell["mean"] for runs in series.values() for cell in runs.values()] == [0, 0, 0, 0]
    root = ET.fromstring((out_dir / "compare.svg").read_text(encoding="utf-8"))
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    x_axis = f"{HEIGHT - MARGIN_BOTTOM:.2f}"
    for polyline in polylines:
        assert {pair.split(",")[1] for pair in polyline.get("points").split()} == {x_axis}


def test_compare_names_the_size_that_scales_to_no_vehicles(capsys, tmp_path):
    # bundled row 1 scaled to 1 rounds every class to zero; 2 does not
    out_dir = tmp_path / "tiny"
    code, out, err = run(capsys, "compare", "--sizes", "1,2", "--runs", "1", "--out-dir", str(out_dir))
    assert code == EXIT_MODEL
    assert out == ""
    assert err == "laneflow: scaling the source counts to size 1 rounded every class to zero\n"
    assert not out_dir.exists()


def test_compare_is_reproducible_across_invocations(capsys, tmp_path):
    for sub in ("a", "b"):
        code, _, _ = run(
            capsys, "compare", "--sizes", "8,12", "--runs", "2",
            "--base-seed", "9", "--out-dir", str(tmp_path / sub),
        )
        assert code == EXIT_OK
    for name in ("compare.csv", "compare.json", "compare.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_compare_honors_config_file(capsys, tmp_path):
    config = tmp_path / "ensemble.conf"
    config.write_text("sizes = 8, 12\nruns_per_size = 2\ncounting_mode = literal\n")
    code, _, _ = run(capsys, "compare", "--config", str(config), "--out-dir", str(tmp_path))
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "compare.json").read_text(encoding="utf-8"))
    assert payload["sampleSizes"] == [8, 12]
    assert payload["runsPerSize"] == 2
    assert payload["countingMode"] == "literal"


def test_compare_flag_beats_config(capsys, tmp_path):
    config = tmp_path / "ensemble.conf"
    config.write_text("sizes = 8, 12\nruns_per_size = 2\n")
    code, _, _ = run(
        capsys, "compare", "--config", str(config), "--runs", "3", "--out-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "compare.json").read_text(encoding="utf-8"))
    assert payload["runsPerSize"] == 3


def test_compare_ignores_the_sample_seed(capsys, tmp_path):
    config = tmp_path / "seed.conf"
    config.write_text("seed = 7\n", encoding="utf-8")
    for sub, flags in (("plain", ()), ("seeded", ("--config", str(config)))):
        code, _, _ = run(
            capsys, "compare", "--sizes", "8,12", "--runs", "2", *flags,
            "--out-dir", str(tmp_path / sub),
        )
        assert code == EXIT_OK
    for name in ("compare.csv", "compare.json", "compare.svg"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "seeded" / name).read_bytes()


def test_compare_rejects_bad_sizes(capsys, tmp_path):
    code, _, err = run(capsys, "compare", "--sizes", "10,nope", "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["20,,30", "20,30,"])
def test_a_malformed_sizes_value_is_named_whole_by_flag_and_config(capsys, tmp_path, no_ensemble,
                                                                   value):
    out = tmp_path / "out"
    code, _, err = run(capsys, "compare", "--sizes", value, "--out-dir", str(out))
    assert code == EXIT_USAGE
    assert f"argument --sizes: must be comma-separated integers, got {value!r}" in err
    config = tmp_path / "sizes.conf"
    config.write_text(f"sizes = {value}\n")
    code, _, err = run(capsys, "compare", "--config", str(config), "--out-dir", str(out))
    assert code == EXIT_PARSE
    assert err == f"laneflow: line 1: sizes must be comma-separated integers, got {value!r}\n"
    assert not out.exists()


# "<flag>/<config key>" of one rule: the command line with the flag ({} for its
# value), and a command line that reads the key
FLAG_AND_KEY = {
    "--n/arrival_gap_max": ("sample --n {}", "sample --n 20"),
    "--runs/runs_per_size": ("compare --runs {}", "compare"),
    "--seed/seed": ("sample --n 20 --seed {}", "sample --n 20"),
    "--base-seed/base_seed": ("compare --base-seed {}", "compare"),
}


@pytest.mark.parametrize("pair", FLAG_AND_KEY)
@pytest.mark.parametrize("value", ["1.5", "2_0"])
def test_a_flag_and_its_key_refuse_the_same_text_in_the_same_words(capsys, tmp_path, no_ensemble, pair, value):
    flag, key = pair.split("/")
    flag_argv, key_argv = FLAG_AND_KEY[pair]
    out = tmp_path / "out"
    out_flag = "--out-dir" if key_argv == "compare" else "--out"
    reason = f"{value!r} is not an integer"
    code, _, err = run(capsys, *flag_argv.format(value).split(), out_flag, str(out))
    assert code == EXIT_USAGE
    assert err.endswith(f"argument {flag}: {reason}\n"), err
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {value}\n")
    code, _, err = run(capsys, *key_argv.split(), "--config", str(config), out_flag, str(out))
    assert code == EXIT_PARSE
    assert err == f"laneflow: line 1: {key} {reason}\n"
    assert not out.exists()


def test_compare_rejects_bad_config(capsys, tmp_path):
    config = tmp_path / "broken.conf"
    config.write_text("warp_factor = 9\n")
    code, _, err = run(capsys, "compare", "--config", str(config), "--out-dir", str(tmp_path))
    assert code == EXIT_PARSE


@pytest.fixture
def no_ensemble(monkeypatch):
    """Fail the test if compare gets as far as running its ensemble."""

    def refuse(spec):
        raise AssertionError("the ensemble ran before its settings were checked")

    monkeypatch.setattr(cli, "run_compare", refuse)


@pytest.mark.parametrize("flags", [
    ("--runs", "0"),
    ("--sizes", "5,3"),
    ("--sizes", "20,20"),
    ("--sizes", "0,5"),
    ("--sizes", "20"),
    ("--base-seed", "-1"),
], ids=" ".join)
def test_compare_bad_flag_values_are_usage_errors(capsys, tmp_path, no_ensemble, flags):
    code, _, err = run(capsys, "compare", *flags, "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE
    assert flags[0] in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("line", [
    "runs_per_size = 0",
    "sizes = 5, 3",
    "sizes = 20",
    "base_seed = -1",
])
def test_compare_bad_config_values_are_parse_errors(capsys, tmp_path, no_ensemble, line):
    config = tmp_path / "ensemble.conf"
    config.write_text(line + "\n")
    code, _, _ = run(capsys, "compare", "--config", str(config), "--out-dir", str(tmp_path / "out"))
    assert code == EXIT_PARSE
    assert not (tmp_path / "out").exists()


def test_failed_report_write_keeps_the_old_file(capsys, three_vehicles, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("previous report\n", encoding="utf-8")
    fail_write_number(monkeypatch, 1)
    code, _, err = run(
        capsys, "simulate", "--algo", "part1", "--input", str(three_vehicles), "--out", str(out)
    )
    assert code == EXIT_FILE
    assert err == f"laneflow: cannot write {out}: No space left on device\n"
    assert out.read_text(encoding="utf-8") == "previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "three.csv"]


@pytest.fixture
def blocker(tmp_path):
    """A regular file, so that any path below it cannot be created."""
    path = tmp_path / "blocker"
    path.write_text("not a directory\n", encoding="utf-8")
    return path


WRITERS = {
    "simulate": ("simulate", "--algo", "part1", "--input", "{three}", "--out"),
    "sample": ("sample", "--n", "20", "--out"),
    "stats": ("stats", "--counts", "{counts}", "--n", "20", "--out"),
    "compare": ("compare", "--sizes", "8,12", "--runs", "2", "--out-dir"),
}


# compare creates a missing --out-dir, so only a path below a file stops it
@pytest.mark.parametrize("command, target", [
    *((WRITERS[name], target) for name in ("simulate", "sample", "stats")
      for target in ("missing/out", "blocker/sub")),
    (WRITERS["compare"], "blocker/sub"),
], ids=lambda value: value[0] if isinstance(value, tuple) else value)
def test_unwritable_output_exits_3_naming_the_path(capsys, tmp_path, three_vehicles, blocker,
                                                    command, target):
    counts = tmp_path / "counts.csv"
    counts.write_text("Cars,Buses\n2,1\n", encoding="utf-8")
    out = tmp_path / target
    argv = [arg.format(three=three_vehicles, counts=counts) for arg in command]
    code, stdout, err = run(capsys, *argv, str(out))
    assert code == EXIT_FILE
    assert err.startswith(f"laneflow: cannot write {out}: ")
    assert "Traceback" not in err and ".tmp" not in err
    assert stdout == ""
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("target", ["", "."])
def test_an_out_path_with_no_file_name_exits_3_naming_it(capsys, tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "sample", "--n", "20", "--out", target)
    assert code == EXIT_FILE
    assert err.startswith(f"laneflow: cannot write {target}: ")
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


class FullStdout:
    """A standard output on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["simulate", "sample", "stats", "compare"])
def test_failed_write_to_standard_output_exits_3(capsys, tmp_path, three_vehicles, monkeypatch,
                                                 command):
    counts = tmp_path / "counts.csv"
    counts.write_text("Cars,Buses\n2,1\n", encoding="utf-8")
    argv = [arg.format(three=three_vehicles, counts=counts) for arg in WRITERS[command][:-1]]
    if command == "compare":
        argv += ["--out-dir", str(tmp_path / "out")]
    monkeypatch.setattr("sys.stdout", FullStdout())
    code, _, err = run(capsys, *argv)
    assert code == EXIT_FILE
    assert err == "laneflow: cannot write standard output: No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that refuses every write")
def test_failed_write_to_a_buffered_standard_output_exits_3(tmp_path):
    # a real block-buffered stdout keeps the unwritten bytes, which the interpreter
    # flushes again at exit; that second failure must not add a message or exit 120
    counts = tmp_path / "counts.csv"
    counts.write_text("Cars,Buses\n2,1\n", encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "laneflow.cli", "stats", "--counts", str(counts), "--n", "5"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    assert done.returncode == EXIT_FILE
    assert done.stderr == "laneflow: cannot write standard output: No space left on device\n"


@pytest.mark.skipif(not (Path("/proc/self/fd").is_dir() and Path("/dev/full").exists()),
                    reason="needs /proc/self/fd and a device that refuses every write")
def test_a_failed_write_to_standard_output_leaves_no_descriptor_open(tmp_path, monkeypatch):
    # main points the failed stdout at the null device; the descriptor it
    # opens for that must be closed again, or each in-process failure leaks one
    counts = tmp_path / "counts.csv"
    counts.write_text("Cars,Buses\n2,1\n", encoding="utf-8")
    with open("/dev/full", "w") as full:
        monkeypatch.setattr("sys.stdout", full)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["stats", "--counts", str(counts), "--n", "5"]) == EXIT_FILE
        after = len(os.listdir("/proc/self/fd"))
    assert after == before


# (command line with {} for the file, file text with {} for the number)
NUMBER_FIELDS = {
    "vehicle speed": (("simulate", "--algo", "part1", "--input", "{}"),
                      "id,speed,arrival\nv1,{},0\n"),
    "vehicle arrival": (("simulate", "--algo", "part1", "--input", "{}"),
                        "id,speed,arrival\nv1,35,{}\n"),
    "census count": (("sample", "--n", "5", "--seed", "1", "--census", "{}"),
                     "city,Cars,Buses\nTown,{},3\n"),
    "counts file": (("stats", "--n", "5", "--counts", "{}"), "Cars,Buses\n{},3\n"),
    "config integer": (("sample", "--n", "5", "--config", "{}"), "seed = {}\n"),
}


@pytest.mark.parametrize("field", NUMBER_FIELDS)
@pytest.mark.parametrize("text", ["1_0", "\u0663", "1e1", "inf", "+5"])
def test_numbers_outside_the_ascii_grammar_are_parse_errors(capsys, tmp_path, field, text):
    argv, template = NUMBER_FIELDS[field]
    path = tmp_path / "input.txt"
    path.write_text(template.format(text), encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert code == EXIT_PARSE, err
    assert out == ""


def test_no_arguments_is_usage(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simulate" in out and "compare" in out


def fresh_import(probe):
    """(exit code, stdout, stderr) of probe in a new interpreter that imports
    laneflow from where this one does."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, text=True,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_a_fresh_import_builds_no_parser():
    probe = "import laneflow.cli as cli; print(cli.build_parser.cache_info().currsize)"
    assert fresh_import(probe) == (0, "0\n", "")


def test_a_fresh_import_loads_neither_fractions_nor_secrets():
    # the exact rule is integer-only, and temp file names come from os.urandom
    probe = "import sys, laneflow.cli; print(sorted({'fractions', 'secrets'} & set(sys.modules)))"
    assert fresh_import(probe) == (0, "[]\n", "")


# main reuses one parser for every call in a process: no call may see another's flags
def test_simulate_without_budget_does_not_keep_the_last_budget(capsys, three_vehicles, tmp_path):
    argv = ["simulate", "--algo", "part2", "--input", str(three_vehicles)]
    assert main([*argv, "--budget", "1", "--out", str(tmp_path / "one.json")]) == EXIT_MODEL
    assert main([*argv, "--out", str(tmp_path / "default.json")]) == EXIT_OK
    assert main([*argv, "--budget", "auto", "--out", str(tmp_path / "auto.json")]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "auto.json").read_bytes()


def test_compare_without_sizes_does_not_keep_the_last_sizes(capsys, tmp_path):
    argv = ["compare", "--runs", "1", "--out-dir"]
    assert main([*argv, str(tmp_path / "a"), "--sizes", "20,25"]) == EXIT_OK
    assert main([*argv, str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    summary = json.loads((tmp_path / "b" / "compare.json").read_text(encoding="utf-8"))
    assert summary["sampleSizes"] == [20, 25, 30, 40, 50]


def test_a_refused_call_leaves_the_next_call_free(capsys, three_vehicles):
    assert main(["simulate", "--algo", "part3", "--input", str(three_vehicles)]) == EXIT_USAGE
    assert main(["simulate", "--algo", "part1", "--input", str(three_vehicles)]) == EXIT_OK
    capsys.readouterr()


def test_help_prints_the_same_text_each_call(capsys):
    texts = []
    for _ in range(2):
        assert main(["--help"]) == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


# (command line with {} for the flag's value), keyed "<command> <flag>"
NUMBER_FLAGS = {
    "sample --n": ("sample", "--n", "{}"),
    "sample --seed": ("sample", "--n", "20", "--seed", "{}"),
    "sample --row": ("sample", "--n", "20", "--row", "{}"),
    "stats --n": ("stats", "--counts", "{counts}", "--n", "{}"),
    "compare --sizes": ("compare", "--sizes", "{},25"),
    "compare --runs": ("compare", "--runs", "{}"),
    "compare --base-seed": ("compare", "--base-seed", "{}"),
    "simulate --budget": ("simulate", "--algo", "part2", "--input", "{three}", "--budget", "{}"),
}
OUT_OF_RANGE = [("sample --n", "0"), ("stats --n", "0"), ("simulate --budget", "0"),
                ("sample --seed", "-1"), ("compare --base-seed", "-1"),
                ("compare --base-seed", str(1 << 64))]
CONFIG_KEYS = ("arrival_gap_max", "runs_per_size", "base_seed", "counting_mode")


@pytest.mark.parametrize("flag, value", [
    *((flag, text) for flag in NUMBER_FLAGS for text in ("2_0", "\u0663", "+5", "1e1")),
    *OUT_OF_RANGE,
], ids=str)
def test_number_flags_take_the_file_grammar_and_fail_as_usage(capsys, tmp_path, three_vehicles,
                                                              no_ensemble, flag, value):
    counts = tmp_path / "counts.csv"
    counts.write_text("Cars,Buses\n2,1\n", encoding="utf-8")
    argv = [arg.format(value, three=three_vehicles, counts=counts) for arg in NUMBER_FLAGS[flag]]
    out = tmp_path / "out"
    out_flag = "--out-dir" if argv[0] == "compare" else "--out"
    code, stdout, err = run(capsys, *argv, out_flag, str(out))
    assert code == EXIT_USAGE, err
    assert flag.split()[1] in err
    assert not any(key in err for key in CONFIG_KEYS), err  # the flag, not a config key
    assert stdout == ""
    assert not out.exists()


# the flag's command and a file that is not UTF-8 text
UNDECODABLE = {
    "--input": (("simulate", "--algo", "part1"), b"id,speed,arrival\nv1,3\xff5,0\n"),
    "--census": (("sample", "--n", "5"), b"city,Cars,Buses\nT\xffwn,2,3\n"),
    "--counts": (("stats", "--n", "5"), b"Cars,Buses\n2,3\xff\n"),
    "--config": (("sample", "--n", "5"), b"# caf\xe9\nseed = 1\n"),
}


@pytest.mark.parametrize("flag", UNDECODABLE)
def test_undecodable_input_is_malformed_naming_the_path(capsys, tmp_path, flag):
    command, data = UNDECODABLE[flag]
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *command, flag, str(path), "--out", str(out))
    assert code == EXIT_PARSE, err
    assert str(path) in err and "UTF-8" in err
    assert stdout == "" and not out.exists()


def test_undecodable_byte_is_named_by_its_file_offset(capsys, tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(b"\xef\xbb\xbfab\xffc")
    code, _, err = run(capsys, "simulate", "--algo", "part1", "--input", str(path))
    assert code == EXIT_PARSE
    assert "byte 5 cannot be decoded" in err


# the flag's command and a file it reads without error
READABLE = {
    "--input": (("simulate", "--algo", "part1"), THREE),
    "--census": (("sample", "--n", "5"), "Town,Cars,Buses\nT1,2,3\n"),
    "--counts": (("stats", "--n", "5"), "Cars,Buses\n2,3\n"),
    "--config": (("sample", "--n", "5"), "seed = 1\n"),
}


@pytest.mark.parametrize("flag", READABLE)
def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path, flag):
    command, text = READABLE[flag]
    outputs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(data)
        out = tmp_path / f"{name}.out"
        code, _, err = run(capsys, *command, flag, str(path), "--out", str(out))
        assert code == EXIT_OK, (name, err)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic garbage collector switched on or off for the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


# simulate --algo ALGO on an input file holding TEXT (None: no file) -> exit code
COLLECTOR_EXITS = {
    "exit 0": ("part1", THREE, EXIT_OK),
    "exit 2": ("part3", THREE, EXIT_USAGE),  # argparse refuses it before the command runs
    "exit 3": ("part1", None, EXIT_FILE),
    "exit 4": ("part1", "id,speed,arrival\nv1,fast,0\n", EXIT_PARSE),
    "exit 5": ("part1", "id,speed,arrival\nv1,150,0\n", EXIT_MODEL),
}


@pytest.mark.parametrize("case", COLLECTOR_EXITS)
def test_main_restores_the_collector_on_every_exit_code(capsys, tmp_path, collector, case):
    algo, text, expected = COLLECTOR_EXITS[case]
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, _, _ = run(capsys, "simulate", "--algo", algo, "--input", str(path))
    assert code == expected
    assert gc.isenabled() is collector


def test_main_restores_the_collector_when_an_exception_escapes(three_vehicles, monkeypatch,
                                                               collector):
    def crash(*_args, **_kwargs):
        raise RuntimeError("planner crashed")

    monkeypatch.setattr(cli, "simulate_part1", crash)
    with pytest.raises(RuntimeError, match="planner crashed"):
        main(["simulate", "--algo", "part1", "--input", str(three_vehicles)])
    assert gc.isenabled() is collector


def test_a_command_leaves_the_collector_as_much_at_any_stream_size(tmp_path):
    """main pauses the cyclic collector, so a command must build no cycle:
    the collector finds nothing after it at n = 20 or n = 400 (the argument
    parser is built once and kept, so it is not garbage either)."""
    found = {}
    with collector_paused():
        for n in (20, 400):
            stream = tmp_path / f"n{n}.csv"
            assert main(["sample", "--n", str(n), "--out", str(stream)]) == EXIT_OK
            for algo in ("part1", "part2"):
                gc.collect()
                out = tmp_path / f"n{n}-{algo}.json"
                argv = ["simulate", "--algo", algo, "--input", str(stream), "--out", str(out)]
                assert main(argv) == EXIT_OK
                found[algo, n] = gc.collect()
    assert set(found.values()) == {0}, found
