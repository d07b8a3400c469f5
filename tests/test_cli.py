"""End-to-end CLI behavior: subcommands, outputs, exit codes."""

from __future__ import annotations

import json

import pytest

from laneflow import cli, parse_vehicle_file
from laneflow.cli import EXIT_MODEL, EXIT_OK, EXIT_PARSE, EXIT_UNREADABLE, EXIT_USAGE, main

from conftest import fail_write_number

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
    code, out, _ = run(capsys, "simulate", "--algo", "part2", "--input", str(three_vehicles))
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
    assert code == EXIT_UNREADABLE
    assert "ghost.csv" in err


def test_malformed_vehicle_file(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,speed,arrival\nv1,fast,0\n", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--algo", "part1", "--input", str(path))
    assert code == EXIT_PARSE
    assert "line 2" in err


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


def test_compare_writes_three_files(capsys, tmp_path):
    out_dir = tmp_path / "cmp"
    code, out, _ = run(
        capsys, "compare", "--sizes", "8,12", "--runs", "2", "--out-dir", str(out_dir)
    )
    assert code == EXIT_OK
    for name in ("compare.csv", "compare.json", "compare.svg"):
        assert (out_dir / name).exists()
        assert str(out_dir / name) in out


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


def test_compare_rejects_bad_sizes(capsys, tmp_path):
    code, _, err = run(capsys, "compare", "--sizes", "10,nope", "--out-dir", str(tmp_path))
    assert code == EXIT_USAGE


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
    with pytest.raises(OSError):
        main(["simulate", "--algo", "part1", "--input", str(three_vehicles), "--out", str(out)])
    assert out.read_text(encoding="utf-8") == "previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "three.csv"]


def test_no_arguments_is_usage(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simulate" in out and "compare" in out
