"""Tests of the benchmark itself.

The traced pass must run the program's own code (same output bytes as the
untraced pass, every layer spanned, the program restored afterwards), its
work counts must repeat exactly at the same seed, the output checks must
catch a wrong output, and the printed result must name exactly the metrics
of BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT
from run import WORKLOADS as WORKLOAD_NAMES
from workloads import LAYERS, WORK_COUNTS, WORKLOADS, Run, Tracer, Workload, instrument, run_workload

SEED = 3  # not the default seed, so the full-size digests are not consulted
DEFAULT, WIDE = WORKLOADS["ensembles"].parts
LARGE, DECIMAL = WORKLOADS["simulations"].parts
SMALL = {
    "ensembles": Workload("ensembles", (replace(DEFAULT, sizes=(20, 25), runs=3),
                                        replace(WIDE, sizes=(30, 40), runs=2))),
    "simulations": Workload("simulations", (replace(LARGE, sizes=(60, 90)),
                                            replace(DECIMAL, sizes=(50,)))),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_matches_cli_and_repeats_its_counts(name, tmp_path):
    run = Run(SMALL[name], SEED, tmp_path)
    run.setup(Tracer())
    run.run_pass()
    counts = []
    for _ in range(2):
        tr = Tracer()
        run.run_pass(tr)
        counts.append({key: tr.counts[key] for key in WORK_COUNTS})
    assert run.problems == []  # traced outputs have the untraced pass's bytes
    assert counts[0] == counts[1]
    assert counts[0]["part1.pairs.examined"] > counts[0]["part1.pairs.found"] > 0
    assert counts[0]["part2.pairs.found"] > 0
    spanned = {key[: -len(".calls")] for key in tr.counts if key.endswith(".calls")}
    # layers run only by the other command, or in set-up
    command = {"ensembles": ("domain.", "report."),
               "simulations": ("compare.", "census.", "stats.", "synth")}[name]
    assert spanned == {layer for layer, *_ in LAYERS if layer and not layer.startswith(command)}


def test_instrument_restores_the_program():
    originals = [(module, attr, getattr(module, attr))
                 for _, attr, modules, _ in LAYERS for module in modules]
    with instrument(Tracer()):
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_reports_every_per_layer_metric(name, tmp_path):
    result = run_workload(SMALL[name], SEED, 0, True, tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert set(PER_LAYER_UNITS) <= set(result["layers"])


def test_checks_catch_wrong_outputs(tmp_path):
    run = Run(SMALL["simulations"], SEED, tmp_path)
    run.setup(Tracer())
    run.run_pass()
    op = run.ops[0]
    name, good = op.outputs[0].name, op.outputs[0].read_bytes()
    assert op.part.check(op, {name: good}) == []
    more_vehicles = replace(op, vehicles=op.vehicles + 1)
    assert op.part.check(more_vehicles, {name: good})
    wrong_count = good.replace(b'"transitionCount":', b'"transitionCount":1', 1)
    assert op.part.check(op, {name: wrong_count})

    ens = Run(SMALL["ensembles"], SEED, tmp_path / "ens")
    ens.setup(Tracer())
    ens.run_pass()
    op = ens.ops[0]
    summary = json.loads(op.outputs[1].read_bytes())
    del summary["series"]["part2"]["25"]
    assert op.part.check(op, {"compare.json": json.dumps(summary).encode()})


def test_printed_metrics_are_the_benchmark_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(WORKLOAD_NAMES)


def test_run_prints_one_json_result_line_last():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensembles", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensembles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
