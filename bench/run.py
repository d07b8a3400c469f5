"""laneflow benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload ensembles --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
The workload runs in a child process of its own (see workloads.py).  It
synthesizes the inputs from the seed (untimed), then calls the CLI in a
closed loop with one caller, one operation after another, for ``--seconds``
seconds; after every pass two fresh interpreters measure the set-up cost
(``setup_s``).  The child's peak resident memory is read from ``wait4``.

All figures are printed, one per line, and last a JSON line with the metrics
named in BENCHMARK.json: the end-to-end ones with ``--trace 0``, the per-layer
ones of the traced passes with ``--trace 1``.  Spans of a traced run are
written to .bench_out/ when the run ends.  Exit code 0 means the run
completed; whether its outputs were correct is in the JSON line.  Any other
exit code means no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Defined in workloads.py, which this process does not import (it needs ./src).
WORKLOADS = ("ensembles", "simulations")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "census.load.busy_s": "s",
    "stats.scale.busy_s": "s",
    "synth.busy_s": "s",
    "synth.vehicles": "count",
    "part1.plan.busy_s": "s",
    "part2.budget.busy_s": "s",
    "part1.pairs.busy_s": "s",
    "part1.pairs.examined": "count",
    "part1.pairs.found": "count",
    "part1.pairs.yield": "ratio",
    "part1.count.busy_s": "s",
    "part1.transitions": "count",
    "part1.lanestats.busy_s": "s",
    "part2.fold.busy_s": "s",
    "part2.fold.vehicles": "count",
    "part2.pairs_count.busy_s": "s",
    "part2.pairs.found": "count",
    "part2.transitions": "count",
    "other.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Printed, but left out of the JSON line, which must carry the same metrics
# for every workload: layers that only one command runs, and the tracing
# overhead in seconds, which host noise can make 0 or negative.
PRINTED_LAYER_UNITS = {
    "domain.parse.busy_s": "s",
    "domain.parse.bytes": "bytes",
    "report.render.busy_s": "s",
    "report.bytes": "bytes",
    "compare.run.busy_s": "s",
    "compare.render.busy_s": "s",
    "compare.write.busy_s": "s",
    "trace.overhead_s": "s",
}


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: argparse.Namespace, workdir: Path) -> tuple[dict, float]:
    """Run the workload in its own process; returns its result and peak RSS in MiB."""
    result_path = workdir / "result.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(result_path),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(command, env=_environment(), cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"bench: workload process exited with {proc.returncode}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024  # Linux: KiB


def child_main(args: argparse.Namespace) -> None:
    """Body of the workload process: run, then leave the result for the parent."""
    from workloads import WORKLOADS as DEFINITIONS, run_workload

    result_path = Path(args.child)
    result = run_workload(DEFINITIONS[args.workload], args.seed, args.seconds,
                          bool(args.trace), result_path.parent)
    spans = result.pop("spans", None)
    if spans is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    result_path.write_text(json.dumps(result))


def report(args: argparse.Namespace, result: dict, rss_mb: float) -> None:
    attempted, failed = result["attempted"], result["failed"]
    figures = {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "peak_rss_mb": rss_mb,
        "error_rate": failed / attempted,
        **{k: v for k, v in result.items() if k.startswith(("wall_s.", "simulate_s."))},
    }
    units = dict(END_TO_END_UNITS, error_rate="ratio",
                 **{k: "s" for k in figures if k.startswith(("wall_s.", "simulate_s."))})
    print(f"laneflow bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{len(result['pass_s'])} untraced passes, {len(result['setup_samples'])} set-up launches")
    print("untraced pass seconds: " + " ".join(f"{t:.4f}" for t in result["pass_s"]))
    print("set-up seconds: " + " ".join(f"{t:.4f}" for t in result["setup_samples"]))
    for name, info in result["inputs"].items():
        print(f"input {name}: {info['vehicles']} vehicles, sha256 {info['sha256']}")
    for name, vehicles in result["streams"].items():
        print(f"stream {name}: {vehicles} vehicles")
    for name, digest in sorted(result["outputs"].items()):
        print(f"output {name}: sha256 {digest}")
    for name, value in figures.items():
        print(f"{name:28} {value} {units[name]}")
    layers = result.get("layers", {})
    for name, unit in {**PER_LAYER_UNITS, **PRINTED_LAYER_UNITS}.items():
        if name in layers:
            print(f"{name:28} {layers[name]} {unit}")
    for name in sorted(k for k in layers if k.endswith((".calls", ".errors"))):
        print(f"{name:28} {layers[name]} count")
    print(f"attempted {attempted}, failed {failed}")
    for problem in result["problems"]:
        print(f"problem: {problem}")

    if args.trace:
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.child:
        child_main(args)
        return 0
    if not (SRC / "laneflow" / "cli.py").is_file():
        print(f"bench: no laneflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        result, rss_mb = run_child(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, result, rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main())
