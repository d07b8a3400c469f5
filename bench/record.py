"""Run the benchmark on several seeds per workload and record a trajectory point.

    python3 bench/record.py --runs 10 --sets 2 --out bench/trajectory/BENCH_<label>.json

A set is ``--runs`` untraced runs per workload, with seeds 1..runs, one
workload after another; the sets run one after another, then one traced run
per workload at the default seed 0.  Per set and end-to-end metric it records
the values, their median, quartiles (``statistics.quantiles(values, n=4)``)
and the interquartile range as a share of the median: the run-to-run spread
the bounds in BENCHMARK.json rest on.  With two or more sets it also records
how far each later set's median lies from the first one's, as a share of the
first: two sets of the same code must agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FIGURE_LINE = re.compile(r"^(\S+)\s+(-?[0-9.e+-]+) (\S+)$")  # name, value, unit


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["figures"] = {m[1]: json.loads(m[2]) for m in map(FIGURE_LINE.match, lines[:-1]) if m}
    result["vehicles"] = {name: int(n) for name, n in
                          re.findall(r"^(?:input|stream) (\S+): (\d+) vehicles", done.stdout, re.M)}
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:3]),
          file=sys.stderr, flush=True)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else None}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": args.seconds,
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    workloads = args.workloads.split(",")
    sets = [{w: [run_once(w, seed, args.seconds, 0) for seed in record["seeds"]] for w in workloads}
            for _ in range(args.sets)]
    for workload in workloads:
        traced = run_once(workload, 0, args.seconds, 1)
        names = list(sets[0][workload][0]["figures"])
        spreads = [{name: spread([r["figures"][name] for r in runs[workload]]) for name in names}
                   for runs in sets]
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for runs in sets for r in runs[workload]),
            "failed": sum(r["failed"] for runs in sets for r in runs[workload]),
            "vehicles_at_seed_0": traced["vehicles"],
            "end_to_end_sets": spreads,
            "median_shift": [{name: s[name]["median"] / spreads[0][name]["median"] - 1
                              for name in names if spreads[0][name]["median"]}
                             for s in spreads[1:]],
            "per_layer_at_seed_0": traced["figures"],
            "traced_correct": traced["correct"],
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, data in record["workloads"].items():
        for i, spreads in enumerate(data["end_to_end_sets"]):
            for name, s in spreads.items():
                shift = data["median_shift"][i - 1].get(name) if i else None
                print(f"{workload:12} set {i + 1} {name:34} median {s['median']:.5g}  "
                      f"IQR/median {s['iqr_share']}  median shift {shift}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
