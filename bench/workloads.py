"""Workloads of the laneflow benchmark, their correctness checks and the tracer.

A workload is a list of parts, run one after another in every pass.  Two
kinds of part exist, matching the two commands users wait on:

* Ensemble - a few ``laneflow compare`` calls (seeded ensemble of both
  planners, writes compare.{csv,json,svg}), each with a base seed of its own.
* Streams  - ``laneflow simulate`` with part1 and with part2 (``--budget auto``)
  on each of a few synthesized vehicle files, one report file per call.

Calls are kept short (0.02-0.15 s) because each timing is the fastest of a
run (see ``run_workload``), and a short call finds a quiet stretch of the
shared host far more reliably than a call of a second.

Every pass calls the real user path, ``laneflow.cli.main([...])``.  A traced
pass makes the same calls inside ``instrument``, which wraps each layer's
public function with a span in every module namespace that looks it up, so
the traced pass runs the program's own code and only adds spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import laneflow
from laneflow import cli, compare, part1, part2
from laneflow.cli import main as cli_main
from laneflow.compare import ALGORITHMS
from laneflow.domain import VehicleRecord, parse_vehicle_file, render_vehicle_file
from laneflow.rng import SplitMix64, combine_seed

DIGESTS_FILE = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 0  # the seed at which output digests are checked against DIGESTS_FILE
CENSUS_ROW = "1"
SETUP_CODE = "import laneflow.cli, laneflow.refdata; laneflow.refdata.load_token_samples()"
MIN_SETUP_LAUNCHES = 8
SETUP_LAUNCHES_PER_PASS = 2
MASK64 = (1 << 64) - 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans and counters of one traced pass, kept in memory until the run ends.

    A span records its operation, its parent span, its layer name and its start
    and end in nanoseconds.  A layer's busy time is the self time of its spans:
    duration minus the part covered by child spans.
    """

    def __init__(self) -> None:
        self.op = "setup"
        self.spans: list[list] = []  # [op, id, parent id, name, start_ns, end_ns]
        self.counts: Counter[str] = Counter()
        self.streams: dict[str, int] = {}  # "<part>/n<size>" -> vehicles synthesized
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [self.op, len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[1])
        self.counts[f"{name}.calls"] += 1
        try:
            yield
        except BaseException:
            self.counts[f"{name}.errors"] += 1
            raise
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()

    def busy_s(self, op: str | None = None) -> dict[str, float]:
        """Self time per layer, of every span or of one operation's spans."""
        spans = [s for s in self.spans if op is None or s[0] == op]
        covered: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        busy: dict[str, int] = defaultdict(int)
        for _, span_id, _, name, start, end in spans:
            busy[name] += end - start - covered[span_id]
        return {f"{name}.busy_s": ns / 1e9 for name, ns in busy.items()}

    def span_dicts(self, trace_id: str):
        """Spans as dicts; ``trace_id`` names the pass, span ids are unique within it."""
        for op, span_id, parent, name, start, end in self.spans:
            yield {"trace": trace_id, "op": op, "id": span_id, "parent": parent, "name": name,
                   "start_ns": start, "end_ns": end}


def _scaled(tr: Tracer, scaled, raw, target_n) -> None:
    tr.streams[f"{tr.op.split('/')[0]}/n{target_n}"] = scaled.total


def _pairs(tr: Tracer, pairs, vehicles, plan) -> None:
    tr.counts["part1.pairs.examined"] += len(vehicles) * (len(vehicles) - 1)
    tr.counts["part1.pairs.found"] += len(pairs)


# (span name, function name, modules whose namespace looks the function up,
#  work counter called as counter(tracer, result, *args)).  A span name of
# None counts without a span.  part2's own pair enumeration has no public
# entry point, so `part2.pairs_count` is derived: the self time of
# simulate_part2, i.e. minus its assign_stream child span.  budget_from_part1
# calls build_lane_plan from part2's namespace, which is left unwrapped, so
# the plan it rebuilds counts as `part2.budget`.
LAYERS = (
    ("census.load", "load_token_samples", (cli,), None),
    ("stats.scale", "scale_class_counts", (cli, compare), _scaled),
    ("synth", "synthesize_stream", (cli, compare),
     lambda tr, stream, *_: tr.counts.update({"synth.vehicles": len(stream)})),
    ("domain.parse", "parse_vehicle_file", (cli,),
     lambda tr, _, text: tr.counts.update({"domain.parse.bytes": len(text)})),  # ASCII files
    ("part1.plan", "build_lane_plan", (part1,), None),
    ("part1.pairs", "enumerate_overtake_pairs", (part1,), _pairs),
    ("part1.count", "count_transitions", (part1,),
     lambda tr, result, *_: tr.counts.update({"part1.transitions": result[0]})),
    ("part1.lanestats", "lane_statistics", (part1,), None),
    ("part2.budget", "budget_from_part1", (cli, compare), None),
    ("part2.pairs_count", "simulate_part2", (cli, compare),
     lambda tr, report, *_: tr.counts.update({"part2.transitions": report.transition_count})),
    ("part2.fold", "assign_stream", (part2,),
     lambda tr, _, vehicles, *__: tr.counts.update({"part2.fold.vehicles": len(vehicles)})),
    (None, "count_transitions", (part2,),
     lambda tr, _, pairings, *__: tr.counts.update({"part2.pairs.found": len(pairings)})),
    ("report.render", "render_report", (cli,),
     lambda tr, text, *_: tr.counts.update({"report.bytes": len(text)})),
    ("compare.run", "run_compare", (cli,), None),
    ("compare.render", "render_csv", (compare,), None),
    ("compare.render", "render_summary_json", (compare,), None),
    ("compare.render", "render_chart_svg", (compare,), None),
    ("compare.write", "write_outputs", (cli,), None),
)


def _wrap(tr: Tracer, name: str | None, fn, counter):
    def traced(*args, **kwargs):
        with tr.span(name) if name else nullcontext():
            result = fn(*args, **kwargs)
        if counter:
            counter(tr, result, *args)
        return result
    return traced


@contextmanager
def instrument(tr: Tracer):
    """For the duration, route every call of a LAYERS function through a span.

    A function a module no longer looks up is skipped: its layer then reads 0,
    which shows in the per-layer figures rather than stopping the benchmark.
    """
    originals = []
    for name, attr, modules, counter in LAYERS:
        for module in modules:
            fn = getattr(module, attr, None)
            if fn is not None:
                originals.append((module, attr, fn))
                setattr(module, attr, _wrap(tr, name, fn, counter))
    try:
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call of a pass, the files it writes and what its output must satisfy."""

    part: "Ensemble | Streams"
    label: str
    argv: list[str]
    outputs: tuple[Path, ...]
    algo: str = ""  # simulate only: the planner and its input's vehicle count
    vehicles: int = 0


@dataclass(frozen=True)
class Ensemble:
    """``calls`` ``laneflow compare`` calls over bundled row 1; call i has base
    seed ``combine_seed(seed, i)``."""

    name: str
    mode: str
    sizes: tuple[int, ...]
    runs: int
    calls: int

    def prepare(self, seed: int, workdir: Path, tr: Tracer) -> dict[str, dict]:
        return {}  # the ensemble synthesizes its streams itself, inside the timed call

    def ops(self, seed: int, workdir: Path, inputs: dict[str, dict]) -> list[Op]:
        ops = []
        for call in range(self.calls):
            out = workdir / "out" / f"c{call}"
            argv = ["compare", "--sizes", ",".join(map(str, self.sizes)), "--runs", str(self.runs),
                    "--base-seed", str(combine_seed(seed & MASK64, call)), "--mode", self.mode,
                    "--row", CENSUS_ROW, "--out-dir", str(out)]
            outputs = tuple(out / f"compare.{kind}" for kind in ("csv", "json", "svg"))
            ops.append(Op(self, f"{self.name}/c{call}", argv, outputs))
        return ops

    def check(self, op: Op, payloads: dict[str, bytes]) -> list[str]:
        summary = json.loads(payloads["compare.json"])
        problems = []
        if summary["sampleSizes"] != list(self.sizes):
            problems.append(f"compare.json sampleSizes {summary['sampleSizes']}")
        for algo in ALGORITHMS:
            if sorted(summary["series"][algo], key=int) != [str(s) for s in self.sizes]:
                problems.append(f"compare.json series[{algo}] has not one entry per size")
        return problems


@dataclass(frozen=True)
class Streams:
    """``laneflow simulate`` with part1 and part2 on one synthesized file per entry
    of ``sizes``.

    File i is what ``laneflow sample --n <size> --seed <s>`` writes from
    bundled row 1, with s = ``combine_seed(seed, i, size)``.  With
    ``decimal`` every speed gets one decimal digit (1-9) drawn from the seed,
    so the planners take their exact-rational path.
    """

    name: str
    mode: str
    sizes: tuple[int, ...]
    decimal: bool = False

    def streams(self, workdir: Path):
        for i, size in enumerate(self.sizes):
            yield i, size, f"s{i}-n{size}", workdir / f"s{i}-n{size}.csv"

    def prepare(self, seed: int, workdir: Path, tr: Tracer) -> dict[str, dict]:
        inputs = {}
        tr.op = f"{self.name}/setup"
        for i, size, _, path in self.streams(workdir):
            stream_seed = combine_seed(seed & MASK64, i, size)
            with instrument(tr):
                code = cli_main(["sample", "--n", str(size), "--seed", str(stream_seed),
                                 "--row", CENSUS_ROW, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"laneflow sample --n {size} exited with {code}")
            stream = parse_vehicle_file(path.read_text(encoding="utf-8"))
            if self.decimal:
                digits = SplitMix64(combine_seed(stream_seed, 1))
                stream = [
                    VehicleRecord(v.id, float(f"{v.speed}.{digits.uniform_int(1, 9)}"), v.arrival)
                    for v in stream
                ]
                path.write_text(render_vehicle_file(stream), encoding="utf-8")
            inputs[path.name] = {"vehicles": len(stream), "sha256": sha256(path.read_bytes())}
        return inputs

    def ops(self, seed: int, workdir: Path, inputs: dict[str, dict]) -> list[Op]:
        ops = []
        (workdir / "out").mkdir(exist_ok=True)
        for _, _, stream, source in self.streams(workdir):
            vehicles = inputs[source.name]["vehicles"]
            for algo in ALGORITHMS:
                out = workdir / "out" / f"{stream}.{algo}.json"
                budget = ["--budget", "auto"] if algo == "part2" else []
                argv = ["simulate", "--algo", algo, "--mode", self.mode, *budget,
                        "--input", str(source), "--out", str(out)]
                ops.append(Op(self, f"{self.name}/{stream}.{algo}", argv, (out,), algo, vehicles))
        return ops

    def check(self, op: Op, payloads: dict[str, bytes]) -> list[str]:
        (name, data), = payloads.items()
        # Parse everything but the event list, which is counted instead; at
        # n = 400 it holds about 3 * 10^4 events.  Canonical JSON sorts keys, so
        # "events" sits between "countingMode" and "laneAverageSpeed".
        start = data.index(b'"events":[')
        end = data.index(b'],"laneAverageSpeed":', start)
        report = json.loads(data[:start] + data[end + 2:])
        events = data.count(b'"overtakerId":', start, end)
        problems = []
        if report["algorithm"] != op.algo or report["countingMode"] != self.mode:
            problems.append(f"{name}: algorithm/mode {report['algorithm']}/{report['countingMode']}")
        if self.mode == "event" and events != report["transitionCount"]:
            problems.append(f"{name}: {events} events but transitionCount {report['transitionCount']}")
        if self.mode == "literal" and events:
            problems.append(f"{name}: literal mode report lists events")
        if sum(report["lanePopulation"].values()) != op.vehicles:
            problems.append(f"{name}: lane populations do not sum to {op.vehicles} vehicles")
        return problems


@dataclass(frozen=True)
class Workload:
    """Parts run one after another in every pass, each in a directory of its own."""

    name: str
    parts: tuple

    def setup(self, seed: int, workdir: Path, tr: Tracer) -> tuple[dict[str, dict], list[Op]]:
        inputs, ops = {}, []
        for part in self.parts:
            part_dir = workdir / part.name
            part_dir.mkdir(parents=True, exist_ok=True)
            part_inputs = part.prepare(seed, part_dir, tr)
            inputs.update({f"{part.name}/{name}": info for name, info in part_inputs.items()})
            ops.extend(part.ops(seed, part_dir, part_inputs))
        return inputs, ops


# Two workloads, not one per part: on the shared 2-CPU host 30 s runs gave
# spreads above the largest allowed bound, and only two workloads leave the
# time budget room for 60 s runs.  Each ensemble part does the work of one
# compare call at its nominal run count (100 and 10 runs per size), split
# into ten calls (see README.md).
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("ensembles", (
            Ensemble("ensemble-default", "event", (20, 25, 30, 40, 50), runs=10, calls=10),
            Ensemble("ensemble-wide", "literal", (100, 200, 400), runs=1, calls=10),
        )),
        Workload("simulations", (
            Streams("simulate-large", "event", (200, 250, 300, 300, 350, 350, 400, 400, 400, 400)),
            Streams("simulate-decimal", "literal", (200,) * 12, decimal=True),
        )),
    )
}


# ---------------------------------------------------------------------------
# one run: set-up, then closed-loop passes for the given number of seconds
# ---------------------------------------------------------------------------


class Run:
    """Counts attempted and failed operations and keeps the first problems seen."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = None  # digests to match, at the default seed only
        if seed == DEFAULT_SEED:
            self.expected = json.loads(DIGESTS_FILE.read_text())[workload.name]
        self.outputs: dict[str, str] = {}  # file name -> sha256 of the first pass
        self.ops: list[Op] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 10 - len(self.problems)])

    def setup(self, tr: Tracer) -> dict[str, dict]:
        inputs, self.ops = self.wl.setup(self.seed, self.workdir, tr)
        problems = []
        if self.expected is not None:
            got = {name: info["sha256"] for name, info in inputs.items()}
            if got != self.expected["inputs"]:
                problems.append(f"input digests {got} differ from {DIGESTS_FILE.name}")
        self.record(problems)
        return inputs

    def _check_outputs(self, op: Op, payloads: dict[str, bytes]) -> list[str]:
        problems = op.part.check(op, payloads)
        for file_name, data in payloads.items():
            name = f"{op.label}/{file_name}"
            digest = sha256(data)
            reference = self.outputs.setdefault(name, digest)
            if digest != reference:
                problems.append(f"{name}: bytes differ from the first pass at the same seed")
            if self.expected is not None and digest != self.expected["outputs"].get(name):
                problems.append(f"{name}: sha256 {digest} differs from {DIGESTS_FILE.name}")
        return problems

    def run_pass(self, tr: Tracer | None = None) -> dict[str, float]:
        """Every operation once through ``laneflow.cli.main``; returns seconds per op.

        With a tracer the calls run inside ``instrument``.  Only the call is
        timed; the output checks come after the clock stops.
        """
        times = {}
        for op in self.ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
            if tr is not None:
                tr.op = op.label
            with instrument(tr) if tr is not None else nullcontext():
                start = time.perf_counter()
                try:
                    code = cli_main(op.argv)
                except Exception as err:  # an operation that raises is a failed operation
                    code = f"{type(err).__name__}: {err}"
                times[op.label] = time.perf_counter() - start
            if code != 0:
                self.record([f"{op.label}: exit code {code}"])
                continue
            self.record(self._check_outputs(op, {p.name: p.read_bytes() for p in op.outputs}))
        return times


WORK_COUNTS = (
    "synth.vehicles",
    "part1.pairs.examined",
    "part1.pairs.found",
    "part1.transitions",
    "part2.fold.vehicles",
    "part2.pairs.found",
    "part2.transitions",
    "domain.parse.bytes",
    "report.bytes",
)


def launch_setup() -> float:
    """Wall seconds of a fresh interpreter that imports the CLI and loads the census.

    This is the cost every ``laneflow`` command pays before it does any work.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(laneflow.__file__).parents[1]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, then repeat passes while the next one ends within ``seconds`` (at least one).

    After every pass, two fresh interpreters measure the set-up cost, so that
    set-up samples are spread over the run like the passes.  With ``trace``
    every untraced pass is followed by a traced one, which gives the
    per-layer figures.

    Each timing is the fastest sample of the run: the host is shared, and
    other tenants slow a whole stretch of passes at a time, by up to 1.8x,
    while nothing makes a pass faster than the program allows.  ``wall_s``
    is the sum over the pass's operations of each one's fastest time.
    """
    run = Run(workload, seed, workdir)
    setup_tracer = Tracer()
    inputs = run.setup(setup_tracer)
    launch_setup()  # untimed: compiles the byte code
    passes: list[dict[str, float]] = []
    setup_s: list[float] = []
    traced: list[tuple[dict[str, float], Tracer]] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        passes.append(run.run_pass())
        if trace:
            tr = Tracer()
            traced.append((run.run_pass(tr), tr))
        setup_s.extend(launch_setup() for _ in range(SETUP_LAUNCHES_PER_PASS))
        now = time.perf_counter()
        if now + (now - started) > deadline:  # the next pass would end past the deadline
            break
    while len(setup_s) < MIN_SETUP_LAUNCHES:
        setup_s.append(launch_setup())

    fastest = {label: min(p[label] for p in passes) for label in passes[0]}
    result = {
        "inputs": inputs,
        "streams": setup_tracer.streams,
        "outputs": run.outputs,
        "pass_s": [sum(p.values()) for p in passes],
        "setup_samples": setup_s,
        "setup_s": min(setup_s),
        "wall_s": sum(fastest.values()),
    }
    for part in workload.parts:
        result[f"wall_s.{part.name}"] = sum(fastest[op.label] for op in run.ops if op.part is part)
        if isinstance(part, Streams):
            for _, _, stream, _ in part.streams(workdir):
                result[f"simulate_s.{part.name}.{stream}"] = (
                    fastest[f"{part.name}/{stream}.part1"] + fastest[f"{part.name}/{stream}.part2"])
    if trace:
        result["layers"] = _layer_metrics(run, traced, setup_tracer, result["wall_s"])
        result["streams"] = {**setup_tracer.streams, **traced[0][1].streams}
        result["spans"] = [*setup_tracer.span_dicts("setup"),
                           *(s for i, (_, tr) in enumerate(traced) for s in tr.span_dicts(f"pass{i}"))]
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    return result


def _layer_metrics(run: Run, traced, setup_tracer: Tracer, untraced_wall: float) -> dict:
    """Per-layer figures: for each operation, those of its fastest traced call;
    plus the set-up step."""
    counts = [{key: tr.counts[key] for key in WORK_COUNTS} for _, tr in traced]
    run.record([] if all(c == counts[0] for c in counts)
               else ["work counts differ between traced passes at the same seed"])
    layers: dict = dict(traced[0][1].counts)
    busy: Counter[str] = Counter()
    wall = 0.0
    for label in traced[0][0]:
        times, tr = min(traced, key=lambda item: item[0][label])
        busy.update(tr.busy_s(label))
        wall += times[label]
    layers.update(busy)
    layers["other.busy_s"] = wall - sum(busy.values())
    for name, value in dict(setup_tracer.busy_s(), **setup_tracer.counts).items():
        layers[name] = layers.get(name, 0) + value
    examined = layers.get("part1.pairs.examined", 0)
    layers["part1.pairs.yield"] = layers.get("part1.pairs.found", 0) / examined if examined else 0.0
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - untraced_wall
    layers["trace.overhead_ratio"] = wall / untraced_wall
    return layers
