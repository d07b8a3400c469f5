"""Seeded fuzzing of the CLI: a mutated input file ends in a documented exit code.

Each case makes a few SplitMix64-driven byte edits (delete, insert, overwrite
with a byte from ALPHABET) to one of four inputs: a `sample` output, the
bundled census, a counts file and a config file.  Every third case edits the
input behind a UTF-8 byte-order mark, as spreadsheet tools save it.  The
matching command then runs through cli.main with small sizes.  Every return
code must be one the CLI documents, no exception may escape, and a failed run
leaves no output.
"""

from __future__ import annotations

import codecs
from pathlib import Path

import pytest

import laneflow
from laneflow.cli import EXIT_FILE, EXIT_MODEL, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from laneflow.rng import SplitMix64, combine_seed

ALPHABET = b",\n-.09 Ae\xff\xd9"
CASES = 100  # per input
DOCUMENTED = {EXIT_OK, EXIT_USAGE, EXIT_FILE, EXIT_PARSE, EXIT_MODEL}
BUNDLED_CENSUS = Path(laneflow.__file__).parent / "data" / "token_samples.csv"
CONFIG = (
    b"# ensemble settings\nspeed.Cars = 20-60\narrival_gap_max = 3\nseed = 7\n"
    b"sizes = 8, 12\nruns_per_size = 1\nbase_seed = 5\ncounting_mode = event\n"
)
SMALL_COMPARE = ("compare", "--sizes", "8,12", "--runs", "1")

# per input: the commands that read it, each followed by the file and an output path
COMMANDS = {
    "vehicles": [("simulate", "--algo", "part1", "--input"),
                 ("simulate", "--algo", "part2", "--mode", "literal", "--input")],
    "census": [("sample", "--n", "20", "--census"), (*SMALL_COMPARE, "--census")],
    "counts": [("stats", "--n", "20", "--counts")],
    "config": [("sample", "--n", "20", "--config"), (*SMALL_COMPARE, "--config")],
}


def mutate(data: bytes, rng: SplitMix64) -> bytes:
    data = bytearray(data)
    for _ in range(rng.uniform_int(1, 4)):
        at = rng.uniform_int(0, len(data))
        edit = rng.uniform_int(0, 2)
        byte = ALPHABET[rng.uniform_int(0, len(ALPHABET) - 1)]
        if edit == 0 and at < len(data):
            del data[at]
        elif edit == 1 or at == len(data):
            data.insert(at, byte)
        else:
            data[at] = byte
    return bytes(data)


def original(kind: str, tmp_path: Path) -> bytes:
    if kind == "vehicles":
        path = tmp_path / "sample.csv"
        assert main(["sample", "--n", "20", "--seed", "3", "--out", str(path)]) == EXIT_OK
        return path.read_bytes()
    if kind == "census":
        return BUNDLED_CENSUS.read_bytes()
    if kind == "counts":
        return b"Cars,Buses,Trucks\n840,209,2855\n"
    return CONFIG


@pytest.mark.parametrize("kind", COMMANDS)
def test_mutated_inputs_end_in_documented_exit_codes(capsys, tmp_path, kind):
    data = original(kind, tmp_path)
    path = tmp_path / "input"
    failures = []
    for case in range(CASES):
        rng = SplitMix64(combine_seed(2012, list(COMMANDS).index(kind), case))
        seed = data if case % 3 else codecs.BOM_UTF8 + data
        path.write_bytes(mutate(seed, rng))
        command = COMMANDS[kind][case % len(COMMANDS[kind])]
        out = tmp_path / f"out{case}"
        out_flag = "--out-dir" if command[0] == "compare" else "--out"
        try:
            code = main([*command, str(path), out_flag, str(out)])
        except Exception as err:  # noqa: BLE001 - an escaping exception is the finding
            failures.append((case, f"{type(err).__name__}: {err}"))
            continue
        if code not in DOCUMENTED:
            failures.append((case, f"exit {code}"))
        elif code != EXIT_OK and out.exists():
            failures.append((case, f"exit {code} left {out.name}"))
    capsys.readouterr()
    assert not failures, f"{len(failures)} of {CASES} cases: {failures[:5]}"
