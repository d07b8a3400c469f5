"""Flat key-value config files.

One `key = value` pair per line; blank lines and `#` comments are skipped;
no nesting, no sections.  Recognized keys:

    speed.<class label> = lo-hi   inclusive speed range (or a single value)
    arrival_gap_max     = int     largest gap between consecutive arrivals
    seed                = u64     synthesis seed of sample (compare ignores it)
    sizes               = n,n,..  ensemble sample sizes, strictly increasing
    runs_per_size       = int     ensemble runs at each size
    base_seed           = u64     ensemble base seed
    counting_mode       = event | literal

Unknown keys are rejected rather than ignored, so typos surface immediately;
so is a key given twice (the message names both lines), and, once the census
is known, a speed.<label> that names none of its classes
(FileConfig.check_speed_labels).  A value that breaks its setting's rule is
rejected with its line number.

The rules themselves live here too, once each, and raise ValueError with a
message that names no setting; whoever reads the value names it: a config
line, a CLI flag, a SynthConfig or EnsembleSpec field, or a planner, synthesis
or stats argument (check_setting).  So do the readers of a number setting's
text (read_integer, parse_sizes), which its config key and its CLI flag
share: the same bad text is refused in the same words on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .domain import COUNTING_MODES, INTERIORS, parse_number
from .errors import ConfigError

T = TypeVar("T")


def check_u64(value: int) -> int:
    """The rule for seeds."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << 64:
        raise ValueError("must fit in an unsigned 64-bit integer")
    return value


def check_at_least_one(value: int) -> int:
    """The rule for counts: sample sizes, runs, budgets, arrival gaps."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError("must be an integer of at least 1")
    return value


def check_counting_mode(mode: str) -> str:
    if mode not in COUNTING_MODES:
        raise ValueError("must be " + " or ".join(map(repr, COUNTING_MODES)))
    return mode


def check_interior(interior: str) -> str:
    if interior not in INTERIORS:
        raise ValueError("must be " + " or ".join(map(repr, INTERIORS)))
    return interior


def check_sample_sizes(sizes: tuple[int, ...]) -> tuple[int, ...]:
    if len(sizes) < 2:
        raise ValueError("must hold at least two sizes: a trend needs two points")
    for size in sizes:
        check_at_least_one(size)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("must be strictly increasing")
    return sizes


def read_integer(check: Callable[[int], T]) -> Callable[[str], T]:
    """The reader of one integer setting, for its config key and its CLI flag:
    the input files' integer grammar, then the setting's rule."""
    return lambda text: check(parse_number(text))


def parse_sizes(text: str) -> tuple[int, ...]:
    """The one reader of a comma-separated size list, for the sizes key and
    the --sizes flag: each entry in the input files' integer grammar, then
    check_sample_sizes.  A malformed entry names the whole value written."""
    try:
        sizes = tuple(parse_number(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"must be comma-separated integers, got {text!r}") from None
    return check_sample_sizes(sizes)


def check_speed_range(bounds: tuple[int, int]) -> tuple[int, int]:
    lo, hi = bounds
    if type(lo) is not int or type(hi) is not int:  # synthesis draws integer speeds
        raise ValueError(f"must be integers, got {lo!r}-{hi!r}")
    if not 1 <= lo <= hi <= 100:
        raise ValueError(f"must satisfy 1 <= lo <= hi <= 100, got {lo}-{hi}")
    return bounds


def check_setting(name: str, check: Callable[[T], T], value: T) -> T:
    """value, if check accepts it; else a ConfigError that starts with name."""
    try:
        return check(value)
    except ValueError as err:
        raise ConfigError(f"{name} {err}") from None


@dataclass
class FileConfig:
    """Values found in a config file; None means "not set"."""

    speed_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    arrival_gap_max: int | None = None
    seed: int | None = None
    sizes: tuple[int, ...] | None = None
    runs_per_size: int | None = None
    base_seed: int | None = None
    counting_mode: str | None = None
    lines: dict[str, int] = field(default_factory=dict)  # key -> the line that set it

    def check_speed_labels(self, labels: tuple[str, ...]) -> None:
        """Refuse a speed.<label> line whose label is not one of labels, the
        classes of the census in use: it would otherwise be silently ignored."""
        for label in self.speed_ranges:
            if label not in labels:
                key = f"speed.{label}"
                raise ConfigError(
                    f"line {self.lines[key]}: {key} names no class of the census in use "
                    f"({', '.join(labels)})"
                )


def _read_speed_range(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split("-")]
    if len(parts) > 2 or "" in parts:  # "-5" and "5-" split to an empty end
        raise ValueError(f"expects 'lo-hi' or a single value, got {text!r}")
    return check_speed_range((parse_number(parts[0]), parse_number(parts[-1])))


# the reader of every key but speed.<label>, each key named as its FileConfig field
_READERS = {
    "arrival_gap_max": read_integer(check_at_least_one),
    "seed": read_integer(check_u64),
    "sizes": parse_sizes,
    "runs_per_size": read_integer(check_at_least_one),
    "base_seed": read_integer(check_u64),
    "counting_mode": check_counting_mode,
}


def parse_config_text(text: str) -> FileConfig:
    cfg = FileConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        label = key[len("speed."):].strip() if key.startswith("speed.") else None
        if label == "":
            raise ConfigError(f"line {lineno}: speed range needs a class label")
        if label:
            key = f"speed.{label}"
        if key in cfg.lines:
            raise ConfigError(f"line {lineno}: {key} is already set on line {cfg.lines[key]}")
        cfg.lines[key] = lineno
        if label:
            cfg.speed_ranges[label] = check_setting(f"line {lineno}: {key}", _read_speed_range, value)
        elif key in _READERS:
            setattr(cfg, key, check_setting(f"line {lineno}: {key}", _READERS[key], value))
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg
