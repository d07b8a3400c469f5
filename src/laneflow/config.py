"""Flat key-value config files.

One `key = value` pair per line; blank lines and `#` comments are skipped;
no nesting, no sections.  Recognized keys:

    speed.<class label> = lo-hi   inclusive speed range (or a single value)
    arrival_gap_max     = int     largest gap between consecutive arrivals
    seed                = u64     synthesis seed (single runs)
    sizes               = n,n,..  ensemble sample sizes, strictly increasing
    runs_per_size       = int     ensemble runs at each size
    base_seed           = u64     ensemble base seed
    counting_mode       = event | literal

Unknown keys are rejected rather than ignored, so typos surface immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domain import parse_number
from .errors import ConfigError


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


def _parse_int(value: str, key: str, lineno: int) -> int:
    try:
        return parse_number(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects an integer, got {value!r}") from None


def _parse_range(value: str, key: str, lineno: int) -> tuple[int, int]:
    parts = [p.strip() for p in value.split("-")]
    if len(parts) == 1:
        lo = hi = _parse_int(parts[0], key, lineno)
    elif len(parts) == 2:
        lo = _parse_int(parts[0], key, lineno)
        hi = _parse_int(parts[1], key, lineno)
    else:
        raise ConfigError(f"line {lineno}: {key} expects 'lo-hi' or a single value, got {value!r}")
    return lo, hi


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
        if key.startswith("speed."):
            label = key[len("speed."):].strip()
            if not label:
                raise ConfigError(f"line {lineno}: speed range needs a class label")
            cfg.speed_ranges[label] = _parse_range(value, key, lineno)
        elif key == "arrival_gap_max":
            cfg.arrival_gap_max = _parse_int(value, key, lineno)
        elif key == "seed":
            cfg.seed = _parse_int(value, key, lineno)
        elif key == "sizes":
            cfg.sizes = tuple(_parse_int(p.strip(), key, lineno) for p in value.split(","))
        elif key == "runs_per_size":
            cfg.runs_per_size = _parse_int(value, key, lineno)
        elif key == "base_seed":
            cfg.base_seed = _parse_int(value, key, lineno)
        elif key == "counting_mode":
            if value not in ("event", "literal"):
                raise ConfigError(f"line {lineno}: counting_mode must be 'event' or 'literal'")
            cfg.counting_mode = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg
