"""Shared helpers: seeded random vehicle streams for property tests."""

from __future__ import annotations

import random

from laneflow import VehicleRecord


def make_stream(seed: int, max_n: int = 200, float_share: float = 0.0) -> list[VehicleRecord]:
    """A reproducible random stream; float_share mixes in decimal speeds."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    vehicles = []
    for i in range(n):
        if float_share and rng.random() < float_share:
            speed: int | float = round(rng.uniform(0.5, 100.4), 1)
        else:
            speed = rng.randint(1, 100)
        vehicles.append(
            VehicleRecord(id=f"v{i + 1}", speed=speed, arrival=rng.randint(0, 300))
        )
    return vehicles


def fail_write_number(monkeypatch, failing: int) -> None:
    """Make the failing-th output file write (1-based) stop halfway: disk full.

    laneflow.report writes every output file; the patched open hands out a
    file whose write puts half the text on disk and then raises ENOSPC.
    """
    import errno

    from laneflow import report

    calls = []

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def patched_open(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        calls.append(file)
        return HalfWriter(fh) if len(calls) == failing else fh

    monkeypatch.setattr(report, "open", patched_open, raising=False)
