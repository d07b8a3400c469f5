"""Loader for the reference data bundled with the package.

One file ships under laneflow/data:

* token_samples.csv  ten raw per-class count rows (census format); the
                     default sampling source for the CLI
"""

from __future__ import annotations

from importlib import resources

from .census import CensusTable, parse_census


def load_token_samples() -> CensusTable:
    data = resources.files("laneflow").joinpath("data", "token_samples.csv")
    return parse_census(data.read_text(encoding="utf-8"))
