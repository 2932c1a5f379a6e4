"""Bundled fixture datasets and their locations.

The bundled fixtures are deterministic synthetic datasets shipped with the
package (see scripts/gen_fixtures.py in the repository for the generators).
Real external datasets, fetched separately, are looked up in the directory
named by the IVDA_DATA_DIR environment variable.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from ._tables import load_interval_csv, read_summary_csv
from .ingest import read_microdata_csv

__all__ = [
    "DATA_ENV",
    "bundled_path",
    "external_path",
    "credit_card_intervals",
    "credit_card_microdata",
    "rtt_summaries",
    "flights_like_microdata",
]

DATA_ENV = "IVDA_DATA_DIR"


def bundled_path(name):
    """Path of a bundled data file, honouring the IVDA_DATA_DIR override."""
    override = os.environ.get(DATA_ENV)
    if override:
        candidate = Path(override) / name
        if candidate.exists():
            return candidate
    return Path(str(resources.files("ivda").joinpath("data", name)))


def external_path(name):
    """Path of a fetched (non-bundled) dataset, or None when absent."""
    base = os.environ.get(DATA_ENV)
    if not base:
        return None
    candidate = Path(base) / name
    return candidate if candidate.exists() else None


def credit_card_intervals():
    """Monthly spending intervals fixture: 36 rows, five variables."""
    return load_interval_csv(bundled_path("credit_card_intervals.csv"))


def credit_card_microdata():
    """The microdata behind the spending intervals fixture."""
    return read_microdata_csv(bundled_path("credit_card_microdata.csv"))


def rtt_summaries():
    """Round-trip-time style summary statistics fixture (eight probes)."""
    return read_summary_csv(bundled_path("rtt_summary.csv"))


def flights_like_microdata():
    """Synthetic flights-like microdata for pipeline exercises."""
    return read_microdata_csv(bundled_path("flights_like_microdata.csv"))
