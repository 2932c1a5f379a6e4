"""Microdata ingestion and aggregation into interval datasets.

Microdata arrive as (group key, variable, value) records; aggregation trims
a fixed count from each tail of every cell and takes the min/max of what
remains, and maps the kept values onto the latent scale [-1, 1]
(``scale_to_latent``). Cells left with zero range are dropped (with their
whole row, to keep the frame rectangular) and reported.

This module owns the public side: ``MicroRecord``, the record reader,
``aggregate`` and its result, ``scale_to_latent`` and the interval and
scaled-sample writers. They run on ``ivda._aggregation``, which is all the
``aggregate`` command loads: the checked row iterator of a microdata CSV,
the grouping into cells as rows are read, and the aggregation and writers
on plain floats, so that command loads neither numpy nor the value classes.
The other table readers of ``__all__`` and ``ScaledSample`` live beside
the stages that read them and load on first access from the module that
``ivda._DEFINED_IN`` names. numpy (and ``ivda.interval``) load on first
use: in ``scale_to_latent``, ``write_interval_csv`` and the ``frame`` and
``scaled`` of an ``AggregateResult``.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path

from . import _load
from ._aggregation import (
    _KEY_RULE,
    _aggregate,
    _group,
    _microdata,
    _scale,
    _write_intervals,
    _write_scaled,
)
from ._value import Frozen, Value
from .errors import DomainError

__all__ = [
    "MicroRecord",
    "ScaledSample",
    "scale_to_latent",
    "AggregationReport",
    "AggregateResult",
    "aggregate",
    "read_microdata_csv",
    "read_summary_csv",
    "load_interval_csv",
    "write_interval_csv",
    "write_scaled_csv",
    "read_scaled_csv",
]


def __getattr__(name):
    return _load(__name__, name)


class MicroRecord(Frozen):
    """One microdata point: a group key, a variable name, and a value.

    The key must be a non-empty tuple, whose items are stored as
    non-empty strings; any other key, a ``str`` included, raises a
    DomainError, as does a non-finite value.
    """

    __slots__ = _fields = ("key", "variable", "value")

    def __init__(self, key, variable, value):
        if not isinstance(key, tuple):
            # tuple("AA") would split the label into its characters
            raise DomainError(_KEY_RULE)
        if type(key) is not tuple or not all(type(k) is str for k in key):
            key = tuple(map(str, key))
        if not key or "" in key:
            raise DomainError(_KEY_RULE)
        if not math.isfinite(value):
            raise DomainError(f"non-finite value for {key}/{variable}")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "value", value)


def scale_to_latent(values, interval):
    """Map raw microdata v inside ``interval`` to u = 2 (v - c) / r.

    Values may poke out of the interval by at most 1e-9 * max(1, range)
    (they are clamped back); anything further out is reported as a
    violation. A zero-range interval cannot be scaled, and where the range
    overflows, u is (v - c) over the half-width.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    u = _scale(values.ravel().tolist(), interval.lower, interval.upper)
    return np.array(u, dtype=float).reshape(values.shape)


class AggregationReport(Value):
    """Rows dropped while aggregating, each with the reasons it was dropped."""

    __slots__ = _fields = ("dropped_rows",)

    def __init__(self, dropped_rows=()):
        self.dropped_rows = list(dropped_rows)


class AggregateResult(Value):
    """What ``aggregate`` kept, in plain floats.

    ``lower`` and ``upper`` hold one list of bounds per kept row, in the
    order of ``labels`` and ``names``; ``samples`` maps each variable with
    scaled microdata to its (row labels, values). ``frame`` (an
    ``IntervalFrame``) and ``scaled`` (``ScaledSample``s by variable) are
    built from them on first read.
    """

    # no __slots__: the cached properties are stored in the instance __dict__
    _fields = ("names", "labels", "lower", "upper", "samples", "report")

    def __init__(self, names, labels, lower, upper, samples, report):
        self.names = names
        self.labels = labels
        self.lower = lower
        self.upper = upper
        self.samples = samples
        self.report = report

    @cached_property
    def frame(self):
        from .interval import IntervalFrame

        return IntervalFrame(self.lower, self.upper, self.names, labels=self.labels)

    @cached_property
    def scaled(self):
        import numpy as np

        from ._scaled import ScaledSample

        return {name: ScaledSample(variable=name, values=np.array(values), rows=rows)
                for name, (rows, values) in self.samples.items()}


def aggregate(records, trim=0.0, keep_degenerate=False):
    """Aggregate microdata records into an interval frame.

    Per (group, variable) cell, the floor(trim * n) smallest and largest
    values are dropped and the interval is the min/max of the remainder;
    as trim < 0.5, the remainder is never empty. Rows containing a
    degenerate (zero-range) or empty cell are dropped and reported, unless
    ``keep_degenerate`` is set with trim zero. Scaled microdata for every
    retained, non-degenerate cell are returned alongside. Output ordering
    is deterministic: rows sorted by group key, variables sorted by name.
    """
    names, labels, lower, upper, samples, dropped = _aggregate(
        _group((rec.key, rec.variable, rec.value) for rec in records), trim, keep_degenerate)
    return AggregateResult(names=names, labels=labels, lower=lower, upper=upper,
                           samples=samples, report=AggregationReport(dropped))


def read_microdata_csv(path):
    """Read records from a CSV with columns group1[,group2,...],variable,value."""
    path = Path(path)
    return [MicroRecord(key, variable, value) for key, variable, value in _microdata(path)]


def write_interval_csv(frame, path, mode="bounds"):
    """Write an interval dataset to CSV, losslessly (shortest round-trip
    float representation). ``mode`` picks bounds (.lo/.hi) or centre/range
    (.c/.r) columns."""
    if mode not in ("bounds", "centre_range"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "bounds":
        suffixes, first, second = (".lo", ".hi"), frame.lower, frame.upper
    else:
        suffixes, (first, second) = (".c", ".r"), frame.centres_ranges()
    _write_intervals(path, frame.names, frame.labels, first.tolist(), second.tolist(),
                     suffixes)


def write_scaled_csv(scaled, path):
    """Write scaled microdata samples as long-form CSV variable,row,value."""
    _write_scaled(path, {name: (sample.rows if sample.rows is not None
                                else ("",) * sample.values.size, sample.values.tolist())
                         for name, sample in scaled.items()})
