"""Microdata ingestion and aggregation into interval datasets.

Microdata arrive as (group key, variable, value) records; aggregation trims
a fixed count from each tail of every cell and takes the min/max of what
remains, and maps the kept values onto the latent scale [-1, 1]
(``scale_to_latent``). Cells left with zero range are dropped (with their
whole row, to keep the frame rectangular) and reported.

This module owns the microdata reader and the aggregation, which is all the
``aggregate`` command runs; they work on plain floats, so that command never
loads numpy. Every table format, ``ScaledSample`` and the interval,
scaled-sample and summary readers and writers among them, lives in
``ivda._tables`` and is re-exported here. numpy (and ``ivda.interval``) load
on first use: in ``scale_to_latent`` and the ``frame`` and ``scaled`` of an
``AggregateResult``.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter
from pathlib import Path

from ._tables import (
    ScaledSample,
    _check_scaled,
    _read_table,
    _refuse_repeated,
    load_interval_csv,
    read_scaled_csv,
    read_summary_csv,
    write_interval_csv,
    write_scaled_csv,
)
from ._value import Frozen, Value
from .errors import DataValidationError, DomainError

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

_KEY_RULE = "record key must be a non-empty tuple of non-empty strings"


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


def _scale(values, lower, upper):
    """The floats u = 2 (v - c) / r, clamped to [-1, 1], of the floats
    ``values`` inside [lower, upper]: ``scale_to_latent`` on plain floats.
    Each step is one IEEE operation, as in numpy, so both give the same
    bits."""
    r = upper - lower
    if r == 0.0:
        raise DomainError("cannot scale values inside a zero-range interval")
    tol = 1e-9 * max(1.0, r)
    least, most = lower - tol, upper + tol
    bad = [k for k, v in enumerate(values) if v < least or v > most]
    if bad:
        shown = ", ".join(f"[{k}]={values[k]!r}" for k in bad[:5])
        raise DataValidationError(
            f"{len(bad)} value(s) outside [{lower}, {upper}]: {shown}")
    c = 0.5 * (lower + upper)
    if not math.isfinite(c):
        # the bounds' sum overflowed; halving each first keeps every finite
        # case's bits
        c = 0.5 * lower + 0.5 * upper
    # NaN, from an overflowed range, passes the clamp, as through np.clip
    return [-1.0 if u < -1.0 else 1.0 if u > 1.0 else u
            for u in [2.0 * (v - c) / r for v in values]]


def scale_to_latent(values, interval):
    """Map raw microdata v inside ``interval`` to u = 2 (v - c) / r.

    Values may poke out of the interval by at most 1e-9 * max(1, range)
    (they are clamped back); anything further out is reported as a
    violation. A zero-range interval cannot be scaled.
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

        return {name: ScaledSample(variable=name, values=np.array(values), rows=rows)
                for name, (rows, values) in self.samples.items()}


def _label(key):
    return ":".join(key)


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
    if not (0.0 <= trim < 0.5):
        raise DomainError("trim must lie in [0, 0.5)")
    cells = {}
    variables = set()
    for rec in records:
        variables.add(rec.variable)
        cells.setdefault(rec.key, {}).setdefault(rec.variable, []).append(rec.value)
    if not cells:
        raise DataValidationError("no records to aggregate")
    names = sorted(variables)
    report = AggregationReport()

    kept_rows = []
    for key in sorted(cells):
        row = cells[key]
        row_out = {}
        drop_reasons = []
        for name in names:
            values = row.get(name)
            if not values:
                drop_reasons.append(f"empty cell {name}")
                continue
            values = sorted(values)
            k = int(trim * len(values))
            rest = values[k:len(values) - k] if k else values
            lo, hi = rest[0], rest[-1]
            if hi - lo == 0.0 and not (keep_degenerate and trim == 0.0):
                drop_reasons.append(f"degenerate cell {name} ({lo})")
                continue
            row_out[name] = (lo, hi, rest)
        if drop_reasons:
            report.dropped_rows.append((_label(key), drop_reasons))
            continue
        kept_rows.append((_label(key), row_out))

    if not kept_rows:
        raise DataValidationError("every row was dropped during aggregation",
                                  violations=report.dropped_rows)

    samples = {}
    for name in names:
        values = []
        rows = []
        for label, row in kept_rows:
            lo, hi, rest = row[name]
            if hi - lo == 0.0:
                continue
            values += _scale(rest, lo, hi)
            rows += [label] * len(rest)
        if values:
            _check_scaled(name, values)
            samples[name] = (tuple(rows), values)
    return AggregateResult(
        names=tuple(names), labels=tuple(label for label, _ in kept_rows),
        lower=[[row[name][0] for name in names] for _, row in kept_rows],
        upper=[[row[name][1] for name in names] for _, row in kept_rows],
        samples=samples, report=report)


def read_microdata_csv(path):
    """Read records from a CSV with columns group1[,group2,...],variable,value."""
    path = Path(path)
    header, rows = _read_table(path)
    header = [h.strip() for h in header]
    _refuse_repeated(header, path)
    try:
        var_col = header.index("variable")
        val_col = header.index("value")
    except ValueError:
        raise DataValidationError(
            f"{path}: header must contain 'variable' and 'value' columns") from None
    key_cols = [i for i in range(len(header)) if i not in (var_col, val_col)]
    if not key_cols:
        raise DataValidationError(f"{path}: at least one group column is required")
    # the variable, then the key: a tuple of at least two cells
    cells_of = itemgetter(var_col, *key_cols)
    records = []
    for line, row in rows:
        try:
            value = float(row[val_col])
        except ValueError:
            raise DataValidationError(
                f"{path}:{line}: cannot parse value field") from None
        cells = cells_of(row)
        try:
            records.append(MicroRecord(cells[1:], cells[0], value))
        except DomainError as exc:
            raise DataValidationError(f"{path}:{line}: {exc}") from exc
    return records
