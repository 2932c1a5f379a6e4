"""What the ``aggregate`` command runs: microdata CSV in, interval and
scaled-sample CSVs out, on plain floats and lists.

``_microdata`` is the checked row iterator of a microdata CSV, which
``ivda.ingest.read_microdata_csv`` reads too; ``_group`` puts rows into
(group key, variable) cells as they come, and ``_aggregate`` trims, bounds
and scales each cell. The stage holds each value once, as a float in its
cell, and never loads numpy or the value classes: ``ivda.ingest`` builds
its records and its ``AggregateResult`` on this module.
"""

from __future__ import annotations

import csv
import math
from itertools import repeat
from operator import itemgetter
from pathlib import Path

from ._tables import _read_table, _refuse_repeated
from .errors import DataValidationError, DomainError

_KEY_RULE = "record key must be a non-empty tuple of non-empty strings"


def _scale(values, lower, upper):
    """The floats u = 2 (v - c) / r, clamped to [-1, 1], of the floats
    ``values`` inside [lower, upper]: ``scale_to_latent`` on plain floats.
    Values may lie outside by 1e-9 * max(1, r), taken as twice the
    half-width so that it stays finite where r overflows."""
    if upper == lower:
        raise DomainError("cannot scale values inside a zero-range interval")
    tol = 2e-9 * max(0.5, 0.5 * upper - 0.5 * lower)
    least, most = lower - tol, upper + tol
    bad = [k for k, v in enumerate(values) if v < least or v > most]
    if bad:
        shown = ", ".join(f"[{k}]={values[k]!r}" for k in bad[:5])
        raise DataValidationError(
            f"{len(bad)} value(s) outside [{lower}, {upper}]: {shown}")
    return _unit_scale(values, lower, upper)


def _unit_scale(values, lower, upper):
    """``_scale`` without its check, which the triangular-Pearson fit runs
    on modes that may lie outside their interval. Each step is one IEEE
    operation, as in numpy, so both give the same bits."""
    c = 0.5 * (lower + upper)
    if not math.isfinite(c):
        # the bounds' sum overflowed; halving each first keeps every finite
        # case's bits
        c = 0.5 * lower + 0.5 * upper
    k, r = 2.0, upper - lower
    if not math.isfinite(r):
        # 2 (v - c) / r would be inf / inf; the half-width keeps it finite
        k, r = 1.0, 0.5 * upper - 0.5 * lower
    return [-1.0 if u < -1.0 else 1.0 if u > 1.0 else u
            for u in [k * (v - c) / r for v in values]]


def _label(key):
    return ":".join(key)


def _group(rows):
    """``{key: {variable: values}}`` of ``(key, variable, value)`` rows, in
    the order the rows come."""
    cells = {}
    for key, variable, value in rows:
        row = cells.get(key)
        if row is None:
            cells[key] = {variable: [value]}
        elif variable in row:
            row[variable].append(value)
        else:
            row[variable] = [value]
    return cells


def _aggregate(cells, trim, keep_degenerate):
    """``aggregate`` on the cells of ``_group``, whose value lists it sorts
    and trims in place: the names, labels, lower and upper bounds, samples
    and dropped rows of an ``AggregateResult``, in plain lists."""
    if not (0.0 <= trim < 0.5):
        raise DomainError("trim must lie in [0, 0.5)")
    if not cells:
        raise DataValidationError("no records to aggregate")
    names = sorted({name for row in cells.values() for name in row})
    dropped = []

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
            values.sort()
            k = int(trim * len(values))
            if k:
                del values[len(values) - k:], values[:k]
            lo, hi = values[0], values[-1]
            if hi - lo == 0.0 and not (keep_degenerate and trim == 0.0):
                drop_reasons.append(f"degenerate cell {name} ({lo})")
                continue
            row_out[name] = (lo, hi, values)
        if drop_reasons:
            dropped.append((_label(key), drop_reasons))
            continue
        kept_rows.append((_label(key), row_out))

    if not kept_rows:
        raise DataValidationError("every row was dropped during aggregation",
                                  violations=dropped)

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
            samples[name] = (tuple(rows), values)
    return (tuple(names), tuple(label for label, _ in kept_rows),
            [[row[name][0] for name in names] for _, row in kept_rows],
            [[row[name][1] for name in names] for _, row in kept_rows],
            samples, dropped)


def _microdata(path):
    """Yield ``(key, variable, value)`` for each row of a microdata CSV
    with columns group1[,group2,...],variable,value, as ``MicroRecord``
    checks its fields; a bad row raises ``DataValidationError`` naming its
    line."""
    rows = _read_table(path)
    header = [h.strip() for h in next(rows)]
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
    isfinite = math.isfinite
    for line, row in rows:
        try:
            value = float(row[val_col])
        except ValueError:
            raise DataValidationError(f"{path}:{line}: cannot parse value field") from None
        cells = cells_of(row)
        key = cells[1:]
        if "" in key:
            raise DataValidationError(f"{path}:{line}: {_KEY_RULE}")
        if not isfinite(value):
            raise DataValidationError(
                f"{path}:{line}: non-finite value for {key}/{cells[0]}")
        yield key, cells[0], value


def _write_csv(path, header, rows):
    """Write a CSV table of ``(text cells, numbers)`` rows, each number as
    its shortest round-trip repr, so that the table reads back losslessly."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([*text, *[repr(float(x)) for x in numbers]] for text, numbers in rows)


def _write_intervals(path, names, labels, first, second, suffixes=(".lo", ".hi")):
    """Write an interval CSV: a label column unless ``labels`` is None, then
    two columns per variable, from the row lists ``first`` and ``second``."""
    header = [name + sfx for name in names for sfx in suffixes]
    if labels is not None:
        header.insert(0, "label")
    text = [()] * len(first) if labels is None else [(label,) for label in labels]
    _write_csv(path, header, ((cells, [x for pair in zip(a, b) for x in pair])
                              for cells, a, b in zip(text, first, second)))


def _write_scaled(path, samples):
    """Write ``{variable: (row labels, float values)}`` as long-form CSV
    variable,row,value, variables in name order, one ``writerows`` call
    per variable."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "row", "value"])
        for name in sorted(samples):
            rows, values = samples[name]
            writer.writerows(zip(repeat(name), rows, map(repr, values)))
