"""Microdata ingestion and aggregation into interval datasets.

Microdata arrive as (group key, variable, value) records; aggregation trims
a fixed count from each tail of every cell and takes the min/max of what
remains, and maps the kept values onto the latent scale [-1, 1]
(``scale_to_latent``). Cells left with zero range are dropped (with their
whole row, to keep the frame rectangular) and reported. Interval datasets round-trip
through CSV losslessly. Every CSV reader takes its rows from ``_read_table``,
so one rule decides what a well-formed row is.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataValidationError, DomainError
from .interval import Interval, IntervalFrame

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


@dataclass(frozen=True)
class MicroRecord:
    """One microdata point: a group key, a variable name, and a value."""

    key: tuple
    variable: str
    value: float

    def __post_init__(self):
        object.__setattr__(self, "key", tuple(str(k) for k in self.key))
        if not self.key or any(k == "" for k in self.key):
            raise DomainError("record key must be a non-empty tuple of non-empty strings")
        if not math.isfinite(self.value):
            raise DomainError(f"non-finite value for {self.key}/{self.variable}")


@dataclass(frozen=True)
class ScaledSample:
    """Microdata of one variable mapped onto [-1, 1], with row provenance."""

    variable: str
    values: np.ndarray
    rows: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size and (np.any(values < -1.0 - 1e-9)
                            or np.any(values > 1.0 + 1e-9)
                            or np.any(~np.isfinite(values))):
            raise DataValidationError(
                f"scaled values for {self.variable!r} must lie in [-1, 1]")
        object.__setattr__(self, "values", np.clip(values, -1.0, 1.0))
        if self.rows is not None and len(self.rows) != values.size:
            raise DomainError("provenance length must match the number of values")


def scale_to_latent(values, interval):
    """Map raw microdata v inside ``interval`` to u = 2 (v - c) / r.

    Values may poke out of the interval by at most 1e-9 * max(1, range)
    (they are clamped back); anything further out is reported as a
    violation. A zero-range interval cannot be scaled.
    """
    values = np.asarray(values, dtype=float)
    r = interval.range
    if r == 0.0:
        raise DomainError("cannot scale values inside a zero-range interval")
    tol = 1e-9 * max(1.0, r)
    bad = np.flatnonzero((values < interval.lower - tol) | (values > interval.upper + tol))
    if bad.size:
        shown = ", ".join(f"[{k}]={values[k]!r}" for k in bad[:5])
        raise DataValidationError(
            f"{bad.size} value(s) outside [{interval.lower}, {interval.upper}]: {shown}")
    u = 2.0 * (values - interval.centre) / r
    return np.clip(u, -1.0, 1.0)


@dataclass
class AggregationReport:
    """Rows dropped while aggregating, each with the reasons it was dropped."""

    dropped_rows: list = field(default_factory=list)


@dataclass
class AggregateResult:
    frame: IntervalFrame
    scaled: dict
    report: AggregationReport


def _label(key):
    return ":".join(key)


def aggregate(records, trim=0.0, keep_degenerate=False):
    """Aggregate microdata records into an interval frame.

    Per (group, variable) cell, the floor(trim * n) smallest and largest
    values are dropped and the interval is the min/max of the remainder.
    Rows containing a degenerate (zero-range) or emptied cell are dropped
    and reported, unless ``keep_degenerate`` is set with trim zero. Scaled
    microdata for every retained, non-degenerate cell are returned
    alongside. Output ordering is deterministic: rows sorted by group key,
    variables sorted by name.
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

    keys = sorted(cells)
    kept_rows = []
    for key in keys:
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
            if not rest:
                drop_reasons.append(f"cell {name} emptied by trimming")
                continue
            lo, hi = rest[0], rest[-1]
            if hi - lo == 0.0 and not (keep_degenerate and trim == 0.0):
                drop_reasons.append(f"degenerate cell {name} ({lo})")
                continue
            row_out[name] = (lo, hi, rest)
        if drop_reasons:
            report.dropped_rows.append((_label(key), drop_reasons))
            continue
        kept_rows.append((key, row_out))

    if not kept_rows:
        raise DataValidationError("every row was dropped during aggregation",
                                  violations=report.dropped_rows)

    labels = [_label(key) for key, _ in kept_rows]
    lower = np.array([[row[name][0] for name in names] for _, row in kept_rows])
    upper = np.array([[row[name][1] for name in names] for _, row in kept_rows])
    frame = IntervalFrame(lower, upper, names, labels=labels)

    scaled = {}
    for j, name in enumerate(names):
        values = []
        rows = []
        for i, (key, row) in enumerate(kept_rows):
            lo, hi, rest = row[name]
            if hi - lo == 0.0:
                continue
            values.append(scale_to_latent(rest, Interval(lo, hi)))
            rows.extend([labels[i]] * len(rest))
        if values:
            scaled[name] = ScaledSample(variable=name,
                                        values=np.concatenate(values),
                                        rows=tuple(rows))
    return AggregateResult(frame=frame, scaled=scaled, report=report)


# --- CSV formats ----------------------------------------------------------

def _read_table(path):
    """The header of a CSV table and ``(line, cells)`` for each data row.

    All-blank rows are skipped; any other row must have the header's number
    of fields. ``line`` is the physical line the row starts on, so a quoted
    cell that spans lines does not shift the count.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataValidationError(f"{path}: empty file")
        rows = []
        end = reader.line_num
        for cells in reader:
            line, end = end + 1, reader.line_num
            if not "".join(cells).strip():
                continue
            if len(cells) != len(header):
                raise DataValidationError(
                    f"{path}:{line}: row has {len(cells)} fields, the header {len(header)}")
            rows.append((line, cells))
    return header, rows


def _refuse_repeated(names, path):
    # a column named twice would be read from one copy and the other dropped;
    # only a table's own header can tell (a matrix header repeats row labels)
    seen = set()
    for name in names:
        if name in seen:
            raise DataValidationError(f"{path}: the header names column {name!r} twice")
        seen.add(name)


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
    records = []
    for line, row in rows:
        try:
            value = float(row[val_col])
        except ValueError:
            raise DataValidationError(
                f"{path}:{line}: cannot parse value field") from None
        try:
            records.append(MicroRecord(key=tuple(row[i] for i in key_cols),
                                       variable=row[var_col], value=value))
        except DomainError as exc:
            raise DataValidationError(f"{path}:{line}: {exc}") from exc
    return records


def read_summary_csv(path):
    """Read summary statistics rows: group,variable,mean,median,min,max.

    Returns {variable: list of (group, mean, median, Interval)} preserving
    row order within each variable.
    """
    path = Path(path)
    header, rows = _read_table(path)
    _refuse_repeated(header, path)
    required = {"group", "variable", "mean", "median", "min", "max"}
    if not required.issubset(header):
        raise DataValidationError(
            f"{path}: header must contain columns {sorted(required)}")
    out = {}
    for line, cells in rows:
        row = dict(zip(header, cells))
        try:
            iv = Interval(float(row["min"]), float(row["max"]))
            out.setdefault(row["variable"], []).append(
                (row["group"], float(row["mean"]), float(row["median"]), iv))
        except (ValueError, DomainError) as exc:
            raise DataValidationError(f"{path}:{line}: {exc}") from exc
    return out


# each column suffix: its encoding (0 bounds, 1 centre and range) and its slot
_SUFFIXES = {".lo": (0, 1), ".hi": (0, 2), ".c": (1, 1), ".r": (1, 2)}


def _parse_interval_header(header, path):
    _refuse_repeated([h.strip() for h in header], path)
    seen = {}           # name -> [mode, first column, second column]
    label_col = None
    for idx, raw in enumerate(header):
        col = raw.strip()
        sfx = next((sfx for sfx in _SUFFIXES if col.endswith(sfx)), None)
        if sfx is None:
            if idx != 0:
                raise DataValidationError(
                    f"{path}: unrecognized column {col!r} (expected .lo/.hi or .c/.r)")
            label_col = idx
            continue
        mode, slot = _SUFFIXES[sfx]
        name = col[:-len(sfx)]
        entry = seen.setdefault(name, [mode, None, None])
        if entry[0] != mode:
            raise DataValidationError(f"{path}: variable {name!r} mixes column encodings")
        entry[slot] = idx
    for name, (_, first, second) in seen.items():
        if first is None or second is None:
            raise DataValidationError(
                f"{path}: variable {name!r} is missing its paired column")
    if not seen:
        raise DataValidationError(f"{path}: no interval columns found")
    # (name, mode, first column, second column), in the order of the first
    return label_col, sorted(((name, *entry) for name, entry in seen.items()),
                             key=lambda item: item[2])


def load_interval_csv(path):
    """Load an interval dataset from CSV.

    Each variable occupies two columns, ``name.lo,name.hi`` (bounds) or
    ``name.c,name.r`` (centre and range), detected per variable from the
    header. An unsuffixed first column is the row label. Out-of-order
    bounds are loaded as-is and surface through ``IntervalFrame.validate``.
    """
    path = Path(path)
    header, rows = _read_table(path)
    label_col, pairs = _parse_interval_header(header, path)
    if not rows:
        raise DataValidationError(f"{path}: no data rows")
    lower, upper = np.empty((len(rows), len(pairs))), np.empty((len(rows), len(pairs)))
    for i, (line, row) in enumerate(rows):
        for j, (name, mode, i1, i2) in enumerate(pairs):
            try:
                v1, v2 = float(row[i1]), float(row[i2])
            except ValueError:
                raise DataValidationError(
                    f"{path}:{line}: cannot parse variable {name!r}") from None
            lower[i, j], upper[i, j] = (v1, v2) if mode == 0 else (v1 - 0.5 * v2, v1 + 0.5 * v2)
    labels = None if label_col is None else [row[label_col] for _, row in rows]
    return IntervalFrame(lower, upper, [name for name, *_ in pairs], labels=labels)


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
    labels = frame.labels
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow((["label"] if labels is not None else [])
                        + [name + sfx for name in frame.names for sfx in suffixes])
        for i in range(frame.n):
            row = [labels[i]] if labels is not None else []
            for j in range(frame.p):
                row.extend((repr(float(first[i, j])), repr(float(second[i, j]))))
            writer.writerow(row)


def write_scaled_csv(scaled, path):
    """Write scaled microdata samples as long-form CSV variable,row,value."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "row", "value"])
        for name in sorted(scaled):
            sample = scaled[name]
            rows = sample.rows if sample.rows is not None else [""] * sample.values.size
            for row_id, value in zip(rows, sample.values):
                writer.writerow([name, row_id, repr(float(value))])


def read_scaled_csv(path):
    """Read long-form scaled microdata back into ScaledSample objects."""
    path = Path(path)
    header, rows = _read_table(path)
    _refuse_repeated(header, path)
    required = {"variable", "row", "value"}
    if not required.issubset(header):
        raise DataValidationError(
            f"{path}: header must contain columns {sorted(required)}")
    data = {}
    for line, cells in rows:
        row = dict(zip(header, cells))
        try:
            value = float(row["value"])
        except ValueError:
            raise DataValidationError(
                f"{path}:{line}: cannot parse value field") from None
        entry = data.setdefault(row["variable"], ([], []))
        entry[0].append(value)
        entry[1].append(row["row"])
    return {name: ScaledSample(variable=name, values=np.array(values),
                               rows=tuple(row_ids))
            for name, (values, row_ids) in data.items()}
