"""Microdata ingestion and aggregation into interval datasets.

Microdata arrive as (group key, variable, value) records; aggregation trims
a fixed count from each tail of every cell and takes the min/max of what
remains, and maps the kept values onto the latent scale [-1, 1]
(``scale_to_latent``). Cells left with zero range are dropped (with their
whole row, to keep the frame rectangular) and reported. Interval datasets round-trip
through CSV losslessly. Every CSV reader takes its rows from ``_read_table``,
so one rule decides what a well-formed row is.

Reading microdata, ``aggregate`` and the CSV writers' number format run on
plain floats, so the ``aggregate`` command never loads numpy. numpy (and
``ivda.interval``) load on first use: in ``ScaledSample``, ``scale_to_latent``,
the interval and scaled-sample readers and writers, ``read_summary_csv``, and
the ``frame`` and ``scaled`` of an ``AggregateResult``.
"""

from __future__ import annotations

import csv
import math
from functools import cached_property
from operator import itemgetter
from pathlib import Path

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


def _check_scaled(variable, values):
    # NaN fails both comparisons
    if not all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in values):
        raise DataValidationError(f"scaled values for {variable!r} must lie in [-1, 1]")


class ScaledSample(Frozen):
    """Microdata of one variable mapped onto [-1, 1], with row provenance.

    Every value must be finite and within 1e-9 of [-1, 1]; it is clamped
    into [-1, 1].
    """

    __slots__ = _fields = ("variable", "values", "rows")

    def __init__(self, variable, values, rows=None):
        import numpy as np

        values = np.asarray(values, dtype=float)
        _check_scaled(variable, values.ravel().tolist())
        if rows is not None and len(rows) != values.size:
            raise DomainError("provenance length must match the number of values")
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "values", np.clip(values, -1.0, 1.0))
        object.__setattr__(self, "rows", rows)


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
    """Write ``{variable: (row labels, values)}`` as long-form CSV
    variable,row,value, variables in name order."""
    _write_csv(path, ["variable", "row", "value"],
               (((name, row), (value,)) for name in sorted(samples)
                for row, value in zip(*samples[name])))


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


def read_summary_csv(path):
    """Read summary statistics rows: group,variable,mean,median,min,max.

    Returns {variable: list of (group, mean, median, Interval)} preserving
    row order within each variable.
    """
    from .interval import Interval

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
    import numpy as np

    from .interval import IntervalFrame

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
    _write_intervals(path, frame.names, frame.labels, first.tolist(), second.tolist(),
                     suffixes)


def write_scaled_csv(scaled, path):
    """Write scaled microdata samples as long-form CSV variable,row,value."""
    _write_scaled(path, {name: (sample.rows if sample.rows is not None
                                else ("",) * sample.values.size, sample.values.tolist())
                         for name, sample in scaled.items()})


def read_scaled_csv(path):
    """Read long-form scaled microdata back into ScaledSample objects."""
    import numpy as np

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
