"""Every CSV format that ivda reads or writes.

Interval tables (bounds or centre/range columns), long-form scaled
microdata, summary statistics and labelled matrices. Each reader takes its
rows from ``_read_table``, so one rule decides what a well-formed row is,
and each writer goes through ``_write_csv``, which writes every number as
its shortest round-trip repr, so tables read back losslessly. The public
readers and writers are re-exported by ``ivda.ingest``, which keeps the
microdata reader and the aggregation. numpy (and ``ivda.interval``) load
on first use, so the numpy-free ``aggregate`` command can write its tables
from here.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ._value import Frozen
from .errors import DataValidationError, DomainError

__all__ = [
    "ScaledSample",
    "read_summary_csv",
    "load_interval_csv",
    "write_interval_csv",
    "write_scaled_csv",
    "read_scaled_csv",
]


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


def _write_matrix_csv(matrix, names, path):
    """Write a square matrix with ``names`` as its header and row labels."""
    import numpy as np

    _write_csv(path, ["", *names],
               (((name,), row) for name, row in zip(names, np.asarray(matrix).tolist())))


def _read_matrix_csv(path):
    """The matrix and the column names of a ``_write_matrix_csv`` table."""
    import numpy as np

    header, rows = _read_table(path)
    matrix = []
    for line, cells in rows:
        try:
            matrix.append([float(v) for v in cells[1:]])
        except ValueError:
            raise DataValidationError(f"{path}:{line}: a matrix cell is not a number") from None
    return np.array(matrix), header[1:]
