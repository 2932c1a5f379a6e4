"""The scaled-microdata table as the ``fit`` stage reads it: ``ScaledSample``
and ``read_scaled_csv``, which ``ivda.ingest`` re-exports. Its writer runs
on plain floats in ``ivda._aggregation``, so the ``aggregate`` stage, which
writes the table, compiles none of this. numpy loads when one of them runs.
"""

from __future__ import annotations

from array import array
from pathlib import Path

from ._tables import _check_scaled, _read_table, _refuse_repeated
from ._value import Record
from .errors import DataValidationError, DomainError


class ScaledSample(Record):
    """Microdata of one variable mapped onto [-1, 1], with row provenance.

    Every value must be finite and within 1e-9 of [-1, 1]; it is clamped
    into [-1, 1].
    """

    __slots__ = _fields = ("variable", "values", "rows")

    def __init__(self, variable, values, rows=None):
        import numpy as np

        values = np.asarray(values, dtype=float)
        # the extremes decide, and a NaN propagates into both
        _check_scaled(variable, (values.min(), values.max()) if values.size else ())
        if rows is not None and len(rows) != values.size:
            raise DomainError("provenance length must match the number of values")
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "values", np.clip(values, -1.0, 1.0))
        object.__setattr__(self, "rows", rows)


def read_scaled_csv(path):
    """Read long-form scaled microdata (variable,row,value) back into
    ScaledSample objects, by variable."""
    import numpy as np

    path = Path(path)
    rows = _read_table(path)
    header = next(rows)
    _refuse_repeated(header, path)
    required = ("variable", "row", "value")
    if not set(required).issubset(header):
        raise DataValidationError(
            f"{path}: header must contain columns {sorted(required)}")
    var_col, row_col, val_col = map(header.index, required)
    # each variable's values as 8-byte doubles, not 32-byte Python floats
    data = {}
    # the table repeats a cell's row label once per value: keep one copy each
    labels = {}
    for line, cells in rows:
        try:
            value = float(cells[val_col])
        except ValueError:
            raise DataValidationError(
                f"{path}:{line}: cannot parse value field") from None
        entry = data.get(cells[var_col])
        if entry is None:
            entry = data[cells[var_col]] = (array("d"), [])
        entry[0].append(value)
        label = cells[row_col]
        entry[1].append(labels.setdefault(label, label))
    return {name: ScaledSample(variable=name, values=np.frombuffer(values),
                               rows=tuple(row_ids))
            for name, (values, row_ids) in data.items()}
