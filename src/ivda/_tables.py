"""The CSV rules that every table of ivda shares.

``_read_table`` is the one row iterator: it decides what a well-formed row
is and which line it starts on, and yields rows as it reads them, so no
reader holds the file's rows at once. Every writer writes each number as
its shortest round-trip repr, so tables read back losslessly.

Each format lives beside the code of the stage that reads or writes it, so
a stage compiles only its own: the microdata reader and the interval and
scaled-sample writers in ``ivda._aggregation`` (with ``_write_csv``, which
``ellipse`` and ``pairs-data`` write with too), the scaled-sample reader
in ``ivda._scaled``, the interval reader in ``ivda.interval``, the summary
reader in ``ivda.estimation`` and the matrix writer and reader in the
commands that use them. ``ivda.ingest`` re-exports the public readers and
writers.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import DataValidationError

def _check_scaled(variable, values):
    # NaN fails both comparisons
    if not all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in values):
        raise DataValidationError(f"scaled values for {variable!r} must lie in [-1, 1]")


def _read_table(path):
    """Yield the header of a CSV table, then ``(line, cells)`` for each data
    row, as the rows are read.

    All-blank rows are skipped; any other row must have the header's number
    of fields. ``line`` is the physical line the row starts on, so a quoted
    cell that spans lines does not shift the count. The first ``next()``
    raises on an empty file.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataValidationError(f"{path}: empty file")
        yield header
        width = len(header)
        end = reader.line_num
        for cells in reader:
            line, end = end + 1, reader.line_num
            if not "".join(cells).strip():
                continue
            if len(cells) != width:
                raise DataValidationError(
                    f"{path}:{line}: row has {len(cells)} fields, the header {width}")
            yield line, cells


def _refuse_repeated(names, path):
    # a column named twice would be read from one copy and the other dropped;
    # only a table's own header can tell (a matrix header repeats row labels)
    seen = set()
    for name in names:
        if name in seen:
            raise DataValidationError(f"{path}: the header names column {name!r} twice")
        seen.add(name)
