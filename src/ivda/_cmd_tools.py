"""The subcommands off the analyst chain, and the ``--config`` reader.

``compare`` (the Frobenius norm of the difference of two matrix CSVs),
``ellipse`` (the points at one distance from an interval), ``barycentre``
and ``pairs-data`` (which read an interval frame through
``ivda._cmd_measures``), and the defaults that a ``--config`` file sets.
This module imports ``ivda._cmd_measures`` and never the other way round,
so no stage of the analyst chain loads it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import DataValidationError


def _config_defaults(path, sub):
    """The subparser ``sub``'s defaults that the --config file ``path`` sets.

    Each key that the subcommand takes is parsed as its flag: ``--key=value``,
    or a bare ``--key`` for true; null and false set nothing.
    """
    config = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise DataValidationError("config file must hold a JSON object")
    # keys match dests, not flag prefixes: fit's 'scaled' is not --scaled-out
    dests = vars(sub.parse_args([]))
    flags = []
    for key, value in config.items():
        if key.replace("-", "_") in dests and value is not None and value is not False:
            if isinstance(value, (list, dict)):
                raise DataValidationError(f"config key {key!r} is not a single value")
            flag = "--" + key.replace("_", "-")
            flags.append(flag if value is True else f"{flag}={value}")
    return vars(sub.parse_known_args(flags)[0])


def _barycentre_args(p):
    from ._cmd_measures import _frame_args

    _frame_args(p)
    p.add_argument("--out", help="single-row interval CSV output")


def barycentre(args):
    from ._cmd_measures import _load_valid_frame
    from .ingest import write_interval_csv
    from .moments import sample_barycentre

    frame = _load_valid_frame(args.intervals, args.latents)
    bary = sample_barycentre(frame)
    if args.out:
        bary_frame = type(frame)(
            [[iv.lower for iv in bary.box.intervals]],
            [[iv.upper for iv in bary.box.intervals]],
            frame.names, latents=frame.latents, labels=["barycentre"])
        write_interval_csv(bary_frame, args.out)
    return {"centres": [float(v) for v in bary.centres],
            "ranges": [float(v) for v in bary.ranges],
            "frechet_variance": bary.frechet_variance}


def _pairs_data_args(p):
    from ._cmd_measures import _frame_args

    _frame_args(p)
    p.add_argument("--out")


def pairs_data(args):
    from ._cmd_measures import _load_valid_frame
    from ._aggregation import _write_csv
    from .moments import sample_barycentre

    frame = _load_valid_frame(args.intervals, args.latents)
    bary = sample_barycentre(frame)
    lower, upper = frame.lower, frame.upper

    def rows():
        for jx in range(frame.p):
            for jy in range(jx + 1, frame.p):
                pair = (frame.names[jx], frame.names[jy])
                for i in range(frame.n):
                    yield ((*pair, frame.row_label(i), "observation"),
                           (lower[i, jx], upper[i, jx], lower[i, jy], upper[i, jy]))
                bx, by = bary.box.intervals[jx], bary.box.intervals[jy]
                yield (*pair, "barycentre", "barycentre"), (bx.lower, bx.upper, by.lower, by.upper)

    _write_csv(args.out, ["x_var", "y_var", "label", "kind", "x_lo", "x_hi", "y_lo", "y_hi"],
               rows())
    return {"out": str(args.out), "pairs": frame.p * (frame.p - 1) // 2}


def _read_matrix_csv(path):
    """The matrix and the column names of a ``_write_matrix_csv`` table."""
    import numpy as np

    from ._tables import _read_table

    rows = _read_table(path)
    header = next(rows)
    matrix = []
    for line, cells in rows:
        try:
            row = [float(v) for v in cells[1:]]
        except ValueError:
            raise DataValidationError(f"{path}:{line}: a matrix cell is not a number") from None
        if not all(map(math.isfinite, row)):
            raise DataValidationError(f"{path}:{line}: a matrix cell is not finite")
        matrix.append(row)
    return np.array(matrix), header[1:]


def _compare_args(p):
    p.add_argument("--a")
    p.add_argument("--b")


def compare(args):
    from .moments import frobenius_diff

    m1, names1 = _read_matrix_csv(args.a)
    m2, names2 = _read_matrix_csv(args.b)
    # the tables are compared cell by cell, so their columns must agree
    if names1 != names2:
        raise DataValidationError(
            f"--a and --b name different columns: {names1} and {names2}")
    return {"frobenius": frobenius_diff(m1, m2)}


def _ellipse_args(p):
    p.add_argument("--x0", help="reference interval as 'lo,hi' (use --x0=-3,5 "
                               "for negative bounds)")
    p.add_argument("--delta", type=float)
    p.add_argument("--radius", type=float, default=1.0, help="(default %(default)s)")
    p.add_argument("--n-points", type=int, default=256,
                   help="from 4 to 1048576 (2**20) (default %(default)s)")
    p.add_argument("--out")


def ellipse(args):
    from ._aggregation import _write_csv
    from ._box import Interval
    from .mallows import iso_distance_set

    try:
        lo, hi = (float(v) for v in args.x0.split(","))
    except ValueError:
        raise DataValidationError(
            f"--x0 must be two numbers 'lo,hi', got {args.x0!r}") from None
    points = iso_distance_set(Interval(lo, hi), args.delta, args.radius,
                              n_points=args.n_points)
    _write_csv(args.out, ["c", "r"], (((), point) for point in points))
    return {"points": len(points), "out": str(args.out)}
