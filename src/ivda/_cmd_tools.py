"""The two commands that read no interval frame: ``compare``, the
Frobenius norm of the difference of two matrix CSVs, and ``ellipse``, the
points at one distance from an interval.
"""

from __future__ import annotations

from .errors import DataValidationError


def compare(args):
    from ._tables import _read_matrix_csv
    from .moments import frobenius_diff

    m1, _ = _read_matrix_csv(args.a)
    m2, _ = _read_matrix_csv(args.b)
    return {"frobenius": frobenius_diff(m1, m2)}


def ellipse(args):
    from ._tables import _write_csv
    from .interval import Interval
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
