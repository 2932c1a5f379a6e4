"""The ``aggregate`` command: microdata CSV to interval and scaled CSVs.

It runs ``ivda._aggregation``, which groups the microdata into cells as
it reads them and works on plain floats, so the stage loads no numpy.
"""

from __future__ import annotations

import json
from pathlib import Path


def _aggregate_args(p):
    p.add_argument("--microdata", help="CSV: group...,variable,value")
    p.add_argument("--trim", type=float, default=0.0,
                   help="fraction trimmed from each tail of every cell (default %(default)s)")
    p.add_argument("--keep-degenerate", action="store_true",
                   help="keep zero-range cells when trim is 0")
    p.add_argument("--out", help="interval CSV output")
    p.add_argument("--scaled-out", help="long-form scaled microdata CSV output")
    p.add_argument("--report-out", help="JSON aggregation report output")


def aggregate(args):
    from ._aggregation import _aggregate, _group, _microdata, _write_intervals, _write_scaled

    # the rows go into their cells as they are read
    names, labels, lower, upper, samples, dropped = _aggregate(
        _group(_microdata(Path(args.microdata))), args.trim, args.keep_degenerate)
    _write_intervals(args.out, names, labels, lower, upper)
    if args.scaled_out:
        _write_scaled(args.scaled_out, samples)
    if args.report_out:
        report = {
            "rows_kept": len(labels),
            "dropped_rows": [{"row": label, "reasons": reasons}
                             for label, reasons in dropped],
            "trim": args.trim,
        }
        Path(args.report_out).write_text(json.dumps(report, sort_keys=True, indent=2),
                                         encoding="utf-8")
    return {"rows": len(labels), "variables": list(names), "dropped": len(dropped)}
