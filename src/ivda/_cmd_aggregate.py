"""The ``aggregate`` command: microdata CSV to interval and scaled CSVs.

It works on the plain floats of ``ivda.ingest.aggregate``, so the stage
loads no numpy.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._tables import _write_intervals, _write_scaled
from .ingest import aggregate as aggregate_records
from .ingest import read_microdata_csv


def aggregate(args):
    records = read_microdata_csv(args.microdata)
    result = aggregate_records(records, trim=args.trim, keep_degenerate=args.keep_degenerate)
    _write_intervals(args.out, result.names, result.labels, result.lower, result.upper)
    if args.scaled_out:
        _write_scaled(args.scaled_out, result.samples)
    if args.report_out:
        report = {
            "rows_kept": len(result.labels),
            "dropped_rows": [{"row": label, "reasons": reasons}
                             for label, reasons in result.report.dropped_rows],
            "trim": args.trim,
        }
        Path(args.report_out).write_text(json.dumps(report, sort_keys=True, indent=2),
                                         encoding="utf-8")
    return {"rows": len(result.labels), "variables": list(result.names),
            "dropped": len(result.report.dropped_rows)}
