"""The chain's commands that read an interval CSV with its latents and
compute the paper's measures: ``distance``, ``covariance`` and
``correlation``, and the matrix CSV they write.

Each command imports the library modules it runs when it runs: ``distance``
loads the column engine (``ivda._engine``) and not ``ivda.mallows``, and no
command loads a parametric family (``ivda._families``) unless a latent
names one, nor the latent shorthand (``ivda._shorthand``) unless one is
given. ``barycentre`` and ``pairs-data`` read their frame through
``_load_valid_frame`` too, from ``ivda._cmd_tools``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataValidationError


def _frame_args(p):
    p.add_argument("--intervals", help="interval CSV input")
    p.add_argument("--latents",
                   help="latent spec: JSON mapping file or shorthand like "
                        "'triangular:0', 'uniform', 'beta:0.44,2.15'")


def _resolve_latents(frame, latents_arg):
    """Attach latents to a frame from a shorthand or a JSON mapping file.

    Variables whose ranges are all zero receive the degenerate latent
    automatically, matching the zero-range convention.
    """
    import numpy as np

    from .latent import Degenerate, latent_from_dict

    path = Path(latents_arg)
    if path.suffix == ".json":
        mapping = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(mapping, dict):
            raise DataValidationError(f"{path}: latent file must hold a JSON object")
        resolved = {name: latent_from_dict(spec, base_dir=path.parent)
                    for name, spec in mapping.items()}
    else:
        from ._shorthand import _parse_latent_shorthand

        dist = latent_from_dict(_parse_latent_shorthand(latents_arg))
        resolved = dict.fromkeys(frame.names, dist)
    ranges = frame.ranges
    for j, name in enumerate(frame.names):
        if np.all(ranges[:, j] == 0.0):
            resolved[name] = Degenerate()
    return frame.with_latents(resolved)


def _load_valid_frame(path, latents_arg):
    # validated with its latents, so a latent that does not match its
    # ranges exits 2 like a bad bound
    from .interval import load_interval_csv

    frame = _resolve_latents(load_interval_csv(path), latents_arg)
    violations = frame.validate()
    if violations:
        raise DataValidationError(
            f"{path}: {len(violations)} validation violation(s)",
            violations=[v._asdict() for v in violations])
    return frame


def _write_matrix_csv(matrix, names, path):
    """Write a square matrix with ``names`` as its header and row labels.

    The bytes are those of ``csv.writer``: each label is quoted once, as
    ``csv`` quotes it, and each row is written as the label, the
    ``,``-joined shortest round-trip reprs of its numbers and ``\\r\\n``,
    one row of Python floats at a time (the whole matrix's would take four
    times its bytes).
    """
    import csv
    import io

    import numpy as np

    cell = io.StringIO()
    quote = csv.writer(cell)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["", *names])
        for name, row in zip(names, np.asarray(matrix)):
            cell.seek(0)
            cell.truncate()
            quote.writerow((name, ""))
            fh.write(f"{cell.getvalue()[:-3]},{','.join(map(repr, row.tolist()))}\r\n")


def _distance_args(p):
    _frame_args(p)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: the matrix is computed on one thread "
                        "(default %(default)s)")
    p.add_argument("--out")


def distance(args):
    from ._engine import distance_matrix

    frame = _load_valid_frame(args.intervals, args.latents)
    matrix = distance_matrix(frame)
    labels = [frame.row_label(i) for i in range(frame.n)]
    _write_matrix_csv(matrix, labels, args.out)
    return {"rows": frame.n, "out": str(args.out)}


def _covariance_args(p):
    _frame_args(p)
    p.add_argument("--estimator", choices=["barycentre", "model7"], default="barycentre",
                   help="model7: the diagonal comparison estimator (default %(default)s)")
    p.add_argument("--ddof1", action="store_true",
                   help="use the n-1 divisor instead of n")
    p.add_argument("--out")
    p.add_argument("--report-out", help="JSON audit report (barycentre only)")


def covariance(args, correlation=False):
    from .moments import jacobi_eigenvalues, symbolic_covariance

    frame = _load_valid_frame(args.intervals, args.latents)
    ddof = 1 if args.ddof1 else 0
    if args.estimator == "barycentre":
        cov = symbolic_covariance(frame, ddof=ddof)
        if correlation:
            from .moments import correlation_from_cov

            matrix = correlation_from_cov(cov)
        else:
            matrix = cov.sigma_b
    else:
        from .moments import correlation_matrix, cov_model7

        sigma7 = cov_model7(frame, ddof=ddof)
        matrix = correlation_matrix(sigma7, frame.names) if correlation else sigma7
    _write_matrix_csv(matrix, frame.names, args.out)
    if args.report_out and args.estimator == "barycentre":
        report = {
            "divisor": cov.divisor,
            "names": list(cov.names),
            "sigma_b": cov.sigma_b.tolist(),
            "sigma_cc": cov.sigma_cc.tolist(),
            "sigma_rr": cov.sigma_rr.tolist(),
            "sigma_cr": cov.sigma_cr.tolist(),
            "psi": cov.summary.psi.tolist(),
            "delta": cov.summary.delta.tolist(),
            "euu": cov.summary.euu.tolist(),
            "min_eigenvalue": float(jacobi_eigenvalues(cov.sigma_b)[0]),
        }
        Path(args.report_out).write_text(json.dumps(report, sort_keys=True, indent=2),
                                         encoding="utf-8")
    return {"variables": list(frame.names), "out": str(args.out),
            "estimator": args.estimator, "divisor": "n-1" if ddof else "n"}


_correlation_args = _covariance_args


def correlation(args):
    return covariance(args, correlation=True)
