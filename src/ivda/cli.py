"""Command-line front end.

Subcommands orchestrate ingestion, latent fitting, distances, barycentres,
covariance/correlation matrices, and plot-data emission. All numbers come
from the library modules; this file only parses, wires, and writes. Outputs
are deterministic: identical inputs and configuration produce byte-identical
files.

Exit codes: 0 success, 2 validation failure, 3 numeric failure. Failures
emit a machine-readable JSON object on stderr.

Each subcommand imports the library modules it uses when it runs, so one
process compiles only those: ``aggregate`` never loads the latent, distance
or covariance code. numpy, too, is imported only where it is used:
``aggregate`` runs without it, and every other subcommand loads it.

The ``ivda`` program (the console script and ``python -m ivda.cli``) is
``run()``: ``main()`` with the cyclic garbage collector off, and its objects
frozen before the interpreter exits. Cycles a command makes are reclaimed
only when its process ends. ``main()`` itself leaves the collector alone,
so in-process callers keep theirs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .errors import DataValidationError, DomainError, NumericFailure

# short names for three families; any other shorthand is a family's tag
_ALIASES = {"invtriangular": "inverted_triangular", "truncnormal": "truncated_normal",
            "beta": "shifted_beta"}


def _parse_latent_shorthand(text):
    """Parse 'triangular:0', 'beta:0.44,2.15', 'uniform', ... into a dict.

    The parameters are the family's fields in order; a kde needs a sample
    file, so it has no shorthand.
    """
    from .latent import _FAMILIES, Kde

    name, _, params = text.partition(":")
    name = name.strip().lower()
    family = _ALIASES.get(name, name)
    cls = _FAMILIES.get(family)
    if cls is None or cls is Kde:
        raise DomainError(f"unknown latent family shorthand {name!r}")
    keys = cls._fields
    spec = {"family": family}
    if params:
        values = [v for v in params.split(",") if v.strip()]
        if len(values) > len(keys):
            raise DomainError(f"too many parameters for latent family {name!r}")
        for key, value in zip(keys, values):
            try:
                spec[key] = float(value)
            except ValueError:
                raise DomainError(
                    f"latent family {name!r}: parameter {value!r} is not a number") from None
    return spec


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
    from .ingest import load_interval_csv

    frame = _resolve_latents(load_interval_csv(path), latents_arg)
    violations = frame.validate()
    if violations:
        raise DataValidationError(
            f"{path}: {len(violations)} validation violation(s)",
            violations=[v._asdict() for v in violations])
    return frame


def _write_matrix_csv(matrix, names, path):
    import numpy as np

    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *names])
        for name, row in zip(names, np.asarray(matrix)):
            writer.writerow([name, *[repr(float(v)) for v in row]])


def _read_matrix_csv(path):
    import numpy as np

    from .ingest import _read_table

    header, rows = _read_table(path)
    matrix = []
    for line, cells in rows:
        try:
            matrix.append([float(v) for v in cells[1:]])
        except ValueError:
            raise DataValidationError(f"{path}:{line}: a matrix cell is not a number") from None
    return np.array(matrix), header[1:]


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _require(args, *names):
    # required values may come from the config file, so the parser cannot
    # enforce them; check after parsing
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        raise DataValidationError(
            "missing required argument(s): " + ", ".join(f"--{m}" for m in missing))


# --- subcommands ----------------------------------------------------------

def _cmd_aggregate(args):
    # the CSVs come from aggregate's plain floats, so this stage loads no numpy
    from .ingest import _write_intervals, _write_scaled, aggregate, read_microdata_csv

    _require(args, "microdata", "out")
    records = read_microdata_csv(args.microdata)
    result = aggregate(records, trim=args.trim, keep_degenerate=args.keep_degenerate)
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
    _emit({"rows": len(result.labels), "variables": list(result.names),
           "dropped": len(result.report.dropped_rows)})
    return 0


def _cmd_fit(args):
    from .estimation import fit_beta_mom, fit_kde, fit_triangular_pearson
    from .ingest import read_scaled_csv, read_summary_csv
    from .latent import latent_to_dict

    _require(args, "method", "out")
    out = {}
    out_path = Path(args.out)
    if args.method in ("beta", "kde"):
        if not args.scaled:
            raise DataValidationError("fit beta/kde requires --scaled")
        samples = read_scaled_csv(args.scaled)
        for name in sorted(samples):
            sample = samples[name]
            if args.method == "beta":
                dist = fit_beta_mom(sample.values)
                spec = latent_to_dict(dist)
            else:
                dist = fit_kde(sample.values, bandwidth=args.bandwidth)
                sample_path = out_path.with_name(f"{out_path.stem}_{name}_sample.txt")
                # one "%.18e" line per value, as np.savetxt writes, in one write
                sample_path.write_text("".join("%.18e\n" % v for v in dist.sample.tolist()),
                                       encoding="utf-8")
                spec = latent_to_dict(dist, sample_path=sample_path.name)
            spec["n_used"] = int(sample.values.size)
            spec["diagnostics"] = {"mean": float(dist.mean),
                                   "second_moment": float(dist.second_moment)}
            out[name] = spec
    elif args.method == "triangular-pearson":
        if not args.summaries:
            raise DataValidationError("fit triangular-pearson requires --summaries")
        summaries = read_summary_csv(args.summaries)
        n_tests = len(summaries)
        for name in sorted(summaries):
            rows = summaries[name]
            means = [m for _, m, _, _ in rows]
            medians = [md for _, _, md, _ in rows]
            intervals = [iv for _, _, _, iv in rows]
            dist, estimates = fit_triangular_pearson(
                means, medians, intervals, alpha=args.alpha, n_tests=n_tests)
            spec = latent_to_dict(dist)
            spec["n_used"] = len(rows)
            spec["diagnostics"] = {"m_hat": estimates.m_hat,
                                   "symmetric": estimates.symmetric}
            out[name] = spec
    else:
        raise DomainError(f"unknown fit method {args.method!r}")
    out_path.write_text(json.dumps(out, sort_keys=True, indent=2), encoding="utf-8")
    _emit({"fitted": sorted(out)})
    return 0


def _cmd_distance(args):
    from .mallows import distance_matrix

    _require(args, "intervals", "latents", "out")
    frame = _load_valid_frame(args.intervals, args.latents)
    matrix = distance_matrix(frame, threads=args.threads)
    labels = [frame.row_label(i) for i in range(frame.n)]
    _write_matrix_csv(matrix, labels, args.out)
    _emit({"rows": frame.n, "out": str(args.out)})
    return 0


def _cmd_barycentre(args):
    from .ingest import write_interval_csv
    from .moments import sample_barycentre

    _require(args, "intervals", "latents")
    frame = _load_valid_frame(args.intervals, args.latents)
    bary = sample_barycentre(frame)
    if args.out:
        bary_frame = type(frame)(
            [[iv.lower for iv in bary.box.intervals]],
            [[iv.upper for iv in bary.box.intervals]],
            frame.names, latents=frame.latents, labels=["barycentre"])
        write_interval_csv(bary_frame, args.out)
    _emit({"centres": [float(v) for v in bary.centres],
           "ranges": [float(v) for v in bary.ranges],
           "frechet_variance": bary.frechet_variance})
    return 0


def _cmd_covariance(args, correlation=False):
    from .moments import (
        correlation_from_cov,
        correlation_matrix,
        cov_model7,
        jacobi_eigenvalues,
        symbolic_covariance,
    )

    _require(args, "intervals", "latents", "out")
    frame = _load_valid_frame(args.intervals, args.latents)
    ddof = 1 if args.ddof1 else 0
    if args.estimator == "barycentre":
        cov = symbolic_covariance(frame, ddof=ddof)
        matrix = correlation_from_cov(cov) if correlation else cov.sigma_b
    else:
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
    _emit({"variables": list(frame.names), "out": str(args.out),
           "estimator": args.estimator, "divisor": "n-1" if ddof else "n"})
    return 0


def _cmd_compare(args):
    from .moments import frobenius_diff

    _require(args, "a", "b")
    m1, _ = _read_matrix_csv(args.a)
    m2, _ = _read_matrix_csv(args.b)
    value = frobenius_diff(m1, m2)
    _emit({"frobenius": value})
    return 0


def _cmd_ellipse(args):
    from .interval import Interval
    from .mallows import iso_distance_set

    _require(args, "x0", "delta", "out")
    try:
        lo, hi = (float(v) for v in args.x0.split(","))
    except ValueError:
        raise DataValidationError(
            f"--x0 must be two numbers 'lo,hi', got {args.x0!r}") from None
    points = iso_distance_set(Interval(lo, hi), args.delta, args.radius,
                              n_points=args.n_points)
    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "r"])
        for c, r in points:
            writer.writerow([repr(float(c)), repr(float(r))])
    _emit({"points": len(points), "out": str(args.out)})
    return 0


def _cmd_pairs_data(args):
    from .moments import sample_barycentre

    _require(args, "intervals", "latents", "out")
    frame = _load_valid_frame(args.intervals, args.latents)
    bary = sample_barycentre(frame)
    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_var", "y_var", "label", "kind",
                         "x_lo", "x_hi", "y_lo", "y_hi"])
        for jx in range(frame.p):
            for jy in range(jx + 1, frame.p):
                for i in range(frame.n):
                    writer.writerow([
                        frame.names[jx], frame.names[jy], frame.row_label(i),
                        "observation",
                        repr(float(frame.lower[i, jx])), repr(float(frame.upper[i, jx])),
                        repr(float(frame.lower[i, jy])), repr(float(frame.upper[i, jy])),
                    ])
                bx = bary.box.intervals[jx]
                by = bary.box.intervals[jy]
                writer.writerow([frame.names[jx], frame.names[jy], "barycentre",
                                 "barycentre",
                                 repr(bx.lower), repr(bx.upper),
                                 repr(by.lower), repr(by.upper)])
    _emit({"out": str(args.out), "pairs": frame.p * (frame.p - 1) // 2})
    return 0


# --- parser ---------------------------------------------------------------

def _aggregate_args(p):
    p.add_argument("--microdata", help="CSV: group...,variable,value")
    p.add_argument("--trim", type=float, default=0.0,
                   help="fraction trimmed from each tail of every cell (default %(default)s)")
    p.add_argument("--keep-degenerate", action="store_true",
                   help="keep zero-range cells when trim is 0")
    p.add_argument("--out", help="interval CSV output")
    p.add_argument("--scaled-out", help="long-form scaled microdata CSV output")
    p.add_argument("--report-out", help="JSON aggregation report output")


def _fit_args(p):
    p.add_argument("--method", choices=["beta", "kde", "triangular-pearson"])
    p.add_argument("--scaled", help="scaled microdata CSV (beta/kde)")
    p.add_argument("--summaries", help="summary statistics CSV (triangular-pearson)")
    p.add_argument("--bandwidth", type=float, help="kde bandwidth override")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="symmetry test level before Bonferroni correction "
                        "(default %(default)s)")
    p.add_argument("--out", help="JSON fit report output")


def _frame_args(p):
    p.add_argument("--intervals", help="interval CSV input")
    p.add_argument("--latents",
                   help="latent spec: JSON mapping file or shorthand like "
                        "'triangular:0', 'uniform', 'beta:0.44,2.15'")


def _distance_args(p):
    _frame_args(p)
    p.add_argument("--threads", type=int, default=1,
                   help="threads that share out the matrix's fixed row blocks; "
                        "the output is the same for any count. Each call starts a new "
                        "pool, so two threads are slower than one at 200 rows and pay "
                        "off from about 1000 rows (default %(default)s)")
    p.add_argument("--out")


def _barycentre_args(p):
    _frame_args(p)
    p.add_argument("--out", help="single-row interval CSV output")


def _covariance_args(p):
    _frame_args(p)
    p.add_argument("--estimator", choices=["barycentre", "model7"], default="barycentre",
                   help="model7: the diagonal comparison estimator (default %(default)s)")
    p.add_argument("--ddof1", action="store_true",
                   help="use the n-1 divisor instead of n")
    p.add_argument("--out")
    p.add_argument("--report-out", help="JSON audit report (barycentre only)")


def _compare_args(p):
    p.add_argument("--a")
    p.add_argument("--b")


def _ellipse_args(p):
    p.add_argument("--x0", help="reference interval as 'lo,hi' (use --x0=-3,5 "
                               "for negative bounds)")
    p.add_argument("--delta", type=float)
    p.add_argument("--radius", type=float, default=1.0, help="(default %(default)s)")
    p.add_argument("--n-points", type=int, default=256, help="(default %(default)s)")
    p.add_argument("--out")


def _pairs_data_args(p):
    _frame_args(p)
    p.add_argument("--out")


# each subcommand: its name, its help, the function that adds its arguments
# and the function that runs it
_SUBCOMMANDS = (
    ("aggregate", "aggregate microdata into intervals", _aggregate_args, _cmd_aggregate),
    ("fit", "fit latent distributions", _fit_args, _cmd_fit),
    ("distance", "pairwise distance matrix", _distance_args, _cmd_distance),
    ("barycentre", "barycentre and Frechet variance", _barycentre_args, _cmd_barycentre),
    ("covariance", "symbolic covariance matrix", _covariance_args, _cmd_covariance),
    ("correlation", "symbolic correlation matrix", _covariance_args,
     lambda a: _cmd_covariance(a, correlation=True)),
    ("compare", "Frobenius norm of a matrix difference", _compare_args, _cmd_compare),
    ("ellipse", "iso-distance ellipse points", _ellipse_args, _cmd_ellipse),
    ("pairs-data", "rectangle and barycentre coordinates per variable pair",
     _pairs_data_args, _cmd_pairs_data),
)


def _build_parser(argv=None):
    """The parser, and its subparsers by name.

    Every subcommand is registered, but only those that ``argv`` names get
    their arguments, since one process runs one subcommand; when ``argv``
    names none (or is None), all of them do. The subcommand that parses is
    always complete, so help, usage errors and parsed values do not depend
    on ``argv``.
    """
    parser = argparse.ArgumentParser(
        prog="ivda",
        description="Interval-valued data analysis: distances, barycentres, "
                    "and symbolic covariance under latent microdata models.")
    parser.add_argument("--config", help="JSON file of flag values; keys the subcommand "
                                         "does not take are ignored, and flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv or ()).intersection(name for name, *_ in _SUBCOMMANDS)
    for name, help_, add_args, func in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        if not named or name in named:
            add_args(p)
        p.set_defaults(func=func)
    return parser, sub.choices


def _parse_args(argv):
    """Parse argv over the subcommand defaults that a --config file sets.

    Each key that the subcommand takes is parsed as its flag: ``--key=value``,
    or a bare ``--key`` for true; null and false set nothing.
    """
    parser, subcommands = _build_parser(argv)
    args = parser.parse_args(argv)
    if args.config:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise DataValidationError("config file must hold a JSON object")
        sub = subcommands[args.command]
        # keys match dests, not flag prefixes: fit's 'scaled' is not --scaled-out
        dests = vars(sub.parse_args([]))
        flags = []
        for key, value in config.items():
            if key.replace("-", "_") in dests and value is not None and value is not False:
                if isinstance(value, (list, dict)):
                    raise DataValidationError(f"config key {key!r} is not a single value")
                flag = "--" + key.replace("_", "-")
                flags.append(flag if value is True else f"{flag}={value}")
        sub.set_defaults(**vars(sub.parse_known_args(flags)[0]))
        args = parser.parse_args(argv)
    return args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except NumericFailure as exc:
        json.dump({"error": {"type": "numeric", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except DataValidationError as exc:
        payload = {"type": "validation", "message": str(exc)}
        if exc.violations:
            payload["violations"] = exc.violations
        json.dump({"error": payload}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        json.dump({"error": {"type": "validation", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2


def run():
    """Run ``main()`` as the ``ivda`` program and return its exit code.

    The process ends after one command, and reference counting frees every
    acyclic object, so cyclic collection only costs time: with the collector
    off, loading numpy and ivda runs no collection, and freezing what is
    left spares interpreter shutdown its full collections.
    """
    import gc

    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
