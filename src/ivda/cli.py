"""Command-line front end.

Subcommands orchestrate ingestion, latent fitting, distances, barycentres,
covariance/correlation matrices, and plot-data emission. All numbers come
from the library modules. Outputs are deterministic: identical inputs and
configuration produce byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 numeric failure. Failures
emit a machine-readable JSON object on stderr.

This module owns the parser, the dispatch, that error contract and
``run()``. The body of each subcommand lives in a command module that the
dispatch imports when it runs the subcommand: ``ivda._cmd_aggregate``,
``ivda._cmd_fit``, ``ivda._cmd_measures`` for the commands that read an
interval CSV with its latents, or ``ivda._cmd_tools`` for ``compare`` and
``ellipse``. A body takes the parsed
arguments and returns the JSON summary that ``main()`` prints. Each command
module imports the library modules it uses when it runs, so one process
compiles only those: ``aggregate`` never loads the latent, distance or
covariance code. numpy, too, is imported only where it is used:
``aggregate`` runs without it, and every other subcommand loads it. No
module imports this one, which ``python -m ivda.cli`` runs as
``__main__``: an import would compile it a second time.

The ``ivda`` program (the console script and ``python -m ivda.cli``) is
``run()``: ``main()`` with the cyclic garbage collector off, and its objects
frozen before the interpreter exits. Cycles a command makes are reclaimed
only when its process ends. ``main()`` itself leaves the collector alone,
so in-process callers keep theirs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DataValidationError, DomainError, NumericFailure


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


# each subcommand's help, the function that adds its arguments, the
# arguments it requires and the module whose function of the subcommand's
# name (with "_" for "-") runs it. A required value may come from the config
# file, so the parser cannot enforce it; main() checks after parsing, before
# the module loads
_SUBCOMMANDS = {
    "aggregate": ("aggregate microdata into intervals", _aggregate_args,
                  ("microdata", "out"), "_cmd_aggregate"),
    "fit": ("fit latent distributions", _fit_args, ("method", "out"), "_cmd_fit"),
    "distance": ("pairwise distance matrix", _distance_args,
                 ("intervals", "latents", "out"), "_cmd_measures"),
    "barycentre": ("barycentre and Frechet variance", _barycentre_args,
                   ("intervals", "latents"), "_cmd_measures"),
    "covariance": ("symbolic covariance matrix", _covariance_args,
                   ("intervals", "latents", "out"), "_cmd_measures"),
    "correlation": ("symbolic correlation matrix", _covariance_args,
                    ("intervals", "latents", "out"), "_cmd_measures"),
    "compare": ("Frobenius norm of a matrix difference", _compare_args, ("a", "b"),
                "_cmd_tools"),
    "ellipse": ("iso-distance ellipse points", _ellipse_args, ("x0", "delta", "out"),
                "_cmd_tools"),
    "pairs-data": ("rectangle and barycentre coordinates per variable pair",
                   _pairs_data_args, ("intervals", "latents", "out"), "_cmd_measures"),
}


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
    named = set(argv or ()).intersection(_SUBCOMMANDS)
    for name, (help_, add_args, *_) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if not named or name in named:
            add_args(p)
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
        _, _, required, module = _SUBCOMMANDS[args.command]
        missing = [name for name in required if getattr(args, name, None) is None]
        if missing:
            raise DataValidationError(
                "missing required argument(s): " + ", ".join(f"--{m}" for m in missing))
        func = args.command.replace("-", "_")
        # the import statement's machinery, unlike importlib's, reports the
        # module under -X importtime
        command = getattr(__import__(f"{__package__}.{module}", fromlist=[func]), func)
        print(json.dumps(command(args), sort_keys=True))
        return 0
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
