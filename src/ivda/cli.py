"""Command-line front end.

Subcommands orchestrate ingestion, latent fitting, distances, barycentres,
covariance/correlation matrices, and plot-data emission. All numbers come
from the library modules. Outputs are deterministic: identical inputs and
configuration produce byte-identical files.

Exit codes: 0 success, 2 validation failure, 3 numeric failure. Failures
emit a machine-readable JSON object on stderr.

This module owns the parser, the dispatch, that error contract and
``run()``. Each subcommand lives in a command module, which adds its
arguments to the parser and runs it: ``ivda._cmd_aggregate``,
``ivda._cmd_fit``, ``ivda._cmd_measures`` for ``distance``, ``covariance``
and ``correlation``, and ``ivda._cmd_tools`` for the rest. The parser
loads only the module of the subcommand that argv names. A command takes
the parsed arguments and returns the JSON summary that ``main()`` prints.
Each command module imports the library modules it uses when it runs, so
one process compiles only those: ``aggregate`` never loads the latent,
distance or covariance code. numpy, too, is imported only where it is
used: ``aggregate`` runs without it, and every other subcommand loads it.
No module imports this one, which ``python -m ivda.cli`` runs as
``__main__``: an import would compile it a second time.

The ``ivda`` program (the console script and ``python -m ivda.cli``) is
``run()``: ``main()`` with the cyclic garbage collector off, after which
the process flushes stdout and stderr and ends with ``os._exit``, skipping
interpreter shutdown. Cycles a command makes are reclaimed only when its
process ends, and every command closes its files before ``main()``
returns; no command starts a thread. An exception out of ``main()`` still
prints its traceback and exits 1. While a profiler or tracer watches the
process (``sys.getprofile()``, ``sys.gettrace()`` or a ``sys.monitoring``
tool, as under ``python -m cProfile -m ivda.cli``), or when a flush fails,
``run()`` returns the code and the interpreter exits as usual, so their
reports and the failure are written. ``main()`` itself returns and leaves
the collector alone, so in-process callers keep theirs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DataValidationError, DomainError, NumericFailure


# each subcommand's help, the arguments it requires and the command module
# that runs it: its function of the subcommand's name (with "_" for "-")
# runs it, and ``_<function>_args`` adds its arguments to the parser. A
# required value may come from the config file, so the parser cannot
# enforce it; main() checks after parsing
_SUBCOMMANDS = {
    "aggregate": ("aggregate microdata into intervals", ("microdata", "out"),
                  "_cmd_aggregate"),
    "fit": ("fit latent distributions", ("method", "out"), "_cmd_fit"),
    "distance": ("pairwise distance matrix", ("intervals", "latents", "out"),
                 "_cmd_measures"),
    "barycentre": ("barycentre and Frechet variance", ("intervals", "latents"), "_cmd_tools"),
    "covariance": ("symbolic covariance matrix", ("intervals", "latents", "out"),
                   "_cmd_measures"),
    "correlation": ("symbolic correlation matrix", ("intervals", "latents", "out"),
                    "_cmd_measures"),
    "compare": ("Frobenius norm of a matrix difference", ("a", "b"), "_cmd_tools"),
    "ellipse": ("iso-distance ellipse points", ("x0", "delta", "out"), "_cmd_tools"),
    "pairs-data": ("rectangle and barycentre coordinates per variable pair",
                   ("intervals", "latents", "out"), "_cmd_tools"),
}


def _command(name, suffix=""):
    """The function of command module ``name`` that runs subcommand
    ``name`` (or adds its arguments, with ``suffix`` "_args")."""
    func = "_" * bool(suffix) + name.replace("-", "_") + suffix
    # the import statement's machinery, unlike importlib's, reports the
    # module under -X importtime
    return getattr(__import__(f"{__package__}.{_SUBCOMMANDS[name][2]}", fromlist=[func]), func)


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
    for name, (help_, *_) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if not named or name in named:
            _command(name, "_args")(p)
    return parser, sub.choices


def _parse_args(argv):
    """Parse argv over the subcommand defaults that a --config file sets."""
    parser, subcommands = _build_parser(argv)
    args = parser.parse_args(argv)
    if args.config:
        from ._cmd_tools import _config_defaults

        sub = subcommands[args.command]
        sub.set_defaults(**_config_defaults(args.config, sub))
        args = parser.parse_args(argv)
    return args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        missing = [name for name in _SUBCOMMANDS[args.command][1]
                   if getattr(args, name, None) is None]
        if missing:
            raise DataValidationError(
                "missing required argument(s): " + ", ".join(f"--{m}" for m in missing))
        print(json.dumps(_command(args.command)(args), sort_keys=True))
        return 0
    except (NumericFailure, DataValidationError, DomainError, OSError,
            json.JSONDecodeError) as exc:
        numeric = isinstance(exc, NumericFailure)
        payload = {"type": "numeric" if numeric else "validation", "message": str(exc)}
        if getattr(exc, "violations", None):
            payload["violations"] = exc.violations
        json.dump({"error": payload}, sys.stderr)
        sys.stderr.write("\n")
        return 3 if numeric else 2


def run():
    """Run ``main()`` as the ``ivda`` program and end the process with its
    exit code.

    One command runs per process, and reference counting frees every
    acyclic object, so cyclic collection and interpreter shutdown only cost
    time. The module docstring says why ending at ``os._exit`` loses
    nothing, and when this returns the code to a normal exit instead.
    """
    import gc, os

    gc.disable()
    code = main()
    # from Python 3.12 cProfile, and coverage if asked, watch through sys.monitoring
    if sys.getprofile() or sys.gettrace() or hasattr(sys, "monitoring") and any(
            map(sys.monitoring.get_tool, range(6))):
        return code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
