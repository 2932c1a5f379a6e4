#!/usr/bin/env python3
"""SHA-256 digests of what the ivda CLI writes on the bundled fixtures.

Runs a fixed list of commands through ``ivda.cli.main``, in order, in a
scratch directory that holds copies of the bundled fixtures, so that every
path the CLI prints or reads is relative. For each command it records the
exit code and the digests of its stdout, its stderr and each file that the
command created or changed. ``tests/test_cli_digests.py`` compares a fresh
run with the committed manifest. Rewrite the manifest from the repository
root with

    python scripts/cli_digests.py

and name in the change log each file whose digest moved, with its largest
change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "cli_digests.json"

# every latent shorthand family, some with and some without parameters
SHORTHANDS = ("uniform", "triangular:0", "triangular:-0.3", "invtriangular",
              "inverted_triangular", "truncnormal", "truncnormal:0.2",
              "beta:0.44,2.15", "shifted_beta:2,3", "degenerate")


def commands():
    """The command list: the flights-like chain, the credit-card microdata
    aggregation, the other subcommands, every shorthand on both credit-card
    encodings, and three refusals."""
    out = [
        ["aggregate", "--microdata", "flights.csv", "--trim", "0.05", "--out", "iv.csv",
         "--scaled-out", "scaled.csv", "--report-out", "aggregate.json"],
        ["fit", "--method", "kde", "--scaled", "scaled.csv", "--out", "kde.json"],
        ["fit", "--method", "beta", "--scaled", "scaled.csv", "--out", "beta.json"],
        ["fit", "--method", "triangular-pearson", "--summaries", "rtt.csv",
         "--out", "pearson.json"],
        ["aggregate", "--microdata", "credit_micro.csv", "--keep-degenerate",
         "--out", "credit_iv.csv", "--scaled-out", "credit_scaled.csv"],
    ]
    for fit in ("kde", "beta"):
        frame = ["--intervals", "iv.csv", "--latents", f"{fit}.json"]
        out += [
            ["distance", *frame, "--out", f"dist_{fit}.csv"],
            ["covariance", *frame, "--out", f"cov_{fit}.csv",
             "--report-out", f"report_{fit}.json"],
            ["correlation", *frame, "--out", f"corr_{fit}.csv"],
        ]
    kde = ["--intervals", "iv.csv", "--latents", "kde.json"]
    out += [
        ["covariance", *kde, "--estimator", "model7", "--ddof1", "--out", "cov_model7.csv"],
        ["correlation", *kde, "--estimator", "model7", "--out", "corr_model7.csv"],
        ["barycentre", *kde, "--out", "bary_kde.csv"],
        ["pairs-data", *kde, "--out", "pairs_kde.csv"],
        ["compare", "--a", "cov_kde.csv", "--b", "cov_model7.csv"],
        ["ellipse", "--x0=-3,5", "--delta", "0.1", "--out", "ellipse.csv"],
    ]
    for encoding in ("lohi", "cr"):
        for k, shorthand in enumerate(SHORTHANDS):
            frame = ["--intervals", f"credit_{encoding}.csv", "--latents", shorthand]
            tag = f"{encoding}_{k}"
            out += [
                ["distance", *frame, "--out", f"dist_{tag}.csv"],
                ["covariance", *frame, "--out", f"cov_{tag}.csv",
                 "--report-out", f"report_{tag}.json"],
            ]
        frame = ["--intervals", f"credit_{encoding}.csv", "--latents", "triangular:0"]
        out += [
            ["correlation", *frame, "--out", f"corr_{encoding}.csv"],
            ["barycentre", *frame, "--out", f"bary_{encoding}.csv"],
            ["pairs-data", *frame, "--out", f"pairs_{encoding}.csv"],
        ]
    out += [
        ["fit", "--method", "kde", "--out", "refused.json"],
        ["distance", "--intervals", "missing.csv", "--latents", "uniform", "--out", "x.csv"],
        ["distance", "--intervals", "credit_lohi.csv", "--latents", "cauchy", "--out", "x.csv"],
    ]
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _file_digests(workdir):
    return {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir()) if p.is_file()}


def prepare(workdir):
    """Copy the fixtures into ``workdir``, plus a ``.c/.r`` copy of the
    credit-card intervals written by the library; return their digests."""
    from ivda import ingest
    from ivda.datasets import bundled_path

    workdir = Path(workdir)
    for name, source in (("flights.csv", "flights_like_microdata.csv"),
                         ("rtt.csv", "rtt_summary.csv"),
                         ("credit_micro.csv", "credit_card_microdata.csv"),
                         ("credit_lohi.csv", "credit_card_intervals.csv")):
        shutil.copyfile(bundled_path(source), workdir / name)
    ingest.write_interval_csv(ingest.load_interval_csv(workdir / "credit_lohi.csv"),
                              workdir / "credit_cr.csv", mode="centre_range")
    return _file_digests(workdir)


def run(workdir):
    """Run every command in ``workdir``; return one digest entry per command."""
    from ivda import cli

    workdir = Path(workdir)
    entries = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        before = _file_digests(workdir)
        for argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            after = _file_digests(workdir)
            entries.append({
                "argv": argv,
                "exit": code,
                "stdout": _sha(stdout.getvalue().encode("utf-8")),
                "stderr": _sha(stderr.getvalue().encode("utf-8")),
                "files": {name: digest for name, digest in after.items()
                          if before.get(name) != digest},
            })
            before = after
    finally:
        os.chdir(cwd)
    return entries


def build(workdir):
    """The whole manifest, computed in ``workdir``."""
    import numpy

    return {"numpy": numpy.__version__, "inputs": prepare(workdir),
            "commands": run(workdir)}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        manifest = build(workdir)
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {len(manifest['commands'])} commands, numpy {manifest['numpy']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
