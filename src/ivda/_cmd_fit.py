"""The ``fit`` command: latent distributions from scaled microdata or
summary statistics, written as a JSON latent file.

``fit --method kde`` needs only ``ivda.latent`` and the scaled-microdata
reader (``ivda._scaled``); the beta and triangular-Pearson fits load
``ivda.estimation`` (which reads the summary statistics) when they run.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataValidationError


def _fit_args(p):
    p.add_argument("--method", choices=["beta", "kde", "triangular-pearson"])
    p.add_argument("--scaled", help="scaled microdata CSV (beta/kde)")
    p.add_argument("--summaries", help="summary statistics CSV (triangular-pearson)")
    p.add_argument("--bandwidth", type=float, help="kde bandwidth override")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="symmetry test level before Bonferroni correction "
                        "(default %(default)s)")
    p.add_argument("--out", help="JSON fit report output")


def fit(args):
    from ._scaled import read_scaled_csv
    from .latent import fit_kde, latent_to_dict

    out = {}
    out_path = Path(args.out)
    if args.method in ("beta", "kde"):
        if not args.scaled:
            raise DataValidationError("fit beta/kde requires --scaled")
        if args.method == "beta":
            from .estimation import fit_beta_mom as fit_one
        else:
            def fit_one(values):
                return fit_kde(values, bandwidth=args.bandwidth)
        samples = read_scaled_csv(args.scaled)
        # every variable is fitted before any file is written, so a fit that
        # fails leaves no sample file behind
        fitted = [(samples[name], fit_one(samples[name].values)) for name in sorted(samples)]
        for sample, dist in fitted:
            name = sample.variable
            if args.method == "beta":
                spec = latent_to_dict(dist)
            else:
                sample_path = out_path.with_name(f"{out_path.stem}_{name}_sample.txt")
                # one "%.18e" line per value, as np.savetxt writes, in one write
                sample_path.write_text("".join("%.18e\n" % v for v in dist.sample.tolist()),
                                       encoding="utf-8")
                spec = latent_to_dict(dist, sample_path=sample_path.name)
            spec["n_used"] = int(sample.values.size)
            spec["diagnostics"] = {"mean": float(dist.mean),
                                   "second_moment": float(dist.second_moment)}
            out[name] = spec
    else:
        # argparse's choices leave only triangular-pearson, from argv and --config alike
        from .estimation import fit_triangular_pearson, read_summary_csv

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
    out_path.write_text(json.dumps(out, sort_keys=True, indent=2), encoding="utf-8")
    return {"fitted": sorted(out)}
