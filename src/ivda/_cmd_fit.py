"""The ``fit`` command: latent distributions from scaled microdata or
summary statistics, written as a JSON latent file.

``fit --method kde`` needs only ``ivda.latent``; the beta and
triangular-Pearson fits load ``ivda.estimation`` when they run.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._tables import read_scaled_csv, read_summary_csv
from .errors import DataValidationError, DomainError
from .latent import fit_kde, latent_to_dict


def fit(args):
    out = {}
    out_path = Path(args.out)
    if args.method in ("beta", "kde"):
        if not args.scaled:
            raise DataValidationError("fit beta/kde requires --scaled")
        if args.method == "beta":
            from .estimation import fit_beta_mom
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
        from .estimation import fit_triangular_pearson

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
    return {"fitted": sorted(out)}
