"""The commands that read an interval CSV with its latents and compute the
paper's measures: ``distance``, ``barycentre``, ``covariance``,
``correlation`` and ``pairs-data``.

Each command imports the library modules it runs when it runs: ``distance``
loads the column engine (``ivda._engine``) and not ``ivda.mallows``, and no
command loads a parametric family (``ivda._families``) unless a latent
names one.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataValidationError, DomainError

# short names for three families; any other shorthand is a family's tag
_ALIASES = {"invtriangular": "inverted_triangular", "truncnormal": "truncated_normal",
            "beta": "shifted_beta"}


def _parse_latent_shorthand(text):
    """Parse 'triangular:0', 'beta:0.44,2.15', 'uniform', ... into a dict.

    The parameters are the family's fields in order; a kde needs a sample
    file, so it has no shorthand.
    """
    from .latent import Kde, _family

    name, _, params = text.partition(":")
    name = name.strip().lower()
    family = _ALIASES.get(name, name)
    cls = _family(family)
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
    from ._tables import load_interval_csv

    frame = _resolve_latents(load_interval_csv(path), latents_arg)
    violations = frame.validate()
    if violations:
        raise DataValidationError(
            f"{path}: {len(violations)} validation violation(s)",
            violations=[v._asdict() for v in violations])
    return frame


def distance(args):
    from ._engine import distance_matrix
    from ._tables import _write_matrix_csv

    frame = _load_valid_frame(args.intervals, args.latents)
    matrix = distance_matrix(frame, threads=args.threads)
    labels = [frame.row_label(i) for i in range(frame.n)]
    _write_matrix_csv(matrix, labels, args.out)
    return {"rows": frame.n, "out": str(args.out)}


def barycentre(args):
    from ._tables import write_interval_csv
    from .moments import sample_barycentre

    frame = _load_valid_frame(args.intervals, args.latents)
    bary = sample_barycentre(frame)
    if args.out:
        bary_frame = type(frame)(
            [[iv.lower for iv in bary.box.intervals]],
            [[iv.upper for iv in bary.box.intervals]],
            frame.names, latents=frame.latents, labels=["barycentre"])
        write_interval_csv(bary_frame, args.out)
    return {"centres": [float(v) for v in bary.centres],
            "ranges": [float(v) for v in bary.ranges],
            "frechet_variance": bary.frechet_variance}


def covariance(args, correlation=False):
    from ._tables import _write_matrix_csv
    from .moments import (
        correlation_from_cov,
        correlation_matrix,
        cov_model7,
        jacobi_eigenvalues,
        symbolic_covariance,
    )

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
    return {"variables": list(frame.names), "out": str(args.out),
            "estimator": args.estimator, "divisor": "n-1" if ddof else "n"}


def correlation(args):
    return covariance(args, correlation=True)


def pairs_data(args):
    from ._tables import _write_csv
    from .moments import sample_barycentre

    frame = _load_valid_frame(args.intervals, args.latents)
    bary = sample_barycentre(frame)
    lower, upper = frame.lower, frame.upper

    def rows():
        for jx in range(frame.p):
            for jy in range(jx + 1, frame.p):
                pair = (frame.names[jx], frame.names[jy])
                for i in range(frame.n):
                    yield ((*pair, frame.row_label(i), "observation"),
                           (lower[i, jx], upper[i, jx], lower[i, jy], upper[i, jy]))
                bx, by = bary.box.intervals[jx], bary.box.intervals[jy]
                yield (*pair, "barycentre", "barycentre"), (bx.lower, bx.upper, by.lower, by.upper)

    _write_csv(args.out, ["x_var", "y_var", "label", "kind", "x_lo", "x_hi", "y_lo", "y_hi"],
               rows())
    return {"out": str(args.out), "pairs": frame.p * (frame.p - 1) // 2}
