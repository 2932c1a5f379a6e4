"""Interval-valued data analysis under explicit latent microdata models.

Distances between interval observations are L2 distances between the
quantile functions of their microdata; with a latent-weight model for where
microdata sit inside each interval, distances, barycentres, Frechet
variances, and covariance/correlation matrices all have closed forms in the
centres, ranges, and the first two latent moments. This package implements
those measures, the quantile-integral oracles that verify them, and the
estimation routines that fit latent distributions from full samples,
summary statistics, or plain assumptions.

Every public name below is loaded on first access (PEP 562), so a process
compiles only the modules it uses: a CLI stage that aggregates microdata
never loads the distance or covariance code.

Which module owns what:

- ``errors``: the exceptions; ``interval``: intervals, boxes and frames.
- ``ingest``: the microdata reader and the aggregation. ``_tables``: every
  CSV format and ``ScaledSample``, re-exported by ``ingest``.
- ``latent``: the latent base class, ``Uniform``, ``Degenerate``, ``Kde``
  and ``fit_kde``, the closed-form cross moments, ``cross_moment`` and the
  JSON (de)serialisation. ``_families``: the triangular, inverted
  triangular, truncated-normal and beta families and the table rule for
  cross moments without a closed form, re-exported by ``latent``.
- ``_engine``: the column engine (``distance_matrix``, ``MomentSummary``)
  that every vectorised distance and covariance runs. ``mallows``: the
  published scalar distance forms, their oracle, the Mahalanobis form and
  the iso-distance ellipse, and the engine's public names.
- ``moments``: barycentres, Frechet variances, covariance and correlation
  matrices and their oracle. ``estimation``: the beta and
  triangular-Pearson fits. ``quadrature`` and ``special``: the fixed-grid
  rule and the special functions.
- ``cli``: the parser, dispatch and error contract of the ``ivda``
  program; ``_cmd_aggregate``, ``_cmd_fit``, ``_cmd_measures`` and
  ``_cmd_tools`` hold the subcommands' bodies.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public module each public name is read from
_MODULE_NAMES = {
    "errors": ("DataValidationError", "DomainError", "IvdaError", "NumericFailure"),
    "latent": ("Degenerate", "InvertedTriangular", "Kde", "LatentDistribution",
               "ShiftedBeta", "Triangular", "TruncatedNormal", "Uniform", "cross_moment",
               "fit_kde", "latent_from_dict", "latent_to_dict", "microdata_quantile",
               "quantile_correlation", "silverman_bandwidth"),
    "interval": ("Box", "Interval", "IntervalFrame", "Violation"),
    "mallows": ("MahalanobisForm", "MomentSummary", "dist_sq_box", "dist_sq_general",
                "dist_sq_iid", "dist_sq_mahalanobis", "dist_sq_musigma",
                "dist_sq_symmetric", "distance_matrix", "iso_distance_set",
                "mahalanobis_form", "oracle_dist_sq", "reduced_vector"),
    "moments": ("Barycentre", "SymbolicCovariance", "correlation_from_cov",
                "correlation_matrix", "cov_model7", "covariance_quantile_oracle",
                "frechet_variance", "frobenius_diff", "jacobi_eigenvalues",
                "sample_barycentre", "symbolic_covariance"),
    "estimation": ("ModeEstimates", "VariableMicrodata", "empirical_moment_summary",
                   "estimate_modes_pearson", "fit_beta_mom",
                   "fit_triangular_pearson", "test_mode_symmetry"),
    "ingest": ("MicroRecord", "ScaledSample", "aggregate", "load_interval_csv",
               "read_microdata_csv", "read_scaled_csv", "read_summary_csv",
               "scale_to_latent", "write_interval_csv", "write_scaled_csv"),
    "quadrature": (),
    "special": (),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}
__all__ = sorted({*_MODULE_NAMES, *_MODULE_OF})


def __getattr__(name):
    if name in _MODULE_NAMES:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value      # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
