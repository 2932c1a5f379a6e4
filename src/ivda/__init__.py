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

Each public name maps to the module that defines it in ``_DEFINED_IN``
below, the one table of where a public name lives. ``_load`` reads a name
from that module, for the package and for each public module that lists in
its ``__all__`` a name it does not define (``latent``, ``moments``,
``interval``, ``ingest`` and ``mallows``), so every public name resolves
as a name of the package and of each public module that lists it, as the
same object. The modules are cut along what each CLI stage runs: the
private modules (``_families``, ``_box``, ``_engine``, ``_barycentre``,
``_scaled``, ...) hold what only some stages or library callers use, and
``cli`` with the ``_cmd_*`` modules holds the ``ivda`` program.
"""

import sys as _sys

__version__ = "0.1.0"

# the public modules
_MODULES = "errors estimation ingest interval latent mallows moments quadrature special".split()
# each public name, as space-separated names, under the module that defines it
_DEFINED_IN = {
    "errors": "DataValidationError DomainError IvdaError NumericFailure",
    "latent": "Degenerate Kde LatentDistribution Uniform fit_kde latent_from_dict latent_to_dict "
              "silverman_bandwidth",
    "_families": "InvertedTriangular ShiftedBeta Triangular TruncatedNormal",
    "interval": "IntervalFrame Violation load_interval_csv",
    "_box": "Box Interval",
    "_engine": "distance_matrix",
    "mallows": "MahalanobisForm dist_sq_box dist_sq_general dist_sq_iid dist_sq_mahalanobis "
               "dist_sq_musigma dist_sq_symmetric iso_distance_set mahalanobis_form "
               "microdata_quantile oracle_dist_sq reduced_vector",
    "moments": "MomentSummary SymbolicCovariance cross_moment jacobi_eigenvalues "
               "quantile_correlation symbolic_covariance",
    "_barycentre": "Barycentre correlation_from_cov correlation_matrix cov_model7 "
                   "covariance_quantile_oracle frechet_variance frobenius_diff sample_barycentre",
    "estimation": "ModeEstimates VariableMicrodata empirical_moment_summary "
                  "estimate_modes_pearson fit_beta_mom fit_triangular_pearson read_summary_csv "
                  "test_mode_symmetry",
    "ingest": "MicroRecord aggregate read_microdata_csv scale_to_latent write_interval_csv "
              "write_scaled_csv",
    "_scaled": "ScaledSample read_scaled_csv",
}
_HOME = {name: module for module, names in _DEFINED_IN.items() for name in names.split()}
__all__ = sorted({*_MODULES, *_HOME})


def _load(module, name):
    """``name`` as an attribute of ``module``, the package or a public module,
    which lists it in ``__all__`` without defining it: read from the module
    that defines it (a public module of the package is itself), and kept, so
    that later lookups skip this function. ``__import__`` loads it as an
    import statement does, so ``-X importtime`` reports the load."""
    if name not in _sys.modules[module].__all__:
        raise AttributeError(f"module {module!r} has no attribute {name!r}")
    home = __import__(f"{__name__}.{_HOME.get(name, name)}", fromlist=[name])
    value = getattr(home, name) if name in _HOME else home
    setattr(_sys.modules[module], name, value)
    return value


def __getattr__(name):
    return _load(__name__, name)


def __dir__():
    return sorted({*globals(), *__all__})
