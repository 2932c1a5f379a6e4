import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivda

# imports in a fresh interpreter, so modules loaded by the test run do not hide any
_PROBE = """
import json, sys
before = set(sys.modules)
import ivda, ivda.cli, ivda.datasets
for name in ivda.__all__:
    getattr(ivda, name)      # the package loads its modules on first access
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def _fresh_modules(code, *args):
    # runs code that prints a JSON list of module names as its last line
    env = {**os.environ, "PYTHONPATH": str(Path(ivda.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_runtime_imports_only_numpy_and_the_standard_library():
    imported = _fresh_modules(_PROBE)
    assert "ivda" in imported
    assert imported - set(sys.stdlib_module_names) - {"numpy", "ivda"} == set()


# modules that no stage of the analyst chain uses, at several ms of start-up each
_UNUSED = ("concurrent.futures", "fractions", "decimal", "logging", "numpy.polynomial",
           "numpy.ma")

_CHAIN = """
import json, sys
from pathlib import Path
from ivda import cli
from ivda.datasets import bundled_path
d = Path(sys.argv[1])
for argv in (
    ["aggregate", "--microdata", str(bundled_path("flights_like_microdata.csv")),
     "--trim", "0.05", "--out", str(d / "iv.csv"), "--scaled-out", str(d / "scaled.csv")],
    ["fit", "--method", "kde", "--scaled", str(d / "scaled.csv"), "--out", str(d / "fit.json")],
    ["distance", "--intervals", str(d / "iv.csv"), "--latents", str(d / "fit.json"),
     "--out", str(d / "dist.csv")],
    ["covariance", "--intervals", str(d / "iv.csv"), "--latents", str(d / "fit.json"),
     "--out", str(d / "cov.csv"), "--report-out", str(d / "report.json")],
):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_start_up_loads_no_unused_module():
    loaded = _fresh_modules("import json, sys, ivda.cli; print(json.dumps(sorted(sys.modules)))")
    assert "ivda.cli" in loaded
    assert loaded.isdisjoint(_UNUSED)


def test_kde_chain_loads_no_unused_module(tmp_path):
    # np.percentile and np.union1d import numpy.ma on first call, through np.unique
    loaded = _fresh_modules(_CHAIN, str(tmp_path))
    assert loaded.isdisjoint(_UNUSED)


# ivda's public names before they were loaded lazily; each must still resolve
_PUBLIC = (
    "Barycentre Box DataValidationError Degenerate DomainError Interval IntervalFrame "
    "InvertedTriangular IvdaError Kde LatentDistribution MahalanobisForm MicroRecord "
    "ModeEstimates MomentSummary NumericFailure ScaledSample ShiftedBeta SymbolicCovariance "
    "Triangular TruncatedNormal Uniform VariableMicrodata Violation aggregate "
    "correlation_from_cov correlation_matrix cov_model7 covariance_quantile_oracle "
    "cross_moment dist_sq_box dist_sq_general dist_sq_iid dist_sq_mahalanobis "
    "dist_sq_musigma dist_sq_symmetric distance_matrix empirical_moment_summary errors "
    "estimate_modes_pearson estimation fit_beta_mom fit_kde fit_triangular_pearson "
    "frechet_variance frobenius_diff ingest interval iso_distance_set jacobi_eigenvalues "
    "latent latent_from_dict latent_to_dict load_interval_csv mahalanobis_form mallows "
    "microdata_quantile moments oracle_dist_sq quadrature quantile_correlation "
    "read_microdata_csv read_scaled_csv read_summary_csv reduced_vector sample_barycentre "
    "scale_to_latent silverman_bandwidth special symbolic_covariance test_mode_symmetry "
    "write_interval_csv write_scaled_csv").split()

_RESOLVE = """
import json, sys
import ivda
assert not [m for m in sys.modules if m.startswith("ivda.")], "import ivda loaded a module"
names = [n for n in dir(ivda) if not n.startswith("_")]
for name in names:
    getattr(ivda, name)
print(json.dumps(names))
"""


def test_public_names_are_unchanged_and_each_resolves():
    assert _fresh_modules(_RESOLVE) == set(_PUBLIC)
    assert sorted(ivda.__all__) == sorted(_PUBLIC)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ivda.no_such_name
    assert not hasattr(ivda, "fit_beta")


_STAGE = """
import json, sys
from ivda import cli
assert cli.main(sys.argv[1:]) == 0, sys.argv
print(json.dumps(sorted(sys.modules)))
"""

_BASE = {"_value", "errors", "ingest", "interval"}
_DISTANCE = _BASE | {"latent", "quadrature", "mallows"}


def test_each_chain_stage_loads_only_its_modules(tmp_path):
    # one fresh process per stage, as the CLI runs them; special is never needed.
    # aggregate runs on plain floats, without numpy, and fit reads no interval
    # frame. No stage loads dataclasses, nor inspect with it: the value
    # classes are plain slotted classes
    from ivda.datasets import bundled_path

    frame = ["--intervals", str(tmp_path / "iv.csv"), "--latents", str(tmp_path / "fit.json")]
    stages = [
        (["aggregate", "--microdata", str(bundled_path("flights_like_microdata.csv")),
          "--trim", "0.05", "--out", str(tmp_path / "iv.csv"),
          "--scaled-out", str(tmp_path / "scaled.csv")], {"_value", "errors", "ingest"}),
        (["fit", "--method", "kde", "--scaled", str(tmp_path / "scaled.csv"),
          "--out", str(tmp_path / "fit.json")],
         {"_value", "errors", "ingest", "estimation", "latent", "quadrature"}),
        (["distance", *frame, "--out", str(tmp_path / "dist.csv")], _DISTANCE),
        (["covariance", *frame, "--out", str(tmp_path / "cov.csv"),
          "--report-out", str(tmp_path / "report.json")], _DISTANCE | {"moments"}),
    ]
    for argv, expected in stages:
        loaded = _fresh_modules(_STAGE, *argv)
        assert {m[len("ivda."):] for m in loaded if m.startswith("ivda.")} == \
            expected | {"cli"}, argv[0]
        assert ("numpy" in loaded) == (argv[0] != "aggregate"), argv[0]
        assert "dataclasses" not in loaded, argv[0]


def test_cli_import_loads_no_numpy():
    loaded = _fresh_modules("import json, sys, ivda.cli; print(json.dumps(sorted(sys.modules)))")
    assert "ivda.cli" in loaded and "numpy" not in loaded
