import ast
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


_LAZY = """
import json, sys
import ivda
module = __import__(f"ivda.{sys.argv[1]}", fromlist=["__all__"])
before = set(sys.modules)
values = {name: getattr(module, name) for name in module.__all__}
print(json.dumps([sorted(set(sys.modules) - before),
                  [name for name, value in values.items()
                   if name in ivda.__all__ and getattr(ivda, name) is not value]]))
"""


@pytest.mark.parametrize("module", ["latent", "moments", "interval", "ingest", "mallows",
                                    "estimation"])
def test_each_public_module_resolves_its_names_through_reported_imports(module):
    # every name of the module's __all__ is the package's object of that name,
    # and each ivda module that a lazy lookup loads shows in -X importtime, as
    # a module loaded by an import statement does
    env = {**os.environ, "PYTHONPATH": str(Path(ivda.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", _LAZY, module], env=env,
                          capture_output=True, text=True, check=True)
    loaded, differ = json.loads(done.stdout.splitlines()[-1])
    reported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert differ == []
    assert {m for m in loaded if m.startswith("ivda.")} <= reported


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

_FRAME = {"_value", "errors", "_tables", "interval", "latent", "_cmd_measures"}


def _chain_stages(d):
    """argv of each stage of the KDE chain, writing into ``d``, with the ivda
    modules besides ``ivda.cli`` that the stage loads. aggregate runs on
    plain floats and lists, without numpy or the value classes; fit reads
    no interval frame and builds no parametric family; distance runs the
    column engine without the scalar forms of ``mallows`` or the cross
    moments; covariance runs the closed cross moments without the column
    engine or ``_families``; none of them loads quadrature or special."""
    from ivda.datasets import bundled_path

    frame = ["--intervals", str(d / "iv.csv"), "--latents", str(d / "fit.json")]
    return [
        (["aggregate", "--microdata", str(bundled_path("flights_like_microdata.csv")),
          "--trim", "0.05", "--out", str(d / "iv.csv"), "--scaled-out", str(d / "scaled.csv")],
         {"errors", "_tables", "_aggregation", "_cmd_aggregate"}),
        (["fit", "--method", "kde", "--scaled", str(d / "scaled.csv"),
          "--out", str(d / "fit.json")],
         {"_value", "errors", "_tables", "latent", "_scaled", "_cmd_fit"}),
        (["distance", *frame, "--out", str(d / "dist.csv")], _FRAME | {"_engine"}),
        (["covariance", *frame, "--out", str(d / "cov.csv"),
          "--report-out", str(d / "report.json")], _FRAME | {"moments"}),
    ]


def test_each_chain_stage_loads_only_its_modules(tmp_path):
    # one fresh process per stage, as the CLI runs them. No stage loads
    # dataclasses, nor inspect with it: the value classes are plain slotted
    # classes
    for argv, expected in _chain_stages(tmp_path):
        loaded = _fresh_modules(_STAGE, *argv)
        assert {m[len("ivda."):] for m in loaded if m.startswith("ivda.")} == \
            expected | {"cli"}, argv[0]
        assert ("numpy" in loaded) == (argv[0] != "aggregate"), argv[0]
        assert "dataclasses" not in loaded, argv[0]


# AST nodes of ivda source that the four chain stages compile together, with
# no cached bytecode; 53,311 before each stage's code was split by what it
# runs, and 34,594 before cold code left the stages' modules
_COMPILE_BUDGET = 23_000


def _nodes(path):
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_the_chain_stages_compile_within_the_budget(tmp_path):
    # each stage runs as the program does, with ivda.cli as __main__; -X importtime
    # names every module an import statement loads, and the module set must
    # be the one above, so no module loaded some other way escapes the count
    package = Path(ivda.__file__).parent
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    nodes = {}
    for argv, expected in _chain_stages(tmp_path):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "ivda.cli", *argv],
                              env=env, capture_output=True, text=True, cwd=tmp_path)
        assert done.returncode == 0, done.stderr[-2000:]
        imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        ours = {m for m in imported if m == "ivda" or m.startswith("ivda.")}
        assert "ivda.cli" not in ours, argv[0]
        assert ours == {"ivda"} | {f"ivda.{m}" for m in expected}, argv[0]
        nodes[argv[0]] = sum(_nodes(package / f"{m}.py")
                             for m in {"cli", "__init__", *expected})
    assert sum(nodes.values()) <= _COMPILE_BUDGET, (
        f"the chain stages compile {sum(nodes.values()):,} AST nodes, over the budget of "
        f"{_COMPILE_BUDGET:,}: " + ", ".join(f"{stage} {n:,}" for stage, n in nodes.items()))


def test_cli_import_loads_no_numpy():
    loaded = _fresh_modules("import json, sys, ivda.cli; print(json.dumps(sorted(sys.modules)))")
    assert "ivda.cli" in loaded and "numpy" not in loaded
