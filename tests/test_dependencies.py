import json
import os
import subprocess
import sys
from pathlib import Path

import ivda

# imports in a fresh interpreter, so modules loaded by the test run do not hide any
_PROBE = """
import json, sys
before = set(sys.modules)
import ivda, ivda.cli, ivda.datasets
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
