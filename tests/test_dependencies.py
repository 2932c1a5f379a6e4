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


def test_runtime_imports_only_numpy_and_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(Path(ivda.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, check=True)
    imported = set(json.loads(done.stdout))
    assert "ivda" in imported
    assert imported - set(sys.stdlib_module_names) - {"numpy", "ivda"} == set()
