"""The CLI's outputs on the bundled fixtures, pinned bit for bit across commits.

``tests/data/cli_digests.json`` holds, for each command of
``scripts/cli_digests.py``, its exit code and the SHA-256 of its stdout, its
stderr and every file it writes. A change that moves a bit on purpose reruns
that script and names each moved file in the change log.

The bits of a float result may differ between numpy versions. Under the
numpy version that the manifest records, every digest must match. Under
another version the exit codes and the written file names must still
match, since numpy cannot change them; a digest that differs then marks
the test as an expected failure that names both versions and the first
moved entries, so the drift shows in the test summary instead of passing
or skipping in silence.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "cli_digests", ROOT / "scripts" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_the_manifest(tmp_path):
    script = _load_script()
    manifest = json.loads(script.MANIFEST.read_text(encoding="utf-8"))
    fresh = script.build(tmp_path)

    assert [e["argv"] for e in fresh["commands"]] == [e["argv"] for e in manifest["commands"]]
    moved = [f"input {name}" for name, digest in fresh["inputs"].items()
             if manifest["inputs"].get(name) != digest]
    for k, (got, want) in enumerate(zip(fresh["commands"], manifest["commands"])):
        assert (got["exit"], sorted(got["files"])) == (want["exit"], sorted(want["files"])), \
            got["argv"]
        command = f"command {k} ({got['argv'][0]})"
        moved += [f"{command}: {part}" for part in ("stdout", "stderr")
                  if got[part] != want[part]]
        moved += [f"{command}: {name}" for name, digest in got["files"].items()
                  if want["files"][name] != digest]
    if moved and np.__version__ != manifest["numpy"]:
        pytest.xfail(f"numpy {np.__version__}, manifest from numpy {manifest['numpy']}: "
                     f"{len(moved)} digest(s) moved, first {moved[:3]}")
    assert moved == []
