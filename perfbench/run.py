"""ivda benchmark: one command per workload, every metric with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload lib-distance --seed 1 --seconds 20 --trace 0

Workloads: cli-kde and lib-distance (gated in BENCHMARK.json), and
lib-parametric (run by hand); see perfbench/README.md.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` a separate traced run gives the per-layer metrics. The line
before it holds the run metadata. Every operation's output is checked
outside the timed region; a failed check counts in ``failed``.

Operation times are in ``ref``: each timed step's wall time over the time
of three reference loops run on the same CPU right before and after it
(see ``worker.ref_probe`` and perfbench/README.md). Wall-clock figures are
in the metadata.

Each workload runs in fresh worker processes (``perfbench/worker.py``) with
BLAS threads pinned to one. Set-up is timed eight times, each in its own
process, half of them before the timed run and half after it, and
``setup_s`` is the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from worker import pin, unpin  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 7919      # for re-checking claims on a seed nobody tuned against
SETUP_REPEATS = 8       # half before the timed run, half after
WORKLOADS = ("cli-kde", "lib-distance", "lib-parametric")
UNITS = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith(".calls") or name == "quadrature.points_per_integral":
        return "count"
    if name.endswith("_ns_per_pt"):
        return "ns/pt"
    if name.endswith("pairs_per_s"):
        return "pairs/s"
    if name.endswith("_frac"):
        return "frac"
    if name.startswith("audit."):
        return "err"
    return "s"


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, timeout):
    """Run the worker to completion; return (wall seconds, last-line JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                          cwd=ROOT, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def median_ref(result):
    """The median operation in ``ref``. A ``cli-kde`` operation is the sum of
    its four stages' medians: each stage median is over the run's complete
    operations, and their noise averages out in the sum."""
    stages = [s for s in result["stage_refs"] if s]
    if not stages:
        return statistics.median(result["refs"])
    return sum(statistics.median(s[name] for s in stages) for name in stages[0])


def tail(times):
    """(time, percentile): the highest percentile with at least ten samples
    beyond it. Below 21 samples that percentile falls under the median, so
    the maximum is reported instead. A maximum of a few dozen samples
    follows single outliers (one operation over a change of the CPU's
    phase), which is why the percentile is used from 21 samples on."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metadata(args, result, extra):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor() or cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import numpy
    checks = result["checks"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "ops": len(checks),
            "failed_frac": sum(not c["ok"] for c in checks) / max(len(checks), 1),
            "checks": checks, **extra}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the first output, for the harness self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ivda" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ivda sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    flags = [f for f, on in (("--tiny", args.tiny), ("--corrupt", args.corrupt)) if on]

    def setup_probes():
        """Time set-ups, each in a fresh process, taking turns on the CPUs."""
        walls = []
        for i in range(SETUP_REPEATS // 2):
            pin(i)
            walls.append(run_worker(["setup", *common, *flags], timeout=170)[0])
        unpin()
        return walls

    setups = setup_probes()
    mode = "trace" if args.trace else "run"
    _, result = run_worker([mode, *common, "--seconds", str(args.seconds), *flags],
                           timeout=175)
    setups += setup_probes()

    times = result["times"]
    checks = result["checks"]
    failed = sum(not c["ok"] for c in checks)
    refs = result["refs"]
    tail_ref, tail_pct = tail(refs)
    extra = {"setup_samples_s": setups, "op_samples": len(times),
             "op_times_s": times, "op_refs": refs, "stage_refs": result["stage_refs"],
             "tail_percentile": tail_pct,
             "op_tail_ref": tail_ref,
             "op_p50_s": statistics.median(times), "op_tail_s": tail(times)[0],
             "ops_per_s": len(times) / sum(times), "stage_walls_s": result["walls"]}
    if args.trace:
        values = result["layers"]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "op_p50_ref": median_ref(result),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    meta = metadata(args, result, extra)
    line = {"correct": failed == 0 and len(checks) > 0, "attempted": len(checks),
            "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"meta": meta, "result": line}, indent=1),
                            encoding="utf-8")
    print(json.dumps({"meta": {k: v for k, v in meta.items() if k != "checks"}}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
