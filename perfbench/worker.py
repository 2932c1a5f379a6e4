"""One benchmark workload, run in a fresh process.

Started by ``run.py``; not meant to be run by hand. Modes:

- ``setup``: set the workload up and exit (``run.py`` times this process);
- ``run``: set up, then run operations back to back (closed loop, one
  client) for the given number of seconds, check every output outside the
  timed region, and print one JSON result line;
- ``trace``: like ``run`` but alternating untraced and traced operations,
  plus probes of single layers; prints per-layer figures;
- ``replay``: re-run one ``ivda`` CLI stage through the library calls that
  the stage makes, with spans around each call (used by ``cli-kde`` traces).

Only ``ivda``'s public functions are called. Spans live in the benchmark,
around those calls.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer, self_times, totals_by_name  # noqa: E402

ivda = None          # imported during set-up, so set-up time includes it

# criterion 2 and criterion 6 of the acceptance suite
DIST_TOL = 1e-7
COV_TOL = 1e-8
# tr(Sigma_B) against the Frechet variance, relative to its scale
TRACE_RTOL = 1e-10


def _import_ivda():
    global ivda
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import ivda as module
    ivda = module


# The CPUs this process may use. Each CPU of the reference machine slows
# down and speeds up on its own, in phases of seconds to a minute. A timed
# step is pinned to one CPU, so that the reference loops around it (below)
# measure the CPU it ran on; steps take turns on the CPUs, so that a run
# meets the phases of every CPU, not those of one.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def pin(i):
    """Run this process, and the processes it starts, on the i-th CPU (cyclic)."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def unpin():
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS))


# The reference loops: three short loops that do not touch ivda. Their
# times, taken on the same CPU right before and right after a timed step,
# give the speed of that CPU at that moment; a step's wall time divided by
# them does not move with the CPU's phase. The loops stand for the kinds
# of work ivda does: integer arithmetic in the interpreter, Python objects
# (a sort and a dict), and many numpy calls on small arrays. Together they
# followed both workloads' speed better than any one of them. The unit
# "ref" is the geometric mean of the three loops' times.
_REF_VALUES = [((i * 7919) % 1000) / 7.0 for i in range(3000)]
_REF_A = np.arange(4.0)
_REF_B = np.ones(4)


def _ref_int():
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def _ref_objects():
    table = {}
    for i, x in enumerate(sorted(_REF_VALUES)):
        table[i] = (x, str(i))
    return len(table)


def _ref_numpy():
    for _ in range(400):
        (_REF_A * _REF_B + _REF_A).sum()


def ref_probe():
    """Seconds of one reference unit on this CPU now: the geometric mean of
    the three loops' times, each the median of five runs."""
    log_sum = 0.0
    for loop in (_ref_int, _ref_objects, _ref_numpy):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        log_sum += math.log(statistics.median(times))
    return math.exp(log_sum / 3.0)


def _no_span(_name):
    return nullcontext()


def _span(tracer):
    return tracer.span if tracer is not None else _no_span


def _frechet_variance(c, r, latents):
    """Mean squared box distance to the barycentre, from latent moments."""
    dc = c - c.mean(axis=0)
    dr = r - r.mean(axis=0)
    psi = np.array([lat.mean for lat in latents])
    delta = np.array([lat.second_moment for lat in latents]) / 4.0
    return float(np.mean(np.sum(dc * dc + delta * dr * dr + psi * dc * dr, axis=1)))


def _trace_gap(sigma, vf):
    return abs(float(np.trace(sigma)) - vf) / max(1.0, abs(vf))


def _cross_moments(latents, span):
    """cross_moment for each column pair, so quadrature lands under latent."""
    for d1, d2 in itertools.combinations(latents, 2):
        kind = "kde-kde" if isinstance(d1, ivda.Kde) and isinstance(d2, ivda.Kde) else "param"
        with span(f"latent.cross_moment.{kind}"):
            ivda.cross_moment(d1, d2)


def _audit_cov(frame, sigma, i, j, span):
    with span("moments.covariance_oracle"):
        oracle = ivda.covariance_quantile_oracle(frame, i, j)
    return abs(oracle - sigma[i, j])


def _audit_dist(frame, i, j, dist_sq, span):
    lo, hi = frame.lower, frame.upper
    with span("mallows.oracle_dist_sq"):
        oracle = sum(ivda.oracle_dist_sq(ivda.Interval(lo[i, k], hi[i, k]), lat,
                                         ivda.Interval(lo[j, k], hi[j, k]), lat)
                     for k, lat in enumerate(frame.latents))
    return abs(oracle - dist_sq)


class Workload:
    min_ops = 3
    trace_min_ops = 6       # alternating untraced and traced operations

    def __init__(self, seed, tiny=False, corrupt=False):
        self.seed = seed
        self.tiny = tiny
        self.corrupt = corrupt

    def rng(self, *stream):
        return np.random.default_rng([self.seed, *stream])

    def probe_pair(self, out):
        """Two latents of the operation for the quadrature/special probes."""
        return out["frame"].latents[0], out["frame"].latents[1]

    def extra_probes(self, out, tracer):
        pass


class LibDistance(Workload):
    """In-process library use on shared latents (cross moments cached)."""

    name = "lib-distance"

    def setup(self):
        _import_ivda()
        self.n = 40 if self.tiny else 200
        self.p = 4
        self.latents = (ivda.Triangular(0.2), ivda.ShiftedBeta(2.0, 3.0),
                        ivda.TruncatedNormal(0.25), ivda.Uniform())
        # warm-up on a small frame fills the cross-moment cache
        self.op(self.inputs(0, 12))

    def inputs(self, k, n=None):
        rng = self.rng(1, k)
        n = self.n if n is None else n
        c = rng.uniform(-5.0, 5.0, size=(n, self.p))
        r = rng.uniform(0.3, 4.0, size=(n, self.p))
        return ivda.IntervalFrame(c - 0.5 * r, c + 0.5 * r,
                                  [f"v{j}" for j in range(self.p)],
                                  latents=self.latents)

    def op(self, frame, tracer=None):
        span = _span(tracer)
        with span("mallows.distance_matrix"):
            dmat = ivda.distance_matrix(frame, threads=1)
        with span("moments.sample_barycentre"):
            bary = ivda.sample_barycentre(frame)
        if tracer is not None:
            _cross_moments(frame.latents, span)
        with span("moments.symbolic_covariance"):
            cov = ivda.symbolic_covariance(frame)
        with span("moments.correlation"):
            corr = ivda.correlation_from_cov(cov)
        return {"frame": frame, "dmat": dmat, "bary": bary, "cov": cov, "corr": corr}

    def check(self, k, out, tracer=None):
        span = _span(tracer)
        frame, dmat, sigma = out["frame"], out["dmat"], out["cov"].sigma_b
        rng = self.rng(2, k)
        errs = {"dist": 0.0, "cov": 0.0, "trace": 0.0}
        pairs = [tuple(rng.choice(frame.n, size=2, replace=False)) for _ in range(8)]
        if self.corrupt and k == 0:
            dmat = dmat.copy()
            dmat[pairs[0]] += 1e-3
        for i, j in pairs:
            errs["dist"] = max(errs["dist"], _audit_dist(frame, i, j, dmat[i, j] ** 2, span))
        i, j = rng.choice(frame.p, size=2, replace=False)
        errs["cov"] = _audit_cov(frame, sigma, i, j, span)
        errs["trace"] = _trace_gap(sigma, out["bary"].frechet_variance)
        ok = (errs["dist"] <= DIST_TOL and errs["cov"] <= COV_TOL
              and errs["trace"] <= TRACE_RTOL and np.all(np.isfinite(out["corr"])))
        return bool(ok), errs

    def extra_probes(self, out, tracer):
        with tracer.span("mallows.distance_matrix.threads2"):
            ivda.distance_matrix(out["frame"], threads=2)


class LibParametric(Workload):
    """Partial and parametric information with cold cross-moment caches."""

    name = "lib-parametric"

    def setup(self):
        _import_ivda()
        self.n, self.p = (20, 6) if self.tiny else (60, 6)
        self.rows = 200 if self.tiny else 1500
        self.draws = 100 if self.tiny else 400
        # warm-up touches each code path on latents no operation uses
        ivda.fit_beta_mom(np.linspace(-0.9, 0.9, 50))
        ivda.cross_moment(ivda.ShiftedBeta(5.0, 5.0), ivda.TruncatedNormal(0.6))
        ivda.fit_triangular_pearson(np.zeros(20), np.linspace(-1.0, 1.0, 20),
                                    [ivda.Interval(-3.0, 3.0)] * 20)

    # latent shapes of every operation: four betas, a triangular mode, sigma2
    SHAPES = ((2.0, 2.6), (2.4, 3.4), (2.7, 2.9), (3.0, 3.2))
    MODE = -0.15
    SIGMA2 = 0.25

    def inputs(self, k):
        """Seeded values around one fixed set of latent shapes.

        Quadrature cost follows the latent shapes, so every operation fits
        the same shapes, each scaled by (1 + 1e-6 k): new latents for the
        caches at an unchanged cost. Beta samples are rescaled to the
        target mean and variance (the moment fit then returns the target
        shapes) and scaled summary modes are shifted to the target mean.
        The seed draws the values themselves.
        """
        tweak = 1.0 + 1e-6 * k
        rng = self.rng(1, k)
        samples = []
        for a, b in self.SHAPES:
            a, b = a * tweak, b * tweak
            mean, var = a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))
            while True:
                w = rng.beta(a, b, size=self.draws)
                w = mean + (w - w.mean()) * math.sqrt(var / w.var())
                if w.min() > 0.0 and w.max() < 1.0:
                    break
            samples.append(2.0 * w - 1.0)
        centre = rng.uniform(-2.0, 2.0, size=self.rows)
        width = rng.uniform(0.5, 3.0, size=self.rows)
        z = rng.uniform(-0.6, 0.3, size=self.rows)
        z += self.MODE * tweak - z.mean()
        means = centre + rng.normal(0.0, 0.05, size=self.rows) * width
        modes = centre + 0.5 * width * z
        medians = (modes + 2.0 * means) / 3.0
        intervals = [ivda.Interval(c - 0.5 * w, c + 0.5 * w)
                     for c, w in zip(centre, width)]
        c = rng.uniform(-5.0, 5.0, size=(self.n, self.p))
        r = rng.uniform(0.3, 4.0, size=(self.n, self.p))
        return {"samples": samples, "means": means, "medians": medians,
                "intervals": intervals, "sigma2": self.SIGMA2 * tweak,
                "lower": c - 0.5 * r, "upper": c + 0.5 * r}

    def op(self, data, tracer=None):
        span = _span(tracer)
        with span("estimation.fit_beta"):
            betas = [ivda.fit_beta_mom(s) for s in data["samples"]]
        with span("estimation.fit_triangular"):
            tri, _ = ivda.fit_triangular_pearson(data["means"], data["medians"],
                                                 data["intervals"])
        with span("latent.truncated_normal"):
            tn = ivda.TruncatedNormal(data["sigma2"])
        frame = ivda.IntervalFrame(data["lower"], data["upper"],
                                   [f"v{j}" for j in range(self.p)],
                                   latents=(*betas, tri, tn))
        if tracer is not None:
            _cross_moments(frame.latents, span)
        with span("moments.symbolic_covariance"):
            cov = ivda.symbolic_covariance(frame)
        with span("moments.correlation"):
            corr = ivda.correlation_from_cov(cov)
        return {"frame": frame, "cov": cov, "corr": corr}

    def check(self, k, out, tracer=None):
        span = _span(tracer)
        frame, sigma = out["frame"], out["cov"].sigma_b
        rng = self.rng(2, k)
        i, j = rng.choice(frame.p, size=2, replace=False)
        if self.corrupt and k == 0:
            sigma = sigma.copy()
            sigma[i, j] += 1e-6
        errs = {"cov": _audit_cov(frame, sigma, i, j, span), "dist": 0.0}
        for _ in range(frame.p):
            a, b = rng.choice(frame.n, size=2, replace=False)
            closed = ivda.dist_sq_box(frame.row_box(a), frame.row_box(b))
            errs["dist"] = max(errs["dist"], _audit_dist(frame, a, b, closed, span))
        c, r = frame.centres_ranges()
        errs["trace"] = _trace_gap(sigma, _frechet_variance(c, r, frame.latents))
        ok = (errs["dist"] <= DIST_TOL and errs["cov"] <= COV_TOL
              and errs["trace"] <= TRACE_RTOL and np.all(np.isfinite(out["corr"])))
        return bool(ok), errs


# --- cli-kde ----------------------------------------------------------------

# Two of the four variables: a run of --seconds then holds about four
# operations instead of two, and their median rides out a slow phase of
# the machine that a mean of two cannot.
CLI_VARIABLES = ("dep_delay", "air_time")
STAGES = ("aggregate", "fit", "distance", "covariance")


def write_microdata(path, seed, months=12, variables=CLI_VARIABLES):
    """Microdata shaped like the bundled flights_like_microdata.csv.

    Within-cell shapes (and cell sizes, 40-60 values) come from a fixed
    stream; the seed draws each cell's location and spread. Aggregation
    scales every cell onto [-1, 1], which removes location and spread, so
    the KDE latents are the same for every seed while intervals, distances
    and covariances change with it.
    """
    shape = np.random.default_rng(20240601)
    rng = np.random.default_rng([seed, 3])
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["month", "carrier", "variable", "value"])
        for month in range(1, months + 1):
            for carrier in ("AA", "BB"):
                count = int(shape.integers(40, 61))
                dep = shape.gamma(2.0, 6.0, size=count)
                base = {
                    "dep_delay": dep,
                    "arr_delay": dep + shape.normal(0.0, 9.0, size=count),
                    "air_time": shape.normal(0.0, 25.0, size=count),
                    "distance": shape.normal(0.0, 40.0, size=count),
                }
                shift = 5.0 + 2.0 * math.sin(month / 2.0) + (3.0 if carrier == "BB" else 0.0)
                loc = {
                    "dep_delay": shift - 8.0 + rng.normal(0.0, 2.0),
                    "arr_delay": shift - 10.0 + rng.normal(0.0, 2.0),
                    "air_time": 150.0 + 15.0 * (carrier == "BB") + rng.normal(0.0, 5.0),
                    "distance": 1125.0 + 112.5 * (carrier == "BB") + rng.normal(0.0, 40.0),
                }
                for name in variables:
                    values = loc[name] + rng.uniform(0.8, 1.25) * base[name]
                    for v in values:
                        writer.writerow([str(month), carrier, name, repr(float(v))])


def _stage_args(stage, micro, d):
    if stage == "aggregate":
        return ["aggregate", "--microdata", str(micro), "--trim", "0.05",
                "--out", str(d / "intervals.csv"), "--scaled-out", str(d / "scaled.csv")]
    if stage == "fit":
        return ["fit", "--method", "kde", "--scaled", str(d / "scaled.csv"),
                "--out", str(d / "fit.json")]
    if stage == "distance":
        return ["distance", "--intervals", str(d / "intervals.csv"),
                "--latents", str(d / "fit.json"), "--out", str(d / "distance.csv")]
    return ["covariance", "--intervals", str(d / "intervals.csv"),
            "--latents", str(d / "fit.json"), "--out", str(d / "covariance.csv"),
            "--report-out", str(d / "report.json")]


def _run(cmd, **kw):
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, **kw)
    return time.perf_counter() - start, proc


def _read_matrix(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:] if row])


def _write_matrix(path, matrix):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["", *range(len(matrix))])
        writer.writerows([i, *map(repr, row.tolist())] for i, row in enumerate(matrix))


def _read_intervals(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    vals = np.array([[float(v) for v in row[1:]] for row in rows[1:] if row])
    lower, upper = vals[:, 0::2], vals[:, 1::2]
    names = [h[:-3] for h in rows[0][1::2]]
    return 0.5 * (lower + upper), upper - lower, names


class CliKde(Workload):
    """The ivda CLI chain with KDE latents, one process per command."""

    name = "cli-kde"
    min_ops = 2
    trace_min_ops = 2
    points = 0          # integrand points counted by the replay's probe

    def setup(self):
        self.work = OUT / f"work-{self.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.micro = self.work / "microdata.csv"
        write_microdata(self.micro, self.seed, months=2 if self.tiny else 12)
        # warm the interpreter's bytecode and file caches for ivda
        _run([sys.executable, "-c", "import ivda"], check=True)

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def inputs(self, k):
        self.k = k
        d = self.work / f"op{k}"
        d.mkdir()
        return d

    def op(self, d, tracer=None):
        """The four CLI stages; traced, each is replayed right after it runs.

        Replaying stage by stage keeps each CLI stage and its replay in the
        same phase of the machine's speed, so their difference (the CLI's
        own overhead) is not swamped by that drift.
        """
        walls, refs = {}, {}
        for i, stage in enumerate(STAGES):
            pin(self.k + i)
            before = ref_probe()
            wall, proc = _run([sys.executable, "-m", "ivda.cli",
                               *_stage_args(stage, self.micro, d)])
            refs[stage] = 0.5 * (before + ref_probe())
            walls[stage] = wall
            if proc.returncode != 0:
                return {"dir": d, "walls": walls, "error": f"{stage}: {proc.stderr.strip()}"}
            if tracer is not None:
                walls[f"replay.{stage}"] = self.replay(stage, d, tracer)
        stage_refs = {s: walls[s] / refs[s] for s in STAGES}
        return {"dir": d, "walls": walls, "error": None,
                "op_refs": sum(stage_refs.values()), "stage_refs": stage_refs}

    def check(self, k, out, tracer=None):
        if out["error"]:
            return False, {"error": out["error"]}
        d = out["dir"]
        if self.corrupt and k == 0:
            dmat = _read_matrix(d / "distance.csv")
            dmat[0, 1] *= 1.001
            _write_matrix(d / "distance.csv", dmat)
        return self._check_files(k, d)

    def _check_files(self, k, d):
        c, r, names = _read_intervals(d / "intervals.csv")
        fit = json.loads((d / "fit.json").read_text(encoding="utf-8"))
        moments = [SimpleNamespace(**fit[n]["diagnostics"]) for n in names]
        psi = np.array([m.mean for m in moments])
        delta = np.array([m.second_moment for m in moments]) / 4.0
        dmat = _read_matrix(d / "distance.csv")
        dc = c[:, None, :] - c[None, :, :]
        dr = r[:, None, :] - r[None, :, :]
        closed = np.sum(dc * dc + delta * dr * dr + psi * dc * dr, axis=2)
        errs = {"dist": float(np.max(np.abs(dmat ** 2 - closed) / np.maximum(1.0, closed)))}
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        sigma = np.array(report["sigma_b"])
        euu = np.array(report["euu"])
        n = c.shape[0]
        cc, rc = c - c.mean(axis=0), r - r.mean(axis=0)
        expect = (cc.T @ cc + 0.25 * euu * (rc.T @ rc)
                  + 0.5 * (cc.T @ rc) * psi + 0.5 * psi[:, None] * (rc.T @ cc)) / n
        scale = max(1.0, float(np.max(np.abs(sigma))))
        errs["cov"] = float(np.max(np.abs(sigma - expect))) / scale
        errs["trace"] = _trace_gap(sigma, _frechet_variance(c, r, moments))
        errs["euu_diag"] = float(np.max(np.abs(np.diag(euu) - 4.0 * delta)))
        ok = (errs["dist"] <= 1e-9 and errs["cov"] <= 1e-10
              and errs["trace"] <= TRACE_RTOL and errs["euu_diag"] <= 1e-12
              and np.array_equal(_read_matrix(d / "covariance.csv"), sigma)
              and np.array_equal(dmat, dmat.T) and not np.any(np.diag(dmat))
              and report["min_eigenvalue"] >= -1e-10 * scale)
        if k > 0:
            first = self.work / "op0"
            same = all((first / f.name).read_bytes() == f.read_bytes()
                       for f in sorted(d.iterdir()))
            errs["identical"] = same
            ok = ok and same
        return bool(ok), errs

    def replay(self, stage, src, tracer):
        """Replay one stage in a fresh process; return its wall time."""
        dest = self.work / f"replay-{tracer.op_id}"
        dest.mkdir(exist_ok=True)
        with tracer.span(f"replay.{stage}") as parent:
            wall, proc = _run([sys.executable, str(Path(__file__)), "replay",
                               "--stage", stage, "--src", str(src),
                               "--dest", str(dest), "--micro", str(self.micro)])
        if proc.returncode != 0:
            raise RuntimeError(f"replay of {stage} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tracer.adopt(result["spans"], parent["id"], tracer.op_id)
        tracer.adopt(result["probes"], None, "probe")
        self.points = max(self.points, result["points"])
        return wall


def replay_stage(stage, src, dest, micro):
    """Library calls of one CLI stage, as the stage's command makes them."""
    _import_ivda()
    tracer = Tracer()
    probes = Tracer()
    span = tracer.span
    src, dest = Path(src), Path(dest)
    with span(f"stage.{stage}"):
        if stage == "aggregate":
            with span("ingest.read"):
                records = ivda.read_microdata_csv(micro)
            with span("ingest.aggregate"):
                result = ivda.aggregate(records, trim=0.05)
            with span("ingest.write"):
                ivda.write_interval_csv(result.frame, dest / "intervals.csv")
                ivda.write_scaled_csv(result.scaled, dest / "scaled.csv")
        elif stage == "fit":
            with span("ingest.read"):
                samples = ivda.read_scaled_csv(src / "scaled.csv")
            for name in sorted(samples):
                with span("estimation.fit_kde"):
                    ivda.fit_kde(samples[name].values)
        else:
            with span("ingest.read"):
                frame = ivda.load_interval_csv(src / "intervals.csv")
            with span("interval.validate"):
                frame.validate()
            specs = json.loads((src / "fit.json").read_text(encoding="utf-8"))
            latents = {}
            for name, spec in specs.items():
                with span("latent.kde_build"):
                    latents[name] = ivda.latent_from_dict(spec, base_dir=src)
            frame = frame.with_latents(latents)
            if stage == "distance":
                with span("mallows.distance_matrix"):
                    ivda.distance_matrix(frame, threads=1)
            else:
                _cross_moments(frame.latents, span)
                with span("moments.symbolic_covariance"):
                    # the command computes it again for --report-out
                    cov = ivda.symbolic_covariance(frame)
                    ivda.symbolic_covariance(frame)
                with span("moments.jacobi_eigenvalues"):
                    _eigenvalues(cov.sigma_b)
    if stage == "distance":
        with probes.span("interval.row_box"):
            for i in range(frame.n):
                frame.row_box(i)
    points = 0
    if stage == "covariance":
        points = probe_layers(probes, frame.latents[0], frame.latents[1])
    return {"spans": tracer.spans, "probes": probes.spans, "points": points}


def _eigenvalues(matrix):
    # the covariance report's eigenvalue step, should the library drop its solver
    solver = getattr(ivda, "jacobi_eigenvalues", None) or np.linalg.eigvalsh
    return solver(matrix)


def probe_layers(tracer, d1, d2):
    """Quadrature and special-function probes on one cross-moment integral.

    Integrates q1(t) q2(t) with the breakpoints and tolerance cross_moment
    uses, counting integrand points; then times norm_ppf and betainc_inv on
    that node set.
    """
    nodes = []

    def integrand(t):
        nodes.append(np.array(t, dtype=float))
        return d1.quantile(t) * d2.quantile(t)

    cuts = set(d1.breakpoints()) | set(d2.breakpoints())
    with tracer.span("quadrature.integrate"):
        ivda.quadrature.integrate(integrand, breakpoints=cuts, tol=1e-9)
    t = np.concatenate(nodes)
    shape = next(((d.alpha, d.beta) for d in (d1, d2) if isinstance(d, ivda.ShiftedBeta)),
                 (2.0, 3.0))
    for name, fn in (("special.norm_ppf", ivda.special.norm_ppf),
                     ("special.betainc_inv", lambda x: ivda.special.betainc_inv(*shape, x))):
        with tracer.span(name):
            fn(t)
    return t.size


# --- driving loops ----------------------------------------------------------

WORKLOADS = {w.name: w for w in (CliKde, LibDistance, LibParametric)}


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_loop(wl, seconds, trace):
    """Closed loop: next operation only after the previous one and its check."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    times, traced_times, refs, stage_refs, checks, cycles, walls = [], [], [], [], [], [], []
    last = None
    k = 0
    while True:
        cycle_start = time.perf_counter()
        data = wl.inputs(k)
        traced = trace and k % 2 == 1
        tracer.op_id = k
        pin(k)
        op_tracer = tracer if traced else None
        # an operation that raises counts as failed, like a failed check
        before = ref_probe()
        start = time.perf_counter()
        try:
            out = wl.op(data, op_tracer)
        except Exception as exc:
            out, errs = None, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        # the operation in reference loops; cli-kde sums its stages' own
        ref = (out or {}).get("op_refs") or elapsed / (0.5 * (before + ref_probe()))
        ok = False
        if out is not None:
            try:
                ok, errs = wl.check(k, out, op_tracer)
            except Exception as exc:
                errs = {"error": f"check: {type(exc).__name__}: {exc}"}
            if "walls" in out:
                walls.append({"traced": traced, **out["walls"]})
        (traced_times if traced else times).append(elapsed)
        if not traced:
            refs.append(ref)
            stage_refs.append((out or {}).get("stage_refs"))
        checks.append({"op": k, "ok": ok, "traced": traced, "seconds": elapsed, **errs})
        if ok:
            last = out
        cycles.append(time.perf_counter() - cycle_start)
        k += 1
        need = wl.trace_min_ops if trace else wl.min_ops
        if k >= need and time.perf_counter() + statistics.median(cycles) > deadline:
            break
    unpin()
    return {"times": times, "traced_times": traced_times, "refs": refs,
            "stage_refs": stage_refs, "checks": checks,
            "walls": walls, "tracer": tracer, "last": last}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run", "trace", "replay"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--stage")
    parser.add_argument("--src")
    parser.add_argument("--dest")
    parser.add_argument("--micro")
    args = parser.parse_args(argv)

    if args.mode == "replay":
        print(json.dumps(replay_stage(args.stage, args.src, args.dest, args.micro)))
        return 0

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny, corrupt=args.corrupt)
    start = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - start
    try:
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        res = run_loop(wl, args.seconds, args.mode == "trace")
        result = {"setup_s": setup_s, "times": res["times"], "refs": res["refs"],
                  "stage_refs": res["stage_refs"],
                  "checks": res["checks"],
                  "walls": res["walls"],
                  "peak_rss_mb": _peak_rss_mb(isinstance(wl, CliKde))}
        if args.mode == "trace":
            result.update(layers(wl, res))
            spans = res["tracer"].spans
            own = self_times(spans)
            (OUT / f"spans-{wl.name}-seed{args.seed}.json").write_text(
                json.dumps([{**s, "self": own[s["id"]]} for s in spans]), encoding="utf-8")
        print(json.dumps(result))
        return 0
    finally:
        if isinstance(wl, CliKde):
            wl.cleanup()


def layers(wl, res):
    """Per-layer figures: medians over traced operations, plus probes."""
    tracer = res["tracer"]
    out = res["last"]
    extra = {"cli.import_s": 0.0, "cli.overhead_s": 0.0,
             **{f"stage.{stage}_s": 0.0 for stage in STAGES}}
    per_op = [totals_by_name(tracer.spans, c["op"]) for c in res["checks"] if c["traced"]]
    if isinstance(wl, CliKde):
        points = wl.points
        n = _read_intervals(out["dir"] / "intervals.csv")[0].shape[0]
        import_s = statistics.median(
            _run([sys.executable, "-c", "import ivda"])[0] for _ in range(3))
        extra["cli.import_s"] = import_s
        for stage in STAGES:
            extra[f"stage.{stage}_s"] = statistics.median(w[stage] for w in res["walls"])
        traced = list(zip((w for w in res["walls"] if w["traced"]), per_op))
        extra["cli.overhead_s"] = statistics.median(
            sum(w[s] - import_s - op.get(f"stage.{s}", (0.0, 0))[0] for s in STAGES)
            for w, op in traced)
        extra["trace.overhead_frac"] = statistics.median(
            sum(w[f"replay.{s}"] for s in STAGES) / sum(w[s] for s in STAGES) - 1.0
            for w, _ in traced)
    else:
        n = out["frame"].n
        tracer.op_id = "probe"
        points = probe_layers(tracer, *wl.probe_pair(out))
        with tracer.span("interval.row_box"):
            for i in range(n):
                out["frame"].row_box(i)
        with tracer.span("interval.validate"):
            out["frame"].validate()
        wl.extra_probes(out, tracer)
        extra["trace.overhead_frac"] = (statistics.median(res["traced_times"])
                                        / statistics.median(res["times"]) - 1.0)
    probes = totals_by_name(tracer.spans, "probe")

    def op_total(name):
        return statistics.median(op.get(name, (0.0, 0))[0] for op in per_op)

    def op_calls(name):
        return statistics.median(op.get(name, (0.0, 0))[1] for op in per_op)

    def probe(name):
        return probes.get(name, (0.0, 0))[0]

    audited = [c for c in res["checks"] if c["traced"]]
    dm = op_total("mallows.distance_matrix")
    metrics = {
        "ingest.read_s": op_total("ingest.read"),
        "ingest.write_s": op_total("ingest.write"),
        "ingest.aggregate_s": op_total("ingest.aggregate"),
        "estimation.fit_kde_s": op_total("estimation.fit_kde"),
        "estimation.fit_kde.calls": op_calls("estimation.fit_kde"),
        "estimation.fit_beta_s": op_total("estimation.fit_beta"),
        "estimation.fit_triangular_s": op_total("estimation.fit_triangular"),
        "latent.kde_build_s": op_total("latent.kde_build"),
        "latent.kde_build.calls": op_calls("latent.kde_build"),
        "latent.cross_moment.kde-kde_s": op_total("latent.cross_moment.kde-kde"),
        "latent.cross_moment.param_s": op_total("latent.cross_moment.param"),
        "latent.cross_moment.calls": (op_calls("latent.cross_moment.kde-kde")
                                      + op_calls("latent.cross_moment.param")),
        "quadrature.points_per_integral": points,
        "quadrature.integrate_s": probe("quadrature.integrate"),
        "special.betainc_inv_ns_per_pt": probe("special.betainc_inv") * 1e9 / max(points, 1),
        "special.norm_ppf_ns_per_pt": probe("special.norm_ppf") * 1e9 / max(points, 1),
        "interval.row_box_s": probe("interval.row_box"),
        "interval.validate_s": op_total("interval.validate") or probe("interval.validate"),
        "mallows.distance_matrix_s": dm,
        "mallows.pairs_per_s": n * (n - 1) / 2 / dm if dm else 0.0,
        "mallows.distance_matrix.threads2_s": probe("mallows.distance_matrix.threads2"),
        "mallows.oracle_dist_sq_s": op_total("mallows.oracle_dist_sq"),
        "moments.sample_barycentre_s": op_total("moments.sample_barycentre"),
        "moments.symbolic_covariance_s": op_total("moments.symbolic_covariance"),
        "moments.jacobi_eigenvalues_s": op_total("moments.jacobi_eigenvalues"),
        "moments.covariance_oracle_s": op_total("moments.covariance_oracle"),
        "audit.max_dist_err": max((c.get("dist", 0.0) for c in audited), default=0.0),
        "audit.max_cov_err": max((c.get("cov", 0.0) for c in audited), default=0.0),
        **extra,
    }
    return {"layers": metrics}


if __name__ == "__main__":
    sys.exit(main())
