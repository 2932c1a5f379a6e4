"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test reports a PASS/SKIP line in the terminal summary (see conftest).
Runtime-limited criteria assert their own budgets.
"""

import math
import time

import numpy as np
import pytest

from ivda import (
    Box,
    Degenerate,
    Interval,
    IntervalFrame,
    InvertedTriangular,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
    VariableMicrodata,
    correlation_from_cov,
    cov_model7,
    covariance_quantile_oracle,
    cross_moment,
    dist_sq_box,
    dist_sq_general,
    dist_sq_mahalanobis,
    dist_sq_musigma,
    empirical_moment_summary,
    fit_beta_mom,
    fit_kde,
    frechet_variance,
    iso_distance_set,
    jacobi_eigenvalues,
    load_interval_csv,
    mahalanobis_form,
    oracle_dist_sq,
    read_scaled_csv,
    reduced_vector,
    sample_barycentre,
    symbolic_covariance,
    test_mode_symmetry,
)
from ivda._families import _table_moments
from ivda.datasets import credit_card_intervals, external_path
from ivda.estimation import _binom_two_sided_p
from ivda.moments import _closed_cross_moment
from ivda.special import betainc_inv

from conftest import record_criterion, trapezoid
from tanh_sinh import tanh_sinh


def random_interval(rng, max_range=4.0):
    c = float(rng.uniform(-5.0, 5.0))
    return Interval.from_centre_range(c, float(rng.uniform(0.0, max_range)))


def latent_pool(rng, with_expensive=True):
    pool = [Uniform(), InvertedTriangular(), TruncatedNormal(),
            TruncatedNormal(0.04)]
    pool += [Triangular(float(m)) for m in rng.uniform(-0.95, 0.95, size=6)]
    if with_expensive:
        for a, b in ((0.44, 2.15), (1.08, 2.65), (2.0, 5.0)):
            w = betainc_inv(a, b, rng.uniform(size=4000))
            pool.append(fit_beta_mom(2.0 * w - 1.0))
        pool.append(fit_kde(rng.uniform(-1.0, 1.0, size=200)))
        pool.append(fit_kde(Triangular(0.3).quantile(rng.uniform(size=300))))
    return pool


def test_criterion_1_cross_moment_exactness():
    start = time.perf_counter()
    closed = _closed_cross_moment(Uniform(), Triangular(0.0))
    assert abs(closed - 7.0 / 30.0) < 1e-9
    quad = _table_moments([(Uniform(), Triangular(0.0))])[0]
    assert abs(quad - 7.0 / 30.0) < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    record_criterion(1, "cross moment uniform/triangular = 7/30",
                     detail=f"{elapsed:.3f}s")


def test_criterion_2_distance_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    pool = latent_pool(rng) + [Degenerate()]
    worst_forms = 0.0
    worst_oracle = 0.0
    for _ in range(1000):
        u1 = pool[rng.integers(len(pool))]
        u2 = pool[rng.integers(len(pool))]
        x1 = Interval.from_centre_range(
            float(rng.uniform(-5, 5)),
            0.0 if isinstance(u1, Degenerate) else float(rng.uniform(0, 4)))
        x2 = Interval.from_centre_range(
            float(rng.uniform(-5, 5)),
            0.0 if isinstance(u2, Degenerate) else float(rng.uniform(0, 4)))
        general = dist_sq_general(x1, u1, x2, u2)
        worst_forms = max(worst_forms, abs(general - dist_sq_musigma(x1, u1, x2, u2)))
        worst_oracle = max(worst_oracle, abs(general - oracle_dist_sq(x1, u1, x2, u2)))
    elapsed = time.perf_counter() - start
    assert worst_forms < 1e-10
    assert worst_oracle < 1e-7
    assert elapsed < 30.0
    record_criterion(2, "1000 random pairs: moment form = mu/sigma form = oracle",
                     detail=f"forms {worst_forms:.1e}, oracle {worst_oracle:.1e}, {elapsed:.1f}s")


def test_criterion_3_metric_axioms():
    rng = np.random.default_rng(33)
    pool = latent_pool(rng, with_expensive=False)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 4))
        latents = tuple(pool[rng.integers(len(pool))] for _ in range(p))
        boxes = [Box(tuple(random_interval(rng) for _ in range(p)), latents)
                 for _ in range(3)]
        a, b, c = boxes
        dab = dist_sq_box(a, b)
        dba = dist_sq_box(b, a)
        assert dab == dba                      # symmetry, exact
        assert dist_sq_box(a, a) == 0.0
        assert dab >= 0.0
        lhs = math.sqrt(dist_sq_box(a, c))
        rhs = math.sqrt(dab) + math.sqrt(dist_sq_box(b, c))
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-9
    record_criterion(3, "metric axioms on 1000 random triples",
                     detail=f"triangle slack {worst:.1e}")


def test_criterion_4_mahalanobis_equivalence():
    rng = np.random.default_rng(44)
    pool = latent_pool(rng, with_expensive=False)
    worst = 0.0
    cases = 0
    while cases < 1000:
        p = int(rng.integers(1, 7))
        n_degenerate = int(rng.integers(0, p)) if rng.uniform() < 0.3 else 0
        latents = [pool[rng.integers(len(pool))] for _ in range(p)]
        for j in range(n_degenerate):
            latents[j] = Degenerate()
        latents = tuple(latents)
        form = mahalanobis_form(latents)

        eigs = jacobi_eigenvalues(form.h)
        if n_degenerate == 0:
            assert np.min(eigs) > 0.0
            assert np.max(np.abs(form.h @ form.h_inverse - np.eye(2 * p))) < 1e-10
        else:
            assert np.sum(np.abs(eigs) <= 1e-12) == n_degenerate
            assert np.min(jacobi_eigenvalues(form.h_reduced)) > 0.0

        for _ in range(10):
            ivs1 = tuple(Interval.from_centre_range(
                float(rng.uniform(-5, 5)),
                0.0 if isinstance(lat, Degenerate) else float(rng.uniform(0, 4)))
                for lat in latents)
            ivs2 = tuple(Interval.from_centre_range(
                float(rng.uniform(-5, 5)),
                0.0 if isinstance(lat, Degenerate) else float(rng.uniform(0, 4)))
                for lat in latents)
            b1, b2 = Box(ivs1, latents), Box(ivs2, latents)
            got = dist_sq_mahalanobis(reduced_vector(b1, form),
                                      reduced_vector(b2, form), form)
            worst = max(worst, abs(got - dist_sq_box(b1, b2)))
            cases += 1
    assert worst < 1e-10
    record_criterion(4, "Mahalanobis form equals box distance; H checks",
                     detail=f"max dev {worst:.1e}")


def test_criterion_5_barycentre_and_frechet():
    rng = np.random.default_rng(55)
    pool = latent_pool(rng, with_expensive=False)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, 5))
        lower, upper = [], []
        c = rng.uniform(-5, 5, size=(n, p))
        r = rng.uniform(0.5, 4, size=(n, p))
        frame = IntervalFrame(c - 0.5 * r, c + 0.5 * r,
                              tuple(f"v{j}" for j in range(p)),
                              latents=tuple(pool[rng.integers(len(pool))]
                                            for _ in range(p)))
        bary = sample_barycentre(frame)
        cm, rm = frame.centres_ranges()
        # componentwise means, exactly
        assert np.array_equal(bary.centres, cm.mean(axis=0))
        assert np.array_equal(bary.ranges, rm.mean(axis=0))
        vf = frechet_variance(frame)
        assert abs(vf - bary.frechet_variance) < 1e-10
        cov = symbolic_covariance(frame)
        assert abs(np.trace(cov.sigma_b) - vf) < 1e-10

        # +-eps perturbations strictly increase the objective
        psi = [lat.mean for lat in frame.latents]
        delta = [lat.second_moment / 4.0 for lat in frame.latents]

        def objective(cb, rb):
            total = 0.0
            for i in range(n):
                for j in range(p):
                    dc = cm[i, j] - cb[j]
                    dr = rm[i, j] - rb[j]
                    total += dc * dc + delta[j] * dr * dr + psi[j] * dc * dr
            return total / n

        cb = cm.mean(axis=0)
        rb = rm.mean(axis=0)
        base = objective(cb, rb)
        for eps in (1e-3, 1e-2):
            for j in range(p):
                for sign in (1.0, -1.0):
                    cb2 = cb.copy(); cb2[j] += sign * eps
                    rb2 = rb.copy(); rb2[j] += sign * eps
                    assert objective(cb2, rb) > base
                    assert objective(cb, rb2) > base
    record_criterion(5, "barycentre = means; trace identity; strict optimality")


def test_criterion_6_covariance_oracle_equivalence():
    rng = np.random.default_rng(66)
    cheap = latent_pool(rng, with_expensive=False)
    w = betainc_inv(0.44, 2.15, rng.uniform(size=2000))
    mixed = cheap + [fit_beta_mom(2.0 * w - 1.0),
                     fit_kde(rng.uniform(-1, 1, size=120))]
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 5))
        pool = mixed if trial % 5 == 0 else cheap
        c = rng.uniform(-5, 5, size=(n, p))
        r = rng.uniform(0.3, 4, size=(n, p))
        frame = IntervalFrame(c - 0.5 * r, c + 0.5 * r,
                              tuple(f"v{j}" for j in range(p)),
                              latents=tuple(pool[rng.integers(len(pool))]
                                            for _ in range(p)))
        cov = symbolic_covariance(frame)
        for i in range(p):
            for j in range(i, p):
                oracle = covariance_quantile_oracle(frame, i, j)
                worst = max(worst, abs(oracle - cov.sigma_b[i, j]))
    assert worst < 1e-8
    record_criterion(6, "closed-form covariance equals quantile oracle "
                        "on 500 random frames", detail=f"max dev {worst:.1e}")


# reference values computed with plain numpy formulas in scripts/gen_fixtures.py
CREDIT_CORR_B = np.array([
    [1.0, 0.24298, 0.145491, -0.357157, 0.616905],
    [0.24298, 1.0, 0.032544, 0.105837, 0.280093],
    [0.145491, 0.032544, 1.0, -0.102244, 0.177022],
    [-0.357157, 0.105837, -0.102244, 1.0, -0.420817],
    [0.616905, 0.280093, 0.177022, -0.420817, 1.0],
])
CREDIT_CORR_7 = np.array([
    [1.0, 0.175703, 0.130183, -0.308608, 0.542469],
    [0.175703, 1.0, 0.024962, 0.074489, 0.205651],
    [0.130183, 0.024962, 1.0, -0.09192, 0.162463],
    [-0.308608, 0.074489, -0.09192, 1.0, -0.369971],
    [0.542469, 0.205651, 0.162463, -0.369971, 1.0],
])


def test_criterion_7_credit_card_reproduction():
    start = time.perf_counter()
    frame = credit_card_intervals()
    assert frame.validate() == []
    frame = frame.with_latents({name: Triangular(0.0) for name in frame.names})
    bary = sample_barycentre(frame)
    assert np.max(np.abs(bary.centres - [26.09, 13.80, 183.97, 24.84, 49.32])) < 0.005
    assert np.max(np.abs(bary.ranges - [9.15, 10.23, 13.01, 8.96, 11.89])) < 0.005

    corr_b = correlation_from_cov(symbolic_covariance(frame))
    assert np.max(np.abs(corr_b - CREDIT_CORR_B)) < 0.01
    sigma7 = cov_model7(frame)
    d7 = np.sqrt(np.diag(sigma7))
    corr_7 = sigma7 / np.outer(d7, d7)
    assert np.max(np.abs(corr_7 - CREDIT_CORR_7)) < 0.01

    # qualitative structure: food-clothes positive, gas-clothes negative,
    # food-gas negative, under both estimators
    for corr in (corr_b, corr_7):
        assert corr[0, 4] > 0.3
        assert corr[3, 4] < -0.1
        assert corr[0, 3] < -0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    record_criterion(7, "credit-card fixture: barycentre and both correlation "
                        "matrices", detail=f"{elapsed:.2f}s")


NYFLIGHTS_EUU = np.array([
    [0.59, 0.44, 0.35, 0.34],
    [0.44, 0.35, 0.32, 0.31],
    [0.35, 0.32, 0.37, 0.35],
    [0.34, 0.31, 0.35, 0.34],
])
NYFLIGHTS_CORR = np.array([
    [1.00, 0.85, -0.18, -0.17],
    [0.85, 1.00, -0.40, -0.39],
    [-0.18, -0.40, 1.00, 0.99],
    [-0.17, -0.39, 0.99, 1.00],
])
NYFLIGHTS_SD = np.array([10.22, 15.83, 75.25, 574.45])


def test_criterion_8_nyflights_reproduction():
    intervals_path = external_path("nycflights_intervals.csv")
    scaled_path = external_path("nycflights_scaled.csv")
    if intervals_path is None or scaled_path is None:
        record_criterion(8, "NY-flights reproduction", status="SKIP",
                         detail="dataset not fetched; run scripts/fetch_nycflights.py "
                                "and set IVDA_DATA_DIR")
        pytest.skip("NY-flights dataset not fetched; run scripts/fetch_nycflights.py "
                    "and point IVDA_DATA_DIR at its output directory")
    frame = load_interval_csv(intervals_path)
    scaled = read_scaled_csv(scaled_path)
    order = ["dep_delay", "arr_delay", "air_time", "distance"]
    variables = []
    for name in order:
        sample = scaled[name].values
        if name in ("dep_delay", "arr_delay"):
            variables.append(VariableMicrodata(name, latent=fit_beta_mom(sample),
                                               sample=sample))
        else:
            variables.append(VariableMicrodata(name, latent=fit_kde(sample),
                                               sample=sample))
    summary = empirical_moment_summary(variables)
    assert np.max(np.abs(summary.psi - [-0.66, -0.42, -0.21, -0.21])) < 0.01
    assert np.max(np.abs(summary.euu - NYFLIGHTS_EUU)) < 0.01

    frame = frame.with_latents({v.name: v.latent for v in variables})
    cov = symbolic_covariance(frame)
    idx = np.array([frame.names.index(name) for name in order])
    sigma = cov.sigma_b[np.ix_(idx, idx)]
    sds = np.sqrt(np.diag(sigma))
    assert np.max(np.abs(sds / NYFLIGHTS_SD - 1.0)) < 0.005
    corr = correlation_from_cov(cov)[np.ix_(idx, idx)]
    assert np.max(np.abs(corr - NYFLIGHTS_CORR)) < 0.01
    record_criterion(8, "NY-flights reproduction")


def test_criterion_9_rtt_machinery():
    # triangular closed forms against quadrature across the mode grid
    for m in np.arange(-0.9, 0.95, 0.2):
        dist = Triangular(float(m))
        cuts = dist.breakpoints()
        mean_q = tanh_sinh(dist._quantile, cuts)
        m2_q = tanh_sinh(lambda t: dist._quantile(t) ** 2, cuts)
        assert abs(mean_q - m / 3.0) < 1e-9
        assert abs(m2_q - mean_q ** 2 - (m * m + 3.0) / 18.0) < 1e-9

    # triangular-triangular cross moments against a dense trapezoid oracle
    t = np.linspace(1e-12, 1.0, 10 ** 6)
    for mi, mj in ((-0.58, 0.0), (-0.34, -0.69), (0.4, -0.4)):
        d1, d2 = Triangular(mi), Triangular(mj)
        oracle = float(trapezoid(d1.quantile(t) * d2.quantile(t), t))
        assert abs(cross_moment(d1, d2) - oracle) < 1e-7

    # exact binomial p-values against an independent log-space tail sum
    for n, k in ((564, 200), (564, 282), (101, 33), (17, 0), (20000, 9930)):
        logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                - n * math.log(2.0) for i in range(n + 1)]
        lower = math.fsum(math.exp(v) for v in logs[:k + 1])
        upper = math.fsum(math.exp(v) for v in logs[k:])
        expected = min(1.0, 2.0 * min(lower, upper))
        assert abs(_binom_two_sided_p(k, n) - expected) < 1e-12
        modes = np.array([0.5] * k + [-0.5] * (n - k))
        _, p = test_mode_symmetry(modes)
        assert abs(p - expected) < 1e-12

    # the published correlation/Frobenius numbers of the source study are
    # intentionally NOT asserted: that dataset is not public
    record_criterion(9, "triangular moments, cross-moment oracle, exact "
                        "binomial p-values (printed study numbers not reproduced)")


def test_criterion_10_delta_bound():
    rng = np.random.default_rng(10)
    dists = [Uniform(), InvertedTriangular(), TruncatedNormal(),
             TruncatedNormal(0.5), Degenerate()]
    dists += [Triangular(float(m)) for m in np.linspace(-1, 1, 21)]
    dists += [ShiftedBeta(a, b) for a, b in ((0.44, 2.15), (1.08, 2.65),
                                             (0.2, 0.2), (9.0, 0.5))]
    w = betainc_inv(1.3, 3.1, rng.uniform(size=1000))
    dists.append(fit_beta_mom(2.0 * w - 1.0))
    dists.append(fit_kde(rng.uniform(-1, 1, size=500)))
    dists.append(fit_kde(np.clip(rng.normal(0.9, 0.05, 200), -1, 1)))
    for dist in dists:
        delta = dist.second_moment / 4.0
        assert 0.0 <= delta <= 0.25, dist
    record_criterion(10, "second moment / 4 stays in [0, 1/4] for every latent")


def test_criterion_11_iso_distance_ellipses():
    x0 = Interval(-3.0, 5.0)
    amplitudes = []
    for delta in (1.0 / 8.0, 1.0 / 12.0, 1.0 / 24.0, 1.0 / 36.0):
        points = iso_distance_set(x0, delta=delta, radius=1.0, n_points=720)
        c, r = points[:, 0], points[:, 1]
        assert abs(c.max() - 2.0) < 1e-9 and abs(c.min() - 0.0) < 1e-9
        semi_r = 1.0 / math.sqrt(delta)
        assert abs(r.max() - (8.0 + semi_r)) < 1e-6
        assert abs(r.min() - (8.0 - semi_r)) < 1e-6
        assert abs(0.5 * (c.max() + c.min()) - 1.0) < 1e-9
        assert abs(0.5 * (r.max() + r.min()) - 8.0) < 1e-6
        amplitudes.append(r.max() - 8.0)
    assert amplitudes == sorted(amplitudes)
    assert all(a2 > a1 + 1e-6 for a1, a2 in zip(amplitudes, amplitudes[1:]))
    record_criterion(11, "iso-distance ellipses share centre (1,8), have "
                         "semi-axes (1, 1/sqrt(delta)), nest strictly in r")
