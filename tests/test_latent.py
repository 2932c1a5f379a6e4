import builtins
import gc
import inspect
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ivda import (
    Degenerate,
    Interval,
    IntervalFrame,
    InvertedTriangular,
    Kde,
    LatentDistribution,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
    covariance_quantile_oracle,
    cross_moment,
    latent_from_dict,
    latent_to_dict,
    mahalanobis_form,
    microdata_quantile,
    oracle_dist_sq,
    quantile_correlation,
    silverman_bandwidth,
)
from ivda.errors import DataValidationError, DomainError, NumericFailure
from ivda._families import _PAIRS, _cache_clear, _cached_cross_moment
from ivda.moments import _closed_cross_moment, _merged_knots
from ivda.latent import _linear_quantile

from conftest import ALL_FAMILIES, fixed_rule, make_latent, trapezoid
from tanh_sinh import comonotone_moment, tanh_sinh

PARAMETRIC = [
    Uniform(),
    Triangular(0.0),
    Triangular(-0.34),
    Triangular(0.77),
    Triangular(-1.0),
    Triangular(1.0),
    InvertedTriangular(),
    TruncatedNormal(),
    TruncatedNormal(0.04),
    ShiftedBeta(0.44, 2.15),
    ShiftedBeta(1.08, 2.65),
    ShiftedBeta(3.0, 3.0),
]

SYMMETRIC = [Uniform(), Triangular(0.0), InvertedTriangular(), TruncatedNormal()]


# --- quantiles -------------------------------------------------------------

def test_uniform_median_is_zero():
    assert Uniform().quantile(0.5) == 0.0


def test_uniform_quantile_is_affine():
    t = np.linspace(0.01, 1.0, 100)
    assert np.allclose(Uniform().quantile(t), 2.0 * t - 1.0)


@pytest.mark.parametrize("m", [-0.9, -0.34, 0.0, 0.5, 0.9])
def test_triangular_quantile_hits_mode_at_branch_point(m):
    assert Triangular(m).quantile((m + 1.0) / 2.0) == pytest.approx(m, abs=1e-12)


def test_quantile_domain_errors():
    for dist in (Uniform(), Triangular(0.2), Kde(np.linspace(-0.5, 0.5, 20))):
        with pytest.raises(DomainError):
            dist.quantile(0.0)
        with pytest.raises(DomainError):
            dist.quantile(1.0 + 1e-9)
        dist.quantile(1.0)  # the closed upper endpoint is fine


@pytest.mark.parametrize("dist", PARAMETRIC + [Degenerate()])
def test_quantile_monotone_and_bounded(dist):
    t = np.linspace(1e-6, 1.0, 2001)
    q = dist.quantile(t)
    assert np.all(np.diff(q) >= -1e-12)
    assert np.all(q >= -1.0 - 1e-12)
    assert np.all(q <= 1.0 + 1e-12)


@pytest.mark.parametrize("dist", SYMMETRIC)
def test_symmetric_families_mirror(dist):
    t = np.linspace(0.01, 0.99, 197)
    assert dist.mean == 0.0
    assert np.max(np.abs(dist.quantile(t) + dist.quantile(1.0 - t))) < 1e-10


def test_kde_quantile_of_uniform_sample():
    rng = np.random.default_rng(101)
    dist = Kde(rng.uniform(-1.0, 1.0, size=10_000))
    # Monte Carlo oracle: the empirical quantile of the raw sample
    assert dist.quantile(0.25) == pytest.approx(-0.5, abs=0.05)


def _bisection_quantile(dist, t):
    # reference: 48 bisection steps on the linear cdf interpolant of a Kde
    k = np.clip(np.searchsorted(dist._cdf, t, side="left"), 1, dist._cdf.size - 1)
    x0 = dist._grid[k - 1]
    f0 = dist._cdf[k - 1]
    slope = (dist._cdf[k] - f0) / (dist._grid[k] - x0)
    lo = x0.copy()
    hi = dist._grid[k].copy()
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        above = f0 + slope * (mid - x0) >= t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return hi


def _clustered_kde():
    # two tight clusters and a tiny bandwidth leave most grid cells with zero
    # mass, so the quantile jumps across them
    rng = np.random.default_rng(17)
    centres = np.repeat([-0.5, 0.4], 20)
    return Kde(centres + rng.normal(0.0, 1e-4, 40), bandwidth=1e-3)


def test_kde_quantile_matches_bisection(rng):
    dist = make_latent(rng, "kde")
    t = np.concatenate([rng.uniform(size=20_000), dist._cdf[1:]])
    t = t[t > 0.0]
    assert np.max(np.abs(dist._quantile(t) - _bisection_quantile(dist, t))) <= 1e-15


def test_kde_quantile_matches_bisection_on_skewed_sample(rng):
    # in cells holding only a few ulps of probability, one ulp of t moves the
    # quantile by (x1 - x0) ulp / (F1 - F0); both inverses are that precise
    dist = Kde(2.0 * rng.beta(0.5, 3.0, size=200) - 1.0)
    t = np.concatenate([rng.uniform(size=20_000), dist._cdf[1:]])
    t = t[t > 0.0]
    k = np.searchsorted(dist._cdf, t, side="left")
    spread = (dist._grid[k] - dist._grid[k - 1]) / (dist._cdf[k] - dist._cdf[k - 1])
    gap = np.abs(dist._quantile(t) - _bisection_quantile(dist, t))
    assert np.all(gap <= 1e-15 + 2.0 * np.spacing(t) * spread)


def _kde_cases(rng):
    return [make_latent(rng, "kde"),
            Kde(2.0 * rng.beta(0.5, 3.0, size=200) - 1.0),
            _clustered_kde()]


def _percentile_bandwidth(sample):
    # silverman_bandwidth as written on np.percentile
    sd = float(np.std(sample, ddof=1))
    q75, q25 = np.percentile(sample, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * sample.size ** (-0.2)


def test_silverman_bandwidth_is_the_percentile_rule_bit_for_bit(rng):
    sizes = [*range(2, 80), 257, 1000, 4097]
    for n in sizes:
        # continuous, and heavy with ties so that quartiles fall between equal values
        for sample in (rng.normal(size=n), rng.integers(0, 3, size=n) / 2.0,
                       np.repeat(rng.normal(size=n // 2 + 1), 2)[:n]):
            ordered = np.sort(sample)
            for q in (0.25, 0.75):
                assert _linear_quantile(ordered, q).tobytes() == \
                    np.percentile(sample, 100.0 * q).tobytes()
            if np.ptp(sample) > 0.0:
                assert silverman_bandwidth(sample).hex() == _percentile_bandwidth(sample).hex()


def test_knot_merge_is_union1d_bit_for_bit(rng):
    # _clustered_kde's flat cells repeat cdf values many times over
    knots = [d._cdf for d in _kde_cases(rng)] + [(0.0, 1.0)]
    for a in knots:
        for b in knots:
            assert _merged_knots(a, b).tobytes() == np.union1d(a, b).tobytes()


def test_kde_moments_match_per_segment_quadrature(rng):
    for dist in _kde_cases(rng):
        cuts = dist._cdf[1:-1]
        mean = fixed_rule(dist._quantile, panels=1, breakpoints=cuts)
        m2 = fixed_rule(lambda t: dist._quantile(t) ** 2, panels=1, breakpoints=cuts)
        assert dist.mean == pytest.approx(mean, abs=1e-13)
        assert dist.second_moment == pytest.approx(m2, abs=1e-13)


def test_kde_cross_moments_are_closed_and_exact(rng):
    k1, k2, k3 = _kde_cases(rng)
    for d1, d2 in [(k1, k2), (k2, k3), (k1, k3), (k1, Uniform()), (Uniform(), k3)]:
        closed = _closed_cross_moment(d1, d2)
        assert cross_moment(d1, d2) == closed
        assert closed == pytest.approx(_cached_cross_moment(d1, d2), abs=1e-9)
        knots = np.union1d(*(getattr(d, "_cdf", ()) for d in (d1, d2)))
        segments = fixed_rule(lambda t: d1._quantile(t) * d2._quantile(t),
                              panels=1, breakpoints=knots)
        assert closed == pytest.approx(segments, abs=1e-13)
    for dist in (k1, k2, k3):
        assert cross_moment(dist, dist) == dist.second_moment


def test_kde_with_empty_cells_is_finite_generalized_inverse():
    dist = _clustered_kde()
    assert np.mean(np.diff(dist._cdf) == 0.0) > 0.9
    t = np.linspace(1e-9, 1.0, 100_001)
    q = dist.quantile(t)
    assert np.all(np.isfinite(q)) and np.all(np.diff(q) >= 0.0)
    assert all(math.isfinite(v) for v in (*dist.moments(), cross_moment(dist, Uniform())))
    # F is exact at grid nodes and constant on empty cells, so there the
    # generalized inverse returns the left end of each flat run, never more
    grid = dist._grid
    empty = np.flatnonzero(np.diff(dist._cdf) == 0.0)
    x = np.concatenate([grid, 0.5 * (grid[empty] + grid[empty + 1])])
    f = dist.cdf(x)
    assert np.all(dist.quantile(f[f > 0.0]) <= x[f > 0.0])


# --- moments ---------------------------------------------------------------

def test_uniform_moments():
    assert Uniform().moments() == (0.0, pytest.approx(1 / 3), pytest.approx(1 / 3))


def test_symmetric_triangular_moments():
    assert Triangular(0.0).moments() == (0.0, pytest.approx(1 / 6), pytest.approx(1 / 6))


def test_inverted_triangular_variance():
    assert InvertedTriangular().variance == pytest.approx(0.5)


def test_truncated_normal_variance_near_one_ninth():
    dist = TruncatedNormal()
    # exact value; the crude approximation 1/9 is only good to ~3e-3
    assert dist.variance == pytest.approx(1 / 9, abs=4e-3)
    assert abs(dist.variance - 1 / 9) > 1e-3


def test_asymmetric_triangular_closed_forms():
    m = -0.34
    dist = Triangular(m)
    assert dist.mean == pytest.approx(m / 3.0, abs=1e-15)
    assert dist.variance == pytest.approx((m * m + 3.0) / 18.0, abs=1e-15)
    assert dist.second_moment == pytest.approx((m * m + 1.0) / 6.0, abs=1e-15)


@pytest.mark.parametrize("dist", PARAMETRIC)
def test_moment_identity_by_quadrature(dist):
    cuts = dist.breakpoints()
    mean_q = tanh_sinh(dist._quantile, cuts)
    m2_q = tanh_sinh(lambda t: dist._quantile(t) ** 2, cuts)
    assert mean_q == pytest.approx(dist.mean, abs=1e-8)
    assert m2_q == pytest.approx(dist.second_moment, abs=1e-8)


@pytest.mark.parametrize("dist", PARAMETRIC)
def test_variance_quarter_bound(dist):
    assert 0.0 <= dist.second_moment / 4.0 <= 0.25
    assert dist.variance >= 0.0


def _truncated_normal_m2_reference(sigma2):
    # Gauss-Legendre on the two defining integrals over [-1, 1]; the deficit
    # from 1/3 is integrated against expm1, so no digits cancel at wide sigma
    x, w = np.polynomial.legendre.leggauss(80)
    f1 = np.expm1(-0.5 * x * x / sigma2)
    return 1.0 / 3.0 - np.sum(w * (1.0 / 3.0 - x * x) * f1) / (2.0 + np.sum(w * f1))


@pytest.mark.parametrize("sigma2", [0.05, 0.5, 0.999999, 1.0, 4.0, 1e4, 1e6, 1e8, 1e10, 1e14])
def test_truncated_normal_second_moment_for_any_sigma(sigma2):
    m2 = TruncatedNormal(sigma2).second_moment
    assert m2 == pytest.approx(_truncated_normal_m2_reference(sigma2), abs=1e-15)
    assert 0.0 <= m2 <= 1.0 / 3.0


_QUANTILE_T = np.concatenate([np.linspace(0.0, 1.0, 101)[1:-1],
                              [1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12]])


def _mpmath_truncated_normal_quantile(sigma2, ts):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    s2 = mpmath.mpf(sigma2)
    lo = mpmath.ncdf(-1 / mpmath.sqrt(s2))
    return np.array([
        float(mpmath.sqrt(2 * s2) * mpmath.erfinv(2 * (lo + mpmath.mpf(t) * (1 - 2 * lo)) - 1))
        for t in ts])


@pytest.mark.parametrize("sigma2", [1e4, 1e8, 1e12])
def test_truncated_normal_quantile_at_wide_sigma(sigma2):
    expected = _mpmath_truncated_normal_quantile(sigma2, _QUANTILE_T)
    got = TruncatedNormal(sigma2)._quantile(_QUANTILE_T)
    assert np.max(np.abs(got - expected)) <= 1e-15


@pytest.mark.parametrize("sigma2", [0.01, 0.1])
def test_truncated_normal_quantile_at_narrow_sigma_near_both_edges(sigma2):
    # lo + t z near 1 kept few digits before the quantile used its odd symmetry
    t = np.array([1e-12, 1.0 - 1e-9, 1.0 - 1e-12])
    expected = _mpmath_truncated_normal_quantile(sigma2, t)
    got = TruncatedNormal(sigma2)._quantile(t)
    assert np.max(np.abs(got - expected)) <= 2.3e-16


@pytest.mark.parametrize("sigma2", [1e-6, 5e-4, 0.01])
def test_truncated_normal_quantile_at_one_is_the_upper_end(sigma2):
    # below sigma2 ~ 1/1400, Phi(-1/sigma) underflows to 0, the lower end of
    # the norm_ppf domain; a cross-moment grid cut at Kde knots reaches t = 1
    assert TruncatedNormal(sigma2).quantile(1.0) == 1.0
    assert math.isfinite(cross_moment(_clustered_kde(), TruncatedNormal(sigma2)))


def test_truncated_normal_builds_at_a_vanishing_sigma():
    # k = 1e160 squares to inf in the density, which is 0 there, not a warning
    dist = TruncatedNormal(1e-320)
    assert dist.moments() == (0.0, 1e-320, 1e-320)


@pytest.mark.parametrize("sigma2", [0.01, 0.25, 0.999999])
def test_truncated_normal_quantile_below_unit_sigma_is_the_defining_formula(sigma2):
    # the defining formula on t <= 1/2, bitwise; the odd symmetry above it
    from ivda.special import norm_cdf, norm_ppf
    sigma = math.sqrt(sigma2)
    lo = norm_cdf(-1.0 / sigma)
    lower = _QUANTILE_T <= 0.5
    t_low, t_high = _QUANTILE_T[lower], _QUANTILE_T[~lower]
    dist = TruncatedNormal(sigma2)
    expected = np.clip(sigma * norm_ppf(lo + t_low * (1.0 - 2.0 * lo)), -1.0, 1.0)
    assert np.array_equal(dist._quantile(t_low), expected)
    assert np.array_equal(dist._quantile(t_high), -dist._quantile(1.0 - t_high))


def test_degenerate_is_point_mass_at_zero():
    d = Degenerate()
    t = np.linspace(0.1, 1.0, 10)
    assert np.all(d.quantile(t) == 0.0)
    assert d.moments() == (0.0, 0.0, 0.0)


def test_shifted_beta_moments_match_quadrature():
    dist = ShiftedBeta(0.44, 2.15)
    assert dist.mean == pytest.approx((0.44 - 2.15) / (0.44 + 2.15), abs=1e-15)
    m2_q = tanh_sinh(lambda t: dist._quantile(t) ** 2)
    assert m2_q == pytest.approx(dist.second_moment, abs=1e-8)


@pytest.mark.parametrize("alpha, beta", [(1e200, 1.0), (1e200, 1e200), (1.0, 1e300)])
def test_shifted_beta_moments_stay_finite_at_huge_shapes(alpha, beta):
    # (a + b) ** 2 overflows past a + b of about 1.3e154; the mass piles up
    # at the mean, so the variance is about 4ab / (a + b)^3
    dist = ShiftedBeta(alpha, beta)
    mean, m2, variance = dist.moments()
    s = alpha + beta
    assert variance == pytest.approx(4.0 * (alpha / s) * (beta / s) / s, rel=1e-12, abs=0.0)
    assert m2 == mean ** 2 + variance and 0.0 <= m2 <= 1.0


@pytest.mark.parametrize("alpha, beta", [(0.44, 2.15), (1e-300, 3.0), (1e150, 2.0), (9e153, 4e153)])
def test_shifted_beta_variance_keeps_its_formula_where_it_is_finite(alpha, beta):
    s = alpha + beta
    expected = 4.0 * alpha * beta / (s ** 2 * (s + 1.0))
    if s ** 2 * (s + 1.0) == math.inf:
        # the formula gives 0 there; the scaled form is the variance
        expected = 4.0 * (alpha / s) * (beta / s) / (s + 1.0)
        assert expected > 0.0
    assert ShiftedBeta(alpha, beta).variance == expected


def test_shifted_beta_variance_is_not_zero_where_its_denominator_overflows():
    # (a + b) ** 2 * (a + b + 1) is inf for a + b between about 5.6e102 and
    # 1.3e154, without an OverflowError
    assert ShiftedBeta(5e119, 5e119).variance == pytest.approx(1.0 / (1e120 + 1.0),
                                                              rel=1e-15, abs=0.0)
    assert mahalanobis_form((ShiftedBeta(5e119, 5e119),)).kept_indices == (0, 1)


def test_shifted_beta_shapes_need_a_finite_sum():
    with pytest.raises(DomainError, match="finite sum"):
        ShiftedBeta(1e308, 1e308)


# --- cross moments ---------------------------------------------------------

def test_cross_moment_uniform_triangular_is_7_over_30():
    value = cross_moment(Uniform(), Triangular(0.0))
    assert value == pytest.approx(7.0 / 30.0, abs=1e-12)
    quad = _cached_cross_moment(Uniform(), Triangular(0.0))
    assert quad == pytest.approx(7.0 / 30.0, abs=1e-9)


def test_cross_moment_identical_is_second_moment():
    dist = Triangular(0.0)
    assert cross_moment(dist, dist) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_cross_moment_uniform_inverted_triangular():
    # dense-grid trapezoid oracle; the closed value of this integral is 2/5
    t = np.linspace(1e-12, 1.0, 10 ** 6)
    u, it = Uniform(), InvertedTriangular()
    oracle = trapezoid(u.quantile(t) * it.quantile(t), t)
    value = cross_moment(u, it)
    assert value == pytest.approx(float(oracle), abs=1e-7)
    assert value == pytest.approx(0.4, abs=1e-8)


def test_cross_moment_symmetric_in_arguments(rng):
    for _ in range(20):
        d1 = make_latent(rng)
        d2 = make_latent(rng)
        assert cross_moment(d1, d2) == pytest.approx(cross_moment(d2, d1), abs=1e-12)


def test_cross_moment_cauchy_schwarz(rng):
    for _ in range(50):
        d1 = make_latent(rng)
        d2 = make_latent(rng)
        value = cross_moment(d1, d2)
        assert value ** 2 <= d1.second_moment * d2.second_moment + 1e-12


def test_cross_moment_closed_form_matches_quadrature_for_any_mode():
    for m in np.linspace(-0.9, 0.9, 7):
        closed = _closed_cross_moment(Uniform(), Triangular(float(m)))
        quad = _cached_cross_moment(Uniform(), Triangular(float(m)))
        assert closed == pytest.approx((7.0 + m * m) / 30.0, abs=1e-15)
        assert quad == pytest.approx(closed, abs=1e-8)


def test_kde_cross_moments_with_parametric_latents_meet_the_tolerance(rng):
    # reference: 32-node rule on every cell between the KDE's cdf knots, with
    # a graded mesh for the square-root ends of the parametric quantiles
    grading = 10.0 ** -np.arange(1.0, 15.0)
    ends = np.concatenate([grading, 1.0 - grading])
    for k in _kde_cases(rng)[1:]:
        for d in (ShiftedBeta(2.0, 3.0), InvertedTriangular()):
            cells = np.concatenate([k._cdf[1:-1], d.breakpoints(), ends])
            reference = fixed_rule(lambda t: k._quantile(t) * d._quantile(t),
                                   panels=16, breakpoints=cells)
            assert abs(cross_moment(k, d) - reference) <= 1e-9


class _HiddenJump(LatentDistribution):
    """Quantile with a unit jump at a t that ``breakpoints()`` leaves out."""

    def _quantile(self, t):
        return np.where(t < 0.3 + 1e-3 * math.sqrt(2.0), t - 1.0, t)


def test_unresolved_cross_moment_raises_instead_of_returning():
    with pytest.raises(NumericFailure):
        cross_moment(_HiddenJump(), ShiftedBeta(2.0, 3.0))


def test_kdes_share_one_read_only_grid(rng):
    a, b = Kde(rng.uniform(-1.0, 1.0, size=60)), Kde(rng.uniform(-1.0, 1.0, size=30))
    assert a._grid is b._grid
    assert not a._grid.flags.writeable


def test_cross_moment_tables_hold_bounded_memory(rng):
    # a table cut at a KDE's cdf knots holds about 1.1 MB, and each pair
    # builds four, so past pairs' tables must not stay cached
    tri = Triangular(0.3)
    tracemalloc.start()
    try:
        for _ in range(64):
            cross_moment(Kde(rng.uniform(-1.0, 1.0, size=60)), tri)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 48e6


def test_the_cross_moment_cache_keeps_no_kde_alive(rng):
    # a pair with a Kde is cached by the Kde's content, not by the Kde,
    # whose arrays take about 99 kB
    tri = Triangular(0.3)
    cross_moment(Kde(rng.uniform(-1.0, 1.0, size=60)), tri)     # loads what the rule needs
    _cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(64):
            cross_moment(Kde(rng.uniform(-1.0, 1.0, size=60)), tri)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1e6
    kde = Kde(rng.uniform(-1.0, 1.0, size=60))
    value = cross_moment(kde, tri)
    assert cross_moment(Kde(kde.sample.copy(), bandwidth=kde.bandwidth), tri) == value
    assert cross_moment(tri, kde) == value


def _seen_once(use, rng):
    kde = Kde(rng.uniform(-1.0, 1.0, size=60))
    use(kde)
    return weakref.ref(kde)


def test_no_library_cache_keeps_a_kde_alive(rng):
    # the pair cache keys a Kde by its content, and a Kde's quantile tables
    # are built for each call, so once the caller drops a Kde it is freed
    tri = Triangular(0.3)
    uses = {
        "cross_moment": lambda kde: cross_moment(kde, tri),
        "oracle_dist_sq": lambda kde: [oracle_dist_sq(Interval(0.0, 1.0), kde,
                                                      Interval(0.5, 2.0), u)
                                       for u in (kde, tri)],
        "covariance_quantile_oracle": lambda kde: covariance_quantile_oracle(
            IntervalFrame([[0.0, 0.0], [1.0, 0.5]], [[1.0, 2.0], [3.0, 1.5]], ("a", "b"),
                          latents=(kde, tri)), 0, 1),
    }
    for name, use in uses.items():
        seen = _seen_once(use, rng)
        gc.collect()
        assert seen() is None, name


def test_the_pair_cache_drops_its_oldest_pair_first(monkeypatch):
    monkeypatch.setattr("ivda._families._CACHE_PAIRS", 3)
    _cache_clear()
    pairs = [(Triangular(m), ShiftedBeta(2.0, 3.0)) for m in (-0.6, -0.2, 0.2, 0.6)]
    values = [cross_moment(*pair) for pair in pairs]
    assert len(_PAIRS) == 3
    assert {frozenset(key) for key in _PAIRS} == {frozenset(pair) for pair in pairs[1:]}
    # the evicted pair comes back to the same bits, and the next oldest goes
    assert cross_moment(*pairs[0]).hex() == values[0].hex()
    assert len(_PAIRS) == 3
    assert {frozenset(key) for key in _PAIRS} == \
        {frozenset(pair) for pair in pairs[2:] + pairs[:1]}
    _cache_clear()


def test_cross_moment_with_degenerate_is_zero():
    assert cross_moment(Degenerate(), Uniform()) == 0.0


def test_cross_moment_has_one_route():
    # no option picks the route: a pair without a closed form takes the table rule
    assert str(inspect.signature(cross_moment)) == "(d1, d2)"
    pair = TruncatedNormal(), InvertedTriangular()
    assert _closed_cross_moment(*pair) is None
    assert cross_moment(*pair) == _cached_cross_moment(*pair)


def test_cached_cross_moment_runs_no_import(monkeypatch):
    pair = Triangular(0.2), ShiftedBeta(2.0, 3.0)
    value = cross_moment(*pair)
    imported, real_import = [], builtins.__import__

    def record(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", record)
    again = cross_moment(*pair)
    monkeypatch.undo()
    assert (again, imported) == (value, [])


def _table_route_latent(rng):
    family = rng.integers(4)
    if family == 0:
        return Triangular(float(rng.uniform(-1.0, 1.0)))
    if family == 1:
        return InvertedTriangular()
    if family == 2:
        return TruncatedNormal(float(10.0 ** rng.uniform(-4.0, 2.0)))
    return ShiftedBeta(*(float(10.0 ** rng.uniform(math.log10(0.02), math.log10(50.0)))
                         for _ in range(2)))


def test_table_route_matches_an_independent_tanh_sinh_reference():
    # the reference shares neither the fixed grid nor the Gauss weights of the
    # table rule; the hard pairs come first, then 20 drawn table-route pairs
    rng = np.random.default_rng(20240815)
    pairs = [(ShiftedBeta(0.02, 0.02), ShiftedBeta(50.0, 0.3)),
             (TruncatedNormal(1e-4), ShiftedBeta(2.0, 5.0))]
    while len(pairs) < 22:
        pair = _table_route_latent(rng), _table_route_latent(rng)
        if _closed_cross_moment(*pair) is None:
            pairs.append(pair)
    for d1, d2 in pairs:
        assert abs(cross_moment(d1, d2) - comonotone_moment(d1, d2)) < 1e-9, (d1, d2)


# --- quantile correlation --------------------------------------------------

def test_quantile_correlation_identical_is_one():
    assert quantile_correlation(Uniform(), Uniform()) == pytest.approx(1.0, abs=1e-12)


def test_quantile_correlation_uniform_triangular():
    rho = quantile_correlation(Uniform(), Triangular(0.0))
    assert rho == pytest.approx((7.0 / 30.0) / math.sqrt(1.0 / 18.0), abs=1e-12)
    assert rho == pytest.approx(0.98995, abs=1e-5)


def test_quantile_correlation_asymmetric_pair():
    rho = quantile_correlation(Triangular(-0.5), Triangular(0.5))
    assert 0.0 < rho < 1.0
    assert rho == pytest.approx(0.9667684206, abs=1e-7)


def test_quantile_correlation_bounded_above(rng):
    for _ in range(40):
        d1 = make_latent(rng)
        d2 = make_latent(rng)
        assert quantile_correlation(d1, d2) <= 1.0 + 1e-12


def test_quantile_correlation_degenerate_errors():
    with pytest.raises(NumericFailure, match="zero-variance latent"):
        quantile_correlation(Degenerate(), Uniform())


# --- microdata quantiles ---------------------------------------------------

def test_microdata_quantile_median_at_centre():
    assert microdata_quantile(1.0, 8.0, Uniform(), 0.5) == pytest.approx(1.0, abs=1e-14)


def test_microdata_quantile_degenerate_interval():
    for dist in (Uniform(), Degenerate(), Triangular(0.3)):
        assert microdata_quantile(0.0, 0.0, dist, 0.7) == 0.0


def test_microdata_quantile_triangular_example():
    got = microdata_quantile(26.09, 9.15, Triangular(0.0), 0.25)
    expected = 26.09 + 4.575 * (-1.0 + math.sqrt(0.5))
    assert got == pytest.approx(expected, abs=1e-12)
    # Monte Carlo check of the same number through the microdata model
    rng = np.random.default_rng(5)
    u = Triangular(0.0).quantile(rng.uniform(size=200_000))
    v = 26.09 + u * 9.15 / 2.0
    assert np.quantile(v, 0.25) == pytest.approx(expected, abs=0.02)


def test_microdata_quantile_negative_range_rejected():
    with pytest.raises(DomainError):
        microdata_quantile(0.0, -1.0, Uniform(), 0.5)


# --- serialization ---------------------------------------------------------

@pytest.mark.parametrize("dist", [
    Uniform(), Triangular(-0.34), InvertedTriangular(),
    TruncatedNormal(0.2), ShiftedBeta(0.44, 2.15), Degenerate(),
])
def test_latent_json_roundtrip(dist):
    spec = latent_to_dict(dist)
    assert json.loads(json.dumps(spec)) == spec
    assert latent_from_dict(spec) == dist


def test_kde_json_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dist = Kde(rng.uniform(-1, 1, size=50), bandwidth=0.2)
    sample_file = tmp_path / "u.txt"
    np.savetxt(sample_file, dist.sample)
    spec = latent_to_dict(dist, sample_path="u.txt")
    assert spec["family"] == "kde"
    back = latent_from_dict(spec, base_dir=tmp_path)
    assert back == dist


def test_kde_serialization_requires_sample_path():
    dist = Kde(np.linspace(-0.5, 0.5, 20))
    with pytest.raises(DomainError):
        latent_to_dict(dist)


def test_latent_from_dict_rejects_unknown():
    with pytest.raises(Exception):
        latent_from_dict({"family": "cauchy"})
    with pytest.raises(Exception):
        latent_from_dict({"mode": 0.1})


@pytest.mark.parametrize("spec, message", [
    ({"family": ["uniform"]}, "unknown latent family"),
    ({"family": "shifted_beta", "alpha": 2.0}, "missing field 'beta'"),
    ({"family": "kde", "bandwidth": 0.1}, "missing field 'sample_path'"),
])
def test_latent_from_dict_names_a_malformed_spec(spec, message):
    with pytest.raises(DataValidationError, match=message):
        latent_from_dict(spec)


def test_latent_from_dict_fills_field_defaults_and_ignores_extra_keys():
    assert latent_from_dict({"family": "triangular", "n_used": 5}) == Triangular(0.0)
    assert latent_from_dict({"family": "truncated_normal"}) == TruncatedNormal(1.0 / 9.0)


# --- construction validation ----------------------------------------------

def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        Triangular(1.5)
    with pytest.raises(DomainError):
        TruncatedNormal(0.0)
    with pytest.raises(DomainError):
        ShiftedBeta(0.0, 1.0)
    with pytest.raises(DomainError):
        Kde(np.array([0.0, 2.0]))


def test_kde_equality_and_immutability():
    sample = np.linspace(-0.8, 0.8, 30)
    k1 = Kde(sample, bandwidth=0.1)
    k2 = Kde(sample.copy(), bandwidth=0.1)
    k3 = Kde(sample, bandwidth=0.2)
    assert k1 == k2
    assert k1 != k3
    with pytest.raises(ValueError):
        k1.sample[0] = 0.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_family_hashes_by_content(family):
    # cross moments and oracle quantiles are cached on the latents themselves
    dist = make_latent(np.random.default_rng(8), family)
    twin = make_latent(np.random.default_rng(8), family)
    assert dist is not twin and dist == twin
    assert hash(dist) == hash(twin)
