import math
import statistics

import numpy as np
import pytest

from ivda import TruncatedNormal, special
from ivda.errors import DomainError, NumericFailure
from ivda.special import _norm_ppf_offset, betainc, betainc_inv, norm_cdf, norm_ppf


def test_norm_cdf_known_values():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    assert norm_cdf(-3.0) == pytest.approx(0.0013498980316300933, rel=1e-12)


def test_norm_ppf_roundtrip():
    p = np.linspace(1e-9, 1 - 1e-9, 4001)
    x = norm_ppf(p)
    back = norm_cdf(x)
    assert np.max(np.abs(back - p)) < 1e-13


def test_norm_ppf_symmetric():
    p = np.linspace(0.001, 0.999, 999)
    asym = norm_ppf(p) + norm_ppf(1.0 - p)
    assert np.max(np.abs(asym)) < 1e-12
    # bit for bit wherever 1 - p is exact
    p = _ppf_sweep()
    p = p[1.0 - (1.0 - p) == p]
    assert np.array_equal(norm_ppf(p), -norm_ppf(1.0 - p))


def _ppf_sweep():
    """Fixed-seed probabilities: uniform, log-uniform down to the smallest
    subnormal, within 2^-50 of 1/2 and within 1e-15 of 1."""
    rng = np.random.default_rng(241)
    p = np.concatenate([rng.uniform(0.0, 1.0, 1000),
                        10.0 ** rng.uniform(-323.3, math.log10(0.5), 1000),
                        0.5 + rng.uniform(-1.0, 1.0, 300) * 2.0 ** -50,
                        1.0 - rng.uniform(0.0, 1e-15, 300),
                        [5e-324, 0.5 - 1e-8, 0.075, 0.5, 0.925]])
    return p[(p > 0.0) & (p < 1.0)]


def test_norm_ppf_matches_the_standard_library():
    # statistics.NormalDist.inv_cdf evaluates AS 241 one point at a time
    p = _ppf_sweep()
    expected = np.array([statistics.NormalDist().inv_cdf(v) for v in p.tolist()])
    assert np.all(np.abs(norm_ppf(p) - expected) <= 4 * np.spacing(np.abs(expected)))


def test_norm_ppf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    p = _ppf_sweep()
    with mpmath.workdps(40):
        def reference(v):
            # three Newton steps from the standard library's value
            x = mpmath.mpf(statistics.NormalDist().inv_cdf(v))
            for _ in range(3):
                x -= (mpmath.ncdf(x) - v) / mpmath.npdf(x)
            return float(x)

        expected = np.array([reference(v) for v in p.tolist()])
        r = np.concatenate([np.linspace(-0.425, 0.425, 301),
                            10.0 ** np.linspace(-300.0, -1.0, 100)])
        offset = np.array([float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(v)))
                           for v in r.tolist()])
    np.testing.assert_allclose(norm_ppf(p), expected, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(_norm_ppf_offset(r), offset, rtol=1e-15, atol=0.0)


def test_norm_ppf_matches_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    p = _ppf_sweep()
    np.testing.assert_allclose(norm_ppf(p), scipy_special.ndtri(p), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("a, b", [(0.44, 2.15), (1.08, 2.65), (0.5, 0.5), (5.0, 0.3),
                                  (30.0, 30.0), (0.02, 50.0)])
def test_betainc_matches_scipy(a, b):
    scipy_special = pytest.importorskip("scipy.special")
    x = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(betainc(a, b, x), scipy_special.betainc(a, b, x),
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("sigma2", [1e-6, 1e-3, 0.01, 1.0 / 9.0, 0.25, 0.999, 1.0, 4.0])
def test_truncated_normal_second_moment_matches_scipy(sigma2):
    # scipy's truncnorm moments cancel at wider sigma; the mpmath reference
    # in test_latent covers those
    scipy_stats = pytest.importorskip("scipy.stats")
    k = 1.0 / math.sqrt(sigma2)
    expected = scipy_stats.truncnorm(-k, k, scale=math.sqrt(sigma2)).var()
    assert TruncatedNormal(sigma2).second_moment == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_norm_ppf_domain():
    with pytest.raises(DomainError):
        norm_ppf(0.0)
    with pytest.raises(DomainError):
        norm_ppf(1.0)


def test_betainc_uniform_case_is_identity():
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(betainc(1.0, 1.0, x) - x)) < 1e-14


def test_betainc_arcsine_case():
    x = np.linspace(0.001, 0.999, 301)
    expected = 2.0 / math.pi * np.arcsin(np.sqrt(x))
    assert np.max(np.abs(betainc(0.5, 0.5, x) - expected)) < 1e-12


def test_betainc_integer_case_matches_binomial_tail():
    # I_x(2, 3) = P(Bin(4, x) >= 2)
    x = np.linspace(0.01, 0.99, 99)
    expected = 1.0 - (1.0 - x) ** 4 - 4.0 * x * (1.0 - x) ** 3
    assert np.max(np.abs(betainc(2.0, 3.0, x) - expected)) < 1e-13


@pytest.mark.parametrize("a,b", [(0.44, 2.15), (1.08, 2.65), (1.0, 1.0),
                                 (5.0, 0.3), (0.5, 0.5), (8.0, 8.0)])
def test_betainc_inv_roundtrip(a, b):
    x = np.linspace(1e-4, 1.0 - 1e-4, 1999)
    t = betainc(a, b, x)
    # keep lanes where t itself has not saturated to 0 or 1 in double precision
    keep = (t > 1e-13) & (t < 1.0 - 1e-13)
    t = t[keep]
    x_inv = betainc_inv(a, b, t)
    assert np.all((x_inv >= 0.0) & (x_inv <= 1.0))
    assert np.max(np.abs(betainc(a, b, x_inv) - t)) < 1e-12
    # in x-space, well-conditioned lanes are recovered almost exactly
    lb = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    pdf = np.exp((a - 1) * np.log(x[keep]) + (b - 1) * np.log1p(-x[keep]) - lb)
    good = pdf > 1e-3
    assert np.max(np.abs(x_inv[good] - x[keep][good])) < 1e-9


def test_betainc_inv_arcsine_closed_form():
    t = np.linspace(0.01, 0.99, 99)
    expected = np.sin(0.5 * math.pi * t) ** 2
    assert np.max(np.abs(betainc_inv(0.5, 0.5, t) - expected)) < 1e-12


@pytest.mark.parametrize("a, b, t", [(2.0, 5.0, 1e-12), (30.0, 30.0, 1e-12),
                                     (30.0, 30.0, 1.0 - 1e-12), (0.02, 50.0, 1.0 - 1e-12),
                                     (50.0, 0.02, 1e-12)])
def test_betainc_inv_tails_match_scipy(a, b, t):
    scipy_special = pytest.importorskip("scipy.special")
    expected = scipy_special.betaincinv(a, b, t)
    assert abs(betainc_inv(a, b, t) - expected) <= 1e-12 * expected


def test_betainc_iteration_caps_raise(monkeypatch):
    t = np.linspace(0.05, 0.95, 19)
    monkeypatch.setattr(special, "_INV_MAXIT", 1)
    with pytest.raises(NumericFailure, match="did not converge in 1 Newton steps"):
        betainc_inv(2.0, 3.0, t)
    monkeypatch.setattr(special, "_CF_MAXIT", 2)
    with pytest.raises(NumericFailure, match="did not converge in 2 terms"):
        betainc(2.0, 3.0, t)


def test_betainc_inv_edges():
    assert betainc_inv(2.0, 3.0, 0.0) == 0.0
    assert betainc_inv(2.0, 3.0, 1.0) == 1.0


@pytest.mark.parametrize("a, b", [(1e200, 0.02), (1e200, 3.0), (1e300, 0.5), (0.02, 1e200),
                                  (2.0, 1e200), (1e200, 1e200)])
def test_betainc_inv_past_an_overflowing_shape_product_warns_nothing(a, b):
    # a product of two shapes past about 1e154 overflows; the continued
    # fraction takes the ratio of its terms there instead of inf / inf
    t = np.array([1e-12, 0.001, 0.5, 0.999])
    try:
        x = betainc_inv(a, b, t)
    except NumericFailure:
        assert b >= 1e200       # a huge second shape is still a named failure
        return
    # the mass lies within about 1e-150 of a / (a + b), which rounds to 1
    assert np.all(x == 1.0)
