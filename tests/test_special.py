import math

import numpy as np
import pytest

from ivda import special
from ivda.errors import DomainError, NumericFailure
from ivda.special import betainc, betainc_inv, norm_cdf, norm_ppf


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
