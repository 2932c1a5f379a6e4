import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ivda import (
    Interval,
    Triangular,
    Uniform,
    VariableMicrodata,
    empirical_moment_summary,
    estimate_modes_pearson,
    fit_beta_mom,
    fit_kde,
    fit_triangular_pearson,
    scale_to_latent,
    test_mode_symmetry,
)
from ivda.datasets import rtt_summaries
from ivda.estimation import _binom_two_sided_p
from ivda.errors import DataValidationError, DomainError, NumericFailure
from ivda.special import betainc_inv


# --- scaling ----------------------------------------------------------------

def test_scale_to_latent_examples():
    iv = Interval(0.0, 2.0)
    assert np.allclose(scale_to_latent([0.0, 1.0, 2.0], iv), [-1.0, 0.0, 1.0])
    assert scale_to_latent([iv.centre], iv)[0] == 0.0


def test_scale_roundtrip_exact(rng):
    iv = Interval(-4.0, 9.0)
    u = rng.uniform(-1.0, 1.0, size=500)
    v = iv.centre + u * iv.range / 2.0
    back = scale_to_latent(v, iv)
    assert np.max(np.abs(back - u)) < 1e-12


def test_scale_bounds_whose_sum_overflows():
    iv = Interval(1e308, 1.7e308)
    assert scale_to_latent([1e308, 1.7e308], iv).tolist() == [-1.0, 1.0]


def test_scale_zero_range_errors():
    with pytest.raises(DomainError):
        scale_to_latent([1.0], Interval(1.0, 1.0))


def test_scale_out_of_tolerance_reports_violation():
    with pytest.raises(DataValidationError, match="outside"):
        scale_to_latent([0.0, 5.0], Interval(0.0, 2.0))
    # values within the tolerance band are clamped, not rejected
    got = scale_to_latent([2.0 + 1e-10], Interval(0.0, 2.0))
    assert got[0] == 1.0


# --- beta method of moments ---------------------------------------------------

def test_fit_beta_mom_recovers_parameters():
    rng = np.random.default_rng(11)
    for alpha, beta, tol_a, tol_b in ((0.44, 2.15, 0.03, 0.1), (1.08, 2.65, 0.05, 0.12)):
        w = betainc_inv(alpha, beta, rng.uniform(size=50_000))
        fit = fit_beta_mom(2.0 * w - 1.0)
        assert fit.alpha == pytest.approx(alpha, abs=tol_a)
        assert fit.beta == pytest.approx(beta, abs=tol_b)


def test_fit_beta_mom_uniform_moments_gives_one_one():
    a = math.sqrt(0.5)
    fit = fit_beta_mom(np.array([-a, 0.0, a]))
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)
    assert fit.beta == pytest.approx(1.0, abs=1e-12)


def test_fit_beta_mom_reproduces_sample_moments(rng):
    u = rng.uniform(-0.9, 0.9, size=200)
    fit = fit_beta_mom(u)
    w = 0.5 * (u + 1.0)
    mbar = w.mean()
    s2 = np.mean(w * w) - mbar * mbar
    a, b = fit.alpha, fit.beta
    assert a / (a + b) == pytest.approx(mbar, abs=1e-12)
    assert a * b / ((a + b) ** 2 * (a + b + 1.0)) == pytest.approx(s2, abs=1e-12)


def test_fit_beta_mom_failure_modes():
    with pytest.raises(NumericFailure, match="constant"):
        fit_beta_mom(np.full(10, 0.25))
    with pytest.raises(NumericFailure, match="moment condition"):
        fit_beta_mom(np.array([-1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(DataValidationError):
        fit_beta_mom(np.array([0.0]))
    with pytest.raises(DomainError):
        fit_beta_mom(np.array([0.0, 1.5]))


# --- kernel density fits -------------------------------------------------------

def test_fit_kde_uniform_second_moment():
    rng = np.random.default_rng(21)
    dist = fit_kde(rng.uniform(-1.0, 1.0, size=50_000))
    assert dist.second_moment == pytest.approx(1.0 / 3.0, abs=0.01)
    assert abs(dist.density_integral - 1.0) < 1e-6


def test_fit_kde_triangular_second_moment():
    rng = np.random.default_rng(22)
    draws = Triangular(0.0).quantile(rng.uniform(size=50_000))
    dist = fit_kde(draws)
    assert dist.second_moment == pytest.approx(1.0 / 6.0, abs=0.01)


def test_fit_kde_mass_near_plus_one():
    rng = np.random.default_rng(23)
    sample = np.clip(rng.normal(0.95, 0.03, size=500), -1.0, 1.0)
    dist = fit_kde(sample)
    assert dist.mean > 0.8
    assert dist.quantile(0.5) > 0.8


def test_fit_kde_needs_ten_values():
    with pytest.raises(DataValidationError):
        fit_kde(np.linspace(-0.5, 0.5, 9))


# --- empirical mode rule ---------------------------------------------------------

def test_modes_symmetric_case():
    est = estimate_modes_pearson([0.3, -0.2], [0.3, -0.2])
    assert np.allclose(est.modes, [0.3, -0.2])   # mean == median -> mode == mean


def test_modes_direct_arithmetic():
    est = estimate_modes_pearson([0.2], [0.1])
    assert est.modes[0] == pytest.approx(-0.1, abs=1e-15)


def test_modes_length_mismatch():
    with pytest.raises(DomainError):
        estimate_modes_pearson([0.1], [0.1, 0.2])


def test_rtt_fixture_reproduces_mode_averages():
    targets = {"x1": -0.14, "x2": -0.13, "x3": -0.34, "x4": -0.58,
               "x5": -0.69, "x6": -0.34, "x7": -0.17, "x8": -0.09}
    symmetric = {"x2", "x8"}
    summaries = rtt_summaries()
    assert set(summaries) == set(targets)
    for name, rows in summaries.items():
        means = [m for _, m, _, _ in rows]
        medians = [md for _, _, md, _ in rows]
        intervals = [iv for *_, iv in rows]
        dist, est = fit_triangular_pearson(means, medians, intervals,
                                           alpha=0.05, n_tests=len(summaries))
        assert est.m_hat == pytest.approx(targets[name], abs=1e-9)
        if name in symmetric:
            assert est.symmetric is True
            assert dist.mode == 0.0
        else:
            assert est.symmetric is False
            assert dist.mode == pytest.approx(targets[name], abs=1e-9)


# --- exact binomial symmetry test -------------------------------------------------

def test_symmetry_balanced_is_no_rejection():
    reject, p = test_mode_symmetry(np.array([1.0] * 282 + [-1.0] * 282))
    assert (reject, p) == (False, 1.0)


def test_symmetry_k200_of_564_rejects():
    modes = np.array([0.1] * 200 + [-0.1] * 364)
    reject, p = test_mode_symmetry(modes, alpha=0.05, n_tests=8)
    assert reject
    assert p < 0.05 / 8.0


def test_symmetry_all_zero_modes():
    reject, p = test_mode_symmetry(np.zeros(10))
    assert (reject, p) == (False, 1.0)


def test_symmetry_p_matches_exact_tail_sum_oracle():
    # independent float-log oracle for the doubled-tail p-value
    def oracle(k, n):
        logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                - n * math.log(2.0) for i in range(n + 1)]
        lower = math.fsum(math.exp(v) for v in logs[:k + 1])
        upper = math.fsum(math.exp(v) for v in logs[k:])
        return min(1.0, 2.0 * min(lower, upper))

    for n, k in ((17, 5), (64, 32), (101, 60), (564, 200), (9, 0)):
        modes = np.array([1.0] * k + [-1.0] * (n - k))
        _, p = test_mode_symmetry(modes)
        assert p == pytest.approx(oracle(k, n), abs=1e-12)


def test_binom_p_is_the_fraction_formula_bit_for_bit():
    # int / int true division against the rounding of an exact Fraction
    for n in [*range(1, 60), 101, 564, 2000]:
        tails = list(itertools.accumulate(math.comb(n, i) for i in range(n + 1)))
        for k in range(n + 1):
            tail = tails[min(k, n - k)]
            expected = float(min(Fraction(2 * tail, 1 << n), Fraction(1)))
            assert _binom_two_sided_p(k, n).hex() == expected.hex(), (k, n)


def test_symmetry_p_monotone_in_imbalance():
    n = 80
    previous = 1.1
    for k in range(40, 10, -5):
        _, p = test_mode_symmetry(np.array([1.0] * k + [-1.0] * (n - k)))
        assert p <= previous + 1e-15
        previous = p


def test_symmetry_domain_errors():
    with pytest.raises(DomainError):
        test_mode_symmetry(np.array([]))
    with pytest.raises(DomainError):
        test_mode_symmetry(np.array([0.1]), alpha=1.5)
    with pytest.raises(DomainError):
        test_mode_symmetry(np.array([0.1]), n_tests=0)


# --- moment summaries ---------------------------------------------------------------

def test_summary_all_symmetric_triangular():
    variables = [VariableMicrodata(name=f"v{i}", latent=Triangular(0.0))
                 for i in range(3)]
    summary = empirical_moment_summary(variables)
    assert np.allclose(summary.psi, 0.0)
    assert np.allclose(summary.euu, 1.0 / 6.0)
    assert np.allclose(summary.delta, 1.0 / 24.0)


def test_summary_sample_moments_win_on_diagonal(rng):
    u = rng.uniform(-0.5, 0.5, size=400)
    fitted = fit_beta_mom(u)
    variables = [VariableMicrodata(name="a", latent=fitted, sample=u),
                 VariableMicrodata(name="b", latent=Uniform())]
    summary = empirical_moment_summary(variables)
    assert summary.psi[0] == pytest.approx(float(u.mean()), abs=1e-15)
    assert summary.euu[0, 0] == pytest.approx(float(np.mean(u * u)), abs=1e-15)
    assert summary.euu[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert summary.euu[0, 1] == summary.euu[1, 0]


def test_summary_sample_only_variable_uses_kde_for_cross_moments(rng):
    u = rng.uniform(-0.8, 0.8, size=200)
    variables = [VariableMicrodata(name="a", sample=u),
                 VariableMicrodata(name="b", latent=Uniform())]
    summary = empirical_moment_summary(variables)
    assert summary.euu[0, 1] != 0.0
    assert summary.euu[0, 0] == pytest.approx(float(np.mean(u * u)), abs=1e-15)


def test_summary_missing_spec_errors():
    with pytest.raises(DomainError):
        VariableMicrodata(name="bad")
    with pytest.raises(DomainError):
        empirical_moment_summary([])


def test_summary_diagonal_equals_four_delta(rng):
    variables = [VariableMicrodata(name="a", latent=Triangular(-0.3)),
                 VariableMicrodata(name="b", sample=rng.uniform(-1, 1, 50))]
    summary = empirical_moment_summary(variables)
    assert np.allclose(np.diag(summary.euu), 4.0 * summary.delta)
    assert np.allclose(summary.euu, summary.euu.T)


# each guard of the summary-statistics fit, with the message it must give
_REFUSALS = {
    "pearson-interval-count": (
        lambda: fit_triangular_pearson([0.1, 0.2], [0.1, 0.2], [Interval(0.0, 1.0)]),
        "one interval is required per summary row"),
    "modes-empty-input": (lambda: estimate_modes_pearson([], []), "empty input"),
    "modes-nan-median": (lambda: estimate_modes_pearson([0.1, 0.2], [0.1, np.nan]),
                         "means and medians must be finite"),
    "modes-inf-mean": (lambda: estimate_modes_pearson([np.inf], [0.1]),
                       "means and medians must be finite"),
    "pearson-inf-mean": (
        lambda: fit_triangular_pearson([0.1, np.inf], [0.1, 0.2],
                                       [Interval(0.0, 1.0), Interval(0.0, 1.0)]),
        "means and medians must be finite"),
    "symmetry-nan-mode": (lambda: test_mode_symmetry(np.array([0.1, np.nan])),
                          "modes must be finite"),
    "symmetry-inf-mode": (lambda: test_mode_symmetry(np.array([-np.inf, 0.1])),
                          "modes must be finite"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_each_summary_fit_guard_refuses_its_input(case):
    call, message = _REFUSALS[case]
    with pytest.raises(DomainError, match=message):
        call()
