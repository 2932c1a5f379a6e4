"""Fitting latent distributions from microdata at three information levels.

Full samples support a parametric beta fit by the method of moments or a
kernel density estimate; summary statistics alone support the empirical
mode rule (three medians minus two means) with an exact binomial symmetry
test; and an explicit family assumption always remains available upstream.
Every fit is deterministic: no randomness enters any routine here. The
kernel density fit, ``fit_kde``, is defined beside ``Kde`` in
``ivda.latent`` and re-exported here, so ``fit --method kde`` loads
neither this module nor the parametric families. The summary-statistics
reader that the triangular-Pearson fit takes its rows from,
``read_summary_csv``, lives here too, and ``ivda.ingest`` re-exports it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._tables import _read_table, _refuse_repeated
from ._value import Record
from .errors import DataValidationError, DomainError, NumericFailure
from ._families import ShiftedBeta, Triangular
from .latent import fit_kde

__all__ = [
    "ModeEstimates",
    "VariableMicrodata",
    "fit_beta_mom",
    "fit_kde",
    "estimate_modes_pearson",
    "test_mode_symmetry",
    "fit_triangular_pearson",
    "empirical_moment_summary",
]


def read_summary_csv(path):
    """Read summary statistics rows: group,variable,mean,median,min,max.

    Returns {variable: list of (group, mean, median, Interval)} preserving
    row order within each variable. A cell that is not a number, a mean or
    median that is not finite, or a bad interval raises
    ``DataValidationError`` naming ``path:line``.
    """
    from ._box import Interval

    path = Path(path)
    rows = _read_table(path)
    header = next(rows)
    _refuse_repeated(header, path)
    required = ("group", "variable", "mean", "median", "min", "max")
    if not set(required).issubset(header):
        raise DataValidationError(
            f"{path}: header must contain columns {sorted(required)}")
    group, variable, mean, median, least, most = map(header.index, required)
    out = {}
    for line, cells in rows:
        try:
            iv = Interval(float(cells[least]), float(cells[most]))
            centre = float(cells[mean]), float(cells[median])
            if not np.all(np.isfinite(centre)):
                raise DomainError(f"mean and median must be finite, got {centre}")
            out.setdefault(cells[variable], []).append((cells[group], *centre, iv))
        except (ValueError, DomainError) as exc:
            raise DataValidationError(f"{path}:{line}: {exc}") from exc
    return out


def fit_beta_mom(u_samples):
    """Method-of-moments beta fit to scaled values.

    With w = (u + 1)/2, matches the sample mean and (divisor n) variance of
    w; requires the variance to sit strictly below m(1 - m), otherwise no
    beta has these moments.
    """
    u = np.asarray(u_samples, dtype=float).ravel()
    if u.size < 2:
        raise DataValidationError("beta fit needs at least two values")
    if np.any(~np.isfinite(u)) or np.any(u < -1.0) or np.any(u > 1.0):
        raise DomainError("scaled values must lie in [-1, 1]")
    if np.ptp(u) == 0.0:
        raise NumericFailure("constant sample: beta fit undefined")
    w = 0.5 * (u + 1.0)
    mbar = float(w.mean())
    s2 = float(np.mean(w * w) - mbar * mbar)
    bound = mbar * (1.0 - mbar)
    if s2 <= 0.0:
        raise NumericFailure("constant sample: beta fit undefined")
    if s2 >= bound:
        raise NumericFailure(
            f"moment condition violated: variance {s2:.6g} >= m(1-m) = {bound:.6g}")
    common = bound / s2 - 1.0
    return ShiftedBeta(alpha=mbar * common, beta=(1.0 - mbar) * common)


class ModeEstimates(Record):
    """Per-row empirical modes of one variable plus their average."""

    __slots__ = _fields = ("modes", "m_hat", "symmetric")

    def __init__(self, modes, m_hat, symmetric=None):
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "m_hat", m_hat)
        object.__setattr__(self, "symmetric", symmetric)


def estimate_modes_pearson(means, medians):
    """Rowwise empirical rule of thumb, mode = 3 * median - 2 * mean.

    A mean or median that is not finite raises ``DomainError``.
    """
    means = np.asarray(means, dtype=float).ravel()
    medians = np.asarray(medians, dtype=float).ravel()
    if means.size != medians.size:
        raise DomainError("means and medians must have equal length")
    if means.size == 0:
        raise DomainError("empty input")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(medians))):
        raise DomainError("means and medians must be finite")
    modes = 3.0 * medians - 2.0 * means
    return ModeEstimates(modes=modes, m_hat=float(modes.mean()))


def _binom_two_sided_p(k, n):
    # exact doubled-tail p-value for k successes out of n at proportion 1/2;
    # by symmetry the smaller tail is C(n, 0) + ... + C(n, min(k, n - k)),
    # built term by term so the work stays linear in the tail length; int / int
    # is correctly rounded, as Fraction's float() of the same ratio is
    term = tail = 1
    for i in range(min(k, n - k)):
        term = term * (n - i) // (i + 1)
        tail += term
    return min(1.0, (2 * tail) / (1 << n))


def test_mode_symmetry(modes, alpha=0.05, n_tests=1):
    """Exact binomial test that the proportion of positive modes is 1/2.

    Modes equal to exactly zero carry no sign information and are excluded;
    a mode that is not finite raises ``DomainError``.
    Returns (reject, p_value) with the cutoff Bonferroni-corrected by
    ``n_tests``; non-rejection is the caller's licence to set the mode to 0.
    """
    modes = np.asarray(modes, dtype=float).ravel()
    if modes.size == 0:
        raise DomainError("empty mode list")
    if not np.all(np.isfinite(modes)):
        raise DomainError("modes must be finite")
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    if n_tests < 1:
        raise DomainError("n_tests must be at least 1")
    signs = modes[modes != 0.0]
    if signs.size == 0:
        return False, 1.0
    k = int(np.sum(signs > 0.0))
    p = _binom_two_sided_p(k, signs.size)
    return p < alpha / n_tests, p


test_mode_symmetry.__test__ = False      # not a pytest test despite the name


def fit_triangular_pearson(means, medians, intervals, alpha=0.05, n_tests=1):
    """Partial-information fit: a triangular latent from summary statistics.

    Raw modes come from the rowwise rule of thumb, each is scaled into
    [-1, 1] through its own row's interval, and the per-variable mode is the
    average of the scaled modes. When the symmetry test does not reject, the
    mode is pinned to zero.
    """
    raw = estimate_modes_pearson(means, medians).modes
    if len(intervals) != raw.size:
        raise DomainError("one interval is required per summary row")
    scaled = np.array([
        float(np.clip(2.0 * (mo - iv.centre) / iv.range, -1.0, 1.0))
        if iv.range > 0.0 else 0.0
        for mo, iv in zip(raw, intervals)
    ])
    reject, _ = test_mode_symmetry(scaled, alpha=alpha, n_tests=n_tests)
    m_hat = float(scaled.mean())
    estimates = ModeEstimates(modes=scaled, m_hat=m_hat, symmetric=not reject)
    mode = m_hat if reject else 0.0
    return Triangular(mode=float(np.clip(mode, -1.0, 1.0))), estimates


class VariableMicrodata(Record):
    """Per-variable microdata information for the moment summary.

    Either a fitted latent, a scaled sample, or both. When both exist the
    raw sample wins for the mean and the second moment while the fitted
    quantile function drives the cross moments; a sample without a fit gets
    a kernel density estimate for its quantile function.
    """

    __slots__ = _fields = ("name", "latent", "sample")

    def __init__(self, name, latent=None, sample=None):
        if latent is None and sample is None:
            raise DomainError(f"variable {name!r} has neither a latent nor a sample")
        if sample is not None:
            sample = np.asarray(sample, dtype=float).ravel()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "latent", latent)
        object.__setattr__(self, "sample", sample)


def empirical_moment_summary(variables):
    """Latent moment summary from per-variable fits and/or scaled samples."""
    # imported here: no fit needs the covariance module
    from .moments import MomentSummary

    variables = list(variables)
    if not variables:
        raise DomainError("no variables given")
    summary = MomentSummary.from_latents(
        var.latent if var.latent is not None else fit_kde(var.sample) for var in variables)
    for i, var in enumerate(variables):
        if var.sample is not None:
            m2 = float(np.mean(var.sample ** 2))
            summary.psi[i] = float(var.sample.mean())
            summary.delta[i] = m2 / 4.0
            summary.euu[i, i] = m2
    return summary
