"""The barycentre, the Frechet variance and the other names of
``ivda.moments`` that the ``covariance`` command does not run.

The barycentre of an interval dataset is the box of componentwise mean
centres and mean ranges; the Frechet variance is its mean squared distance
to the observations, equal to the trace of the symbolic covariance matrix.
``covariance_quantile_oracle`` integrates the defining quantile-function
products directly on the fixed grid of ``mallows.oracle_dist_sq`` and is
the independent check on the closed forms; it reads no latent moment.
Correlation matrices, the model-7 comparison estimator and the Frobenius
norm of a difference live here too. ``ivda.moments`` re-exports every
public name.
"""

from __future__ import annotations

import math

import numpy as np

from ._engine import _dist_sq_columns
from ._value import Record
from .errors import DataValidationError, DomainError, NumericFailure
from ._box import Box, Interval
from .latent import _latent_moments
from .moments import _covariance_parts, _finite

__all__ = [
    "Barycentre",
    "sample_barycentre",
    "frechet_variance",
    "correlation_matrix",
    "correlation_from_cov",
    "covariance_quantile_oracle",
    "cov_model7",
    "frobenius_diff",
]


def _fsum(values, what):
    """``math.fsum`` of ``values``, with a NumericFailure where the sum is
    not finite."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):
        # fsum raises on an intermediate overflow and on inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise NumericFailure(f"{what} is not finite: the data overflow")
    return total


class Barycentre(Record):
    """Mean box of a dataset plus the attained Frechet variance.

    ``centres`` and ``ranges`` hold the exact componentwise means; the box
    view re-derives them from its bounds and may differ in the last bit.
    """

    __slots__ = _fields = ("box", "centres", "ranges", "frechet_variance")

    def __init__(self, box, centres, ranges, frechet_variance):
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "centres", centres)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "frechet_variance", frechet_variance)


def sample_barycentre(frame):
    """Componentwise means of centres and ranges, with the mean squared
    distance of the observations to that box."""
    if frame.n < 1:
        raise DataValidationError("cannot take the barycentre of an empty frame")
    c, r = frame.checked_centres_ranges()
    with np.errstate(over="ignore", invalid="ignore"):
        cbar = _finite(c.mean(axis=0), "barycentre")
        rbar = _finite(r.mean(axis=0), "barycentre")
    box = Box(tuple(Interval.from_centre_range(cb, rb) for cb, rb in zip(cbar, rbar)),
              frame.latents)
    # each row's dist_sq_box to the box, bitwise, from the column engine
    sq = np.zeros(frame.n)
    _dist_sq_columns(c.T, r.T, box.centres[:, None], box.ranges[:, None],
                     *_latent_moments(frame.latents), sq, np.empty((4, frame.n)))
    vf = _fsum(sq.tolist(), "Frechet variance") / frame.n
    return Barycentre(box=box, centres=cbar, ranges=rbar, frechet_variance=vf)


def frechet_variance(frame):
    """Trace form of the Frechet variance: tr(S_CC + Delta S_RR + S_CR Psi)."""
    if frame.n < 1:
        raise DataValidationError("empty frame")
    c, r = frame.checked_centres_ranges()
    psi, delta = _latent_moments(frame.latents)
    with np.errstate(over="ignore", invalid="ignore"):
        s_cc, s_rr, s_cr = _covariance_parts(c, r, ddof=0)
        terms = np.diag(s_cc) + delta * np.diag(s_rr) + psi * np.diag(s_cr)
    return _fsum(terms.tolist(), "Frechet variance")


def correlation_matrix(sigma, names=None):
    """D^{-1/2} Sigma D^{-1/2} for a covariance-like symmetric matrix; a
    non-finite entry raises ``NumericFailure``."""
    sigma = np.asarray(sigma, dtype=float)
    d = np.diag(sigma)
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        label = names[bad[0]] if names is not None else str(bad[0])
        raise NumericFailure(f"zero variance for variable {label!r}: no correlation")
    root = np.sqrt(d)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # checked before the unit diagonal is written, which would hide a NaN
        corr = _finite(sigma / np.outer(root, root), "correlation")
    np.fill_diagonal(corr, 1.0)
    return corr


def correlation_from_cov(cov):
    """Correlation matrix of a SymbolicCovariance."""
    return correlation_matrix(cov.sigma_b, cov.names)


def covariance_quantile_oracle(frame, i, j):
    """Sample covariance of variables i and j straight from the definition.

    Averages, over rows, the integral of the product of the deviations of
    the row quantile functions from the barycentre quantile functions, each
    on the fixed graded grid of ``oracle_dist_sq``, whose latent quantiles
    every row shares. Row contributions are combined with compensated
    summation so that results do not depend on evaluation order.
    """
    from .mallows import _oracle_grid
    from .quadrature import gauss_weights

    if frame.n < 2:
        raise DataValidationError("covariance needs at least two rows")
    c, r = frame.checked_centres_ranges()
    dc = c - c.mean(axis=0)
    dr = 0.5 * (r - r.mean(axis=0))
    half, qi, qj = _oracle_grid(frame.latents[i], frame.latents[j])
    weights = gauss_weights()
    rows = []
    for h in range(frame.n):
        di = dc[h, i] + dr[h, i] * qi
        dj = dc[h, j] + dr[h, j] * qj
        rows.append(float(np.sum(half * ((di * dj) @ weights))))
    return math.fsum(rows) / frame.n


def cov_model7(frame, ddof=0):
    """Comparison estimator: centre covariances plus a diagonal range
    adjustment, Diag(S_RR + rbar rbar') / 24. It reads no latent, so only
    the bounds are checked."""
    if frame.n < 2:
        raise DataValidationError("covariance needs at least two rows")
    c, r = frame.checked_centres_ranges(latents=False)
    with np.errstate(over="ignore", invalid="ignore"):
        rbar = r.mean(axis=0)
        s_cc, s_rr, _ = _covariance_parts(c, r, ddof=ddof)
        second = s_rr + np.outer(rbar, rbar)
        sigma = s_cc + np.diag(np.diag(second)) / 24.0
    return _finite(sigma, "model7 covariance")


def frobenius_diff(m1, m2):
    """Frobenius norm of the difference of two equally shaped finite matrices.

    The differences are scaled by the power of two at or above the largest
    of them before they are squared. That is exact, so the result keeps its
    bits wherever the plain squares neither overflow nor underflow, and
    differences of 1e-200 no longer give 0. A difference or a norm past the
    float range raises ``NumericFailure``."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise DomainError("shape mismatch")
    if not (np.isfinite(m1).all() and np.isfinite(m2).all()):
        raise DomainError("matrices to compare must be finite")
    with np.errstate(over="ignore"):
        diff = _finite(m1 - m2, "matrix difference")
    largest = float(np.max(np.abs(diff), initial=0.0))
    if largest == 0.0:
        return 0.0
    exponent = math.frexp(largest)[1]
    scaled = np.ldexp(diff, -exponent)
    try:
        return math.ldexp(math.sqrt(math.fsum((scaled * scaled).ravel().tolist())), exponent)
    except OverflowError:
        raise NumericFailure("Frobenius norm is not finite: the data overflow") from None
