"""Barycentre, Frechet variance, and the symbolic covariance matrix.

The barycentre of an interval dataset is the box of componentwise mean
centres and mean ranges; the Frechet variance is its mean squared distance
to the observations, equal to the trace of the symbolic covariance matrix.
``covariance_quantile_oracle`` integrates the defining quantile-function
products directly on the fixed grid of ``mallows.oracle_dist_sq`` and is
the independent check on the closed forms; it reads no latent moment.

Every closed form reads the latent means and second moments through
``_latent_moments`` of the column engine, ``ivda._engine``; only the
covariance also needs the cross moments, so only it builds a full
``MomentSummary``. The oracle loads ``ivda.mallows`` and ``ivda.quadrature``
only when it is called. Schur products, traces and the diagonal scaling
behind correlation matrices are plain numpy operators; eigenvalues come
from ``np.linalg.eigvalsh`` with structural zeros split off first.
"""

from __future__ import annotations

import math

import numpy as np

from ._value import Record
from .errors import DataValidationError, DomainError, NumericFailure
from .interval import Box, Interval
from ._engine import MomentSummary, _dist_sq_columns, _latent_moments

__all__ = [
    "Barycentre",
    "SymbolicCovariance",
    "sample_barycentre",
    "frechet_variance",
    "symbolic_covariance",
    "correlation_matrix",
    "correlation_from_cov",
    "covariance_quantile_oracle",
    "cov_model7",
    "frobenius_diff",
    "jacobi_eigenvalues",
]


def jacobi_eigenvalues(a):
    """Eigenvalues of a symmetric matrix, sorted ascending.

    Coordinates whose row and column are exactly zero are split off before
    ``np.linalg.eigvalsh`` sees the rest, so structural zero eigenvalues
    (one per degenerate dimension of a Mahalanobis form) come out exactly
    zero.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("eigensolve requires a square matrix")
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-10 * scale:
        raise DomainError("eigensolve requires a symmetric matrix")
    live = np.any(m != 0.0, axis=0) | np.any(m != 0.0, axis=1)
    eigs = np.linalg.eigvalsh(m[np.ix_(live, live)]) if np.any(live) else np.empty(0)
    return np.sort(np.concatenate([eigs, np.zeros(m.shape[0] - eigs.size)]))


# --- covariance building blocks ------------------------------------------

def _finite(value, what):
    """``value``, if it is finite throughout; else a NumericFailure. Callers
    compute under ``np.errstate``, so an overflow reaches the caller as this
    error and not as numpy warnings."""
    if not np.isfinite(value).all():
        raise NumericFailure(f"{what} is not finite: the data overflow")
    return value


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


def _covariance_parts(c, r, ddof=0):
    n = c.shape[0]
    if n - ddof <= 0:
        raise DataValidationError("not enough rows for the requested divisor")
    cc = c - c.mean(axis=0)
    rc = r - r.mean(axis=0)
    denom = float(n - ddof)
    s_cc = cc.T @ cc / denom
    s_rr = rc.T @ rc / denom
    s_cr = cc.T @ rc / denom
    return s_cc, s_rr, s_cr


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


class SymbolicCovariance(Record):
    """Covariance matrix of an interval dataset with its audit trail.

    ``sigma_b`` combines the centre covariances, the Schur product of the
    latent cross moments with the range covariances, and the centre/range
    cross covariances weighted by the latent means. The constituent parts
    and the latent moment summary are retained for auditing; ``divisor``
    records the convention used ("n" or "n-1").
    """

    __slots__ = _fields = ("sigma_b", "sigma_cc", "sigma_rr", "sigma_cr", "summary", "names",
                           "divisor")

    def __init__(self, sigma_b, sigma_cc, sigma_rr, sigma_cr, summary, names, divisor="n"):
        object.__setattr__(self, "sigma_b", sigma_b)
        object.__setattr__(self, "sigma_cc", sigma_cc)
        object.__setattr__(self, "sigma_rr", sigma_rr)
        object.__setattr__(self, "sigma_cr", sigma_cr)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "divisor", divisor)


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


def symbolic_covariance(frame, ddof=0):
    """Symbolic covariance matrix of the frame.

    Sigma_B = S_CC + E_UU o S_RR / 4 + (S_CR Psi + Psi S_RC) / 2, with o the
    Schur (entrywise) product, E_UU the latent cross-moment matrix and Psi
    the diagonal of latent means. When every variable shares one latent,
    E_UU holds its second moment throughout, so the same formula reduces to
    S_CC + delta S_RR plus the mean cross term. ``ddof=1`` switches to the
    n-1 divisor and is recorded in the result. A matrix that overflows
    raises ``NumericFailure``.
    """
    if frame.n < 2:
        raise DataValidationError("covariance needs at least two rows")
    c, r = frame.checked_centres_ranges()
    summary = MomentSummary.from_latents(frame.latents)
    with np.errstate(over="ignore", invalid="ignore"):
        s_cc, s_rr, s_cr = _covariance_parts(c, r, ddof=ddof)
        # S_CR Psi plus its transpose as one term keeps Sigma_B exactly symmetric
        mean_cross = s_cr * summary.psi
        sigma = s_cc + 0.25 * (summary.euu * s_rr) + 0.5 * (mean_cross + mean_cross.T)
    _finite(sigma, "symbolic covariance")
    return SymbolicCovariance(sigma_b=sigma, sigma_cc=s_cc, sigma_rr=s_rr,
                              sigma_cr=s_cr, summary=summary,
                              names=frame.names,
                              divisor="n" if ddof == 0 else "n-1")


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
    """Frobenius norm of the difference of two equally shaped matrices."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise DomainError("shape mismatch")
    diff = m1 - m2
    return math.sqrt(math.fsum((diff * diff).ravel().tolist()))
