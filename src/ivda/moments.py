"""The symbolic covariance matrix, and every name of the paper's moments.

Sigma_B combines the centre covariances, the Schur product of the latent
cross moments (``MomentSummary``'s E_UU) with the range covariances, and
the centre/range cross covariances weighted by the latent means. This
module holds what the ``covariance`` command runs: ``symbolic_covariance``,
``MomentSummary`` and ``jacobi_eigenvalues``, whose eigenvalues come from
``np.linalg.eigvalsh`` with structural zeros split off first. The other
names of ``__all__`` (the barycentre, the Frechet variance, correlation
matrices, the model-7 estimator, the covariance oracle and
``frobenius_diff``) load on first access from the module that
``ivda._DEFINED_IN`` names.

Every closed form reads the latent means and second moments through
``ivda.latent._latent_moments``; only the covariance also needs the cross
moments, so only it builds a full ``MomentSummary``, which sends all of a
frame's pairs without a closed form to the table rule in one call. This
module also holds ``cross_moment``, which picks each pair's route from the
knots between which each latent declares its quantile linear
(``_linear_knots``), and ``quantile_correlation``: only the symbolic
covariance and the scalar forms of ``ivda.mallows`` read cross moments, so
the ``distance`` stage never loads them, and the ``covariance`` stage of a
chain on ``Kde`` latents, whose cross moments are closed, never loads the
table rule of ``ivda._families``."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import _load
from ._value import Record
from .errors import DataValidationError, DomainError, NumericFailure
from .latent import _latent_moments

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


def __getattr__(name):
    return _load(__name__, name)


def jacobi_eigenvalues(a):
    """Eigenvalues of a symmetric matrix, sorted ascending.

    Coordinates whose row and column are exactly zero are split off before
    ``np.linalg.eigvalsh`` sees the rest, so structural zero eigenvalues
    (one per degenerate dimension of a Mahalanobis form) come out exactly
    zero. A matrix that is not square, not symmetric or not finite raises
    ``DomainError``.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("eigensolve requires a square matrix")
    scale = float(np.max(np.abs(m), initial=0.0))
    # checked before m - m.T, where inf - inf warns; a nan fails it too
    if not scale < math.inf:
        raise DomainError("eigensolve requires a finite matrix")
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-10 * max(1.0, scale):
        raise DomainError("eigensolve requires a symmetric matrix")
    live = np.any(m != 0.0, axis=0) | np.any(m != 0.0, axis=1)
    eigs = np.linalg.eigvalsh(m[np.ix_(live, live)]) if np.any(live) else np.empty(0)
    return np.sort(np.concatenate([eigs, np.zeros(m.shape[0] - eigs.size)]))


# --- cross moments ---------------------------------------------------------

_GAUSS2 = 1.0 / math.sqrt(3.0)


def _merged_knots(a, b):
    # np.union1d's sort-and-compare path, without the numpy.ma import that
    # np.unique makes on its first call
    t = np.sort(np.concatenate((a, b)))
    keep = np.empty(t.size, dtype=bool)
    keep[:1] = True
    np.not_equal(t[1:], t[:-1], out=keep[1:])
    return t[keep]


def _closed_cross_moment(d1, d2):
    if d1 == d2:
        return d1.second_moment
    k1, k2 = d1._linear_knots, d2._linear_knots
    if k1 is not None and k2 is not None:
        # both quantiles are linear between the merged knots, so the
        # two-point Gauss rule is exact there; its nodes are interior, clear
        # of the jump a quantile makes where the cdf is flat
        t = _merged_knots(k1, k2)
        half = 0.5 * np.diff(t)
        nodes = (t[:-1] + half * (1.0 - _GAUSS2), t[:-1] + half * (1.0 + _GAUSS2))
        return float(np.sum(half * sum(d1._quantile(x) * d2._quantile(x) for x in nodes)))
    # a quantile that is one line on (0, 1) is the point mass at 0 or 2t - 1
    for line, knots, other in ((d1, k1, d2), (d2, k2, d1)):
        if knots is not None and len(knots) == 2:
            return 0.0 if line.second_moment == 0.0 else other._uniform_cross_moment()
    return None


def cross_moment(d1, d2):
    """Comonotone product moment: the integral of q1(t) * q2(t) over (0, 1).

    Symmetric in its arguments; equals the second moment when the two
    distributions coincide. Each pair takes one route: the closed form
    where one is known (a ``Degenerate`` latent, two equal latents, any pair
    of ``Kde`` and ``Uniform``, and ``Uniform`` with ``Triangular``), else
    the table rule of ``ivda._families``, a dot product of the two latents'
    quantile tables on a graded grid cut at their breakpoints and at any
    ``Kde``'s cdf knots. The rule raises ``NumericFailure`` when the rule on
    half as many panels differs by more than 1e-9. Its results are cached by
    the latents' content; ``MomentSummary.from_latents`` runs it once on all
    of a frame's pairs without a ``Kde``.
    """
    closed = _closed_cross_moment(d1, d2)
    return closed if closed is not None else _table_rule([(d1, d2)])[0]


def _table_rule(pairs):
    # the first pair without a closed form loads ivda._families and binds
    # its cached rule in this function's place, so no later call imports
    global _table_rule
    from ._families import _table_moments as _table_rule

    return _table_rule(pairs)


def quantile_correlation(d1, d2):
    """Correlation between the two quantile functions, in (0, 1]."""
    v1, v2 = d1.variance, d2.variance
    if v1 <= 0.0 or v2 <= 0.0:
        raise NumericFailure("zero-variance latent")
    return (cross_moment(d1, d2) - d1.mean * d2.mean) / math.sqrt(v1 * v2)


# --- covariance building blocks ------------------------------------------

def _finite(value, what):
    """``value``, if it is finite throughout; else a NumericFailure. Callers
    compute under ``np.errstate``, so an overflow reaches the caller as this
    error and not as numpy warnings."""
    if not np.isfinite(value).all():
        raise NumericFailure(f"{what} is not finite: the data overflow")
    return value


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


class MomentSummary(Record):
    """First and second latent moments of a p-dimensional latent vector.

    psi holds the means, delta the second moments over four, and euu the
    full cross-moment matrix whose diagonal equals the second moments.
    """

    __slots__ = _fields = ("psi", "delta", "euu")

    def __init__(self, psi, delta, euu):
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "euu", euu)

    @classmethod
    def from_latents(cls, latents):
        """The summary of ``latents``, one per dimension. The pairs without a
        closed cross moment go to the table rule together, so that each
        latent is tabulated once per panel count for the frame."""
        latents = tuple(latents)
        if any(lat is None for lat in latents):
            raise DomainError("every dimension needs a latent distribution")
        psi, delta = _latent_moments(latents)
        euu = np.diag(4.0 * delta)
        rest = {}
        for i, j in itertools.combinations(range(len(latents)), 2):
            value = _closed_cross_moment(latents[i], latents[j])
            if value is None:
                rest[i, j] = latents[i], latents[j]
            else:
                euu[i, j] = euu[j, i] = value
        if rest:
            for (i, j), value in zip(rest, _table_rule(list(rest.values()))):
                euu[i, j] = euu[j, i] = value
        return cls(psi=psi, delta=delta, euu=euu)



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
