"""Cross moments of two latents: the integral of q1(t) q2(t) over (0, 1).

``cross_moment`` picks each pair's route: the closed form where one is
known, else the table rule of ``ivda._families``. Only the symbolic
covariance (its E_UU matrix) and the scalar forms of ``ivda.mallows`` read
cross moments, so the ``distance`` stage never loads this module, and the
``covariance`` stage of a chain on ``Kde`` latents, whose cross moments are
closed, never loads ``ivda._families``. ``ivda.latent`` re-exports
``cross_moment`` and ``quantile_correlation``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericFailure
from .latent import Degenerate, Kde, Uniform

__all__ = ["cross_moment", "quantile_correlation"]

_GAUSS2 = 1.0 / math.sqrt(3.0)


def _merged_knots(a, b):
    # np.union1d's sort-and-compare path, without the numpy.ma import that
    # np.unique makes on its first call
    t = np.sort(np.concatenate((a, b)))
    keep = np.empty(t.size, dtype=bool)
    keep[:1] = True
    np.not_equal(t[1:], t[:-1], out=keep[1:])
    return t[keep]


# the families whose quantiles are linear between knots
_LINEAR = (Kde, Uniform)


def _closed_cross_moment(d1, d2):
    if isinstance(d1, Degenerate) or isinstance(d2, Degenerate):
        return 0.0
    if d1 == d2:
        return d1.second_moment
    if type(d1) in _LINEAR and type(d2) in _LINEAR:
        # both quantiles are linear between the merged cdf knots, so the
        # two-point Gauss rule is exact there; its nodes are interior, clear
        # of the jump a quantile makes where the cdf is flat
        t = _merged_knots(*(d._cdf if isinstance(d, Kde) else (0.0, 1.0) for d in (d1, d2)))
        half = 0.5 * np.diff(t)
        nodes = (t[:-1] + half * (1.0 - _GAUSS2), t[:-1] + half * (1.0 + _GAUSS2))
        return float(np.sum(half * sum(d1._quantile(x) * d2._quantile(x) for x in nodes)))
    if type(d1) is Uniform:
        return d2._uniform_cross_moment()
    if type(d2) is Uniform:
        return d1._uniform_cross_moment()
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
    half as many panels differs by more than 1e-9; its results are cached
    per pair.
    """
    closed = _closed_cross_moment(d1, d2)
    return closed if closed is not None else _table_rule(d1, d2)


def _table_rule(d1, d2):
    # the first pair without a closed form loads ivda._families and binds
    # its cached rule in this function's place, so no later call imports
    global _table_rule
    from ._families import _cached_cross_moment as _table_rule

    return _table_rule(d1, d2)


def quantile_correlation(d1, d2):
    """Correlation between the two quantile functions, in (0, 1]."""
    v1, v2 = d1.variance, d2.variance
    if v1 <= 0.0 or v2 <= 0.0:
        raise NumericFailure("zero-variance latent")
    return (cross_moment(d1, d2) - d1.mean * d2.mean) / math.sqrt(v1 * v2)
