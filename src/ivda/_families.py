"""The parametric latent families beyond the uniform, and the table rule
for cross moments that have no closed form.

``Triangular``, ``InvertedTriangular``, ``TruncatedNormal`` and
``ShiftedBeta`` live here, with ``_cached_cross_moment``, the graded
fixed-grid quadrature for every cross moment without a closed form, a
route that ``ivda.moments.cross_moment`` decides, and
``_quantile_tables``, the quantile tables that the rule and both oracles
read. ``ivda.latent`` re-exports the four families and loads this module on
first use, so a chain that runs on ``Kde`` latents, whose cross moments are
closed, never compiles it. Only the truncated-normal and beta families need
the special functions, and they import them when they use them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._value import Frozen
from .errors import DomainError, NumericFailure
from .latent import Kde, LatentDistribution
from .quadrature import fixed_grid, gauss_weights

__all__ = ["Triangular", "InvertedTriangular", "TruncatedNormal", "ShiftedBeta"]


class Triangular(LatentDistribution, Frozen):
    """Triangular weight on [-1, 1] with mode in [-1, 1].

    mean = mode/3, variance = (mode^2 + 3)/18, so the second moment is
    (mode^2 + 1)/6.
    """

    __slots__ = _fields = ("mode",)
    _defaults = {"mode": 0.0}

    def __init__(self, mode=0.0):
        if not (-1.0 <= mode <= 1.0) or not math.isfinite(mode):
            raise DomainError(f"triangular mode must lie in [-1, 1], got {mode}")
        object.__setattr__(self, "mode", mode)

    def _quantile(self, t):
        m = self.mode
        split = 0.5 * (m + 1.0)
        left = -1.0 + np.sqrt(np.maximum(2.0 * t * (m + 1.0), 0.0))
        right = 1.0 - np.sqrt(np.maximum(2.0 * (1.0 - t) * (1.0 - m), 0.0))
        return np.where(t <= split, left, right)

    @property
    def mean(self):
        return self.mode / 3.0

    @property
    def second_moment(self):
        return (self.mode ** 2 + 1.0) / 6.0

    @property
    def variance(self):
        return (self.mode ** 2 + 3.0) / 18.0

    def breakpoints(self):
        split = 0.5 * (self.mode + 1.0)
        return (split,) if 0.0 < split < 1.0 else ()

    def _uniform_cross_moment(self):
        # integral of (2t-1) against the triangular quantile, in closed form
        return (7.0 + self.mode ** 2) / 30.0


class InvertedTriangular(LatentDistribution, Frozen):
    """V-shaped density |u| on [-1, 1]; mass piles up at the endpoints."""

    __slots__ = ()

    def _quantile(self, t):
        left = -np.sqrt(np.maximum(1.0 - 2.0 * t, 0.0))
        right = np.sqrt(np.maximum(2.0 * t - 1.0, 0.0))
        return np.where(t <= 0.5, left, right)

    @property
    def mean(self):
        return 0.0

    @property
    def second_moment(self):
        return 0.5

    def breakpoints(self):
        return (0.5,)


class TruncatedNormal(LatentDistribution, Frozen):
    """Centred normal with pre-truncation variance sigma2, cut to [-1, 1]."""

    # the second moment takes about 12 us to evaluate, and every distance
    # reads it, so it is computed once into _m2, which is not a field
    __slots__ = ("sigma2", "_m2")
    _fields = ("sigma2",)
    _defaults = {"sigma2": 1.0 / 9.0}

    def __init__(self, sigma2=1.0 / 9.0):
        if not (sigma2 > 0.0) or not math.isfinite(sigma2):
            raise DomainError("sigma2 must be a positive real")
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "_m2", self._second_moment())

    def _quantile(self, t):
        from .special import _norm_ppf_offset, norm_cdf, norm_ppf

        sigma = math.sqrt(self.sigma2)
        k = 1.0 / sigma
        if self.sigma2 >= 1.0:
            # wide sigma: lo + t z would cancel to ~1e-16 sigma absolute, so
            # invert at the offset (t - 1/2) z from 1/2, with z = erf(k / sqrt 2)
            z = math.erf(k / math.sqrt(2.0))
            return np.clip(sigma * _norm_ppf_offset((t - 0.5) * z), -1.0, 1.0)
        lo = norm_cdf(-k)
        z = 1.0 - 2.0 * lo
        # lo + t z near 1 keeps few digits of its distance from 1, so use the
        # odd symmetry Q(t) = -Q(1 - t), with 1 - t exact for t > 1/2
        p = lo + np.minimum(t, 1.0 - t) * z
        # p = lo = 0 at t = 1 once lo underflows (sigma2 below about 1/1400),
        # where Q(1) is the upper end of the support
        q = np.where(p > 0.0, sigma * norm_ppf(np.where(p > 0.0, p, 0.5)), -1.0)
        return np.clip(np.where(t > 0.5, -q, q), -1.0, 1.0)

    @property
    def mean(self):
        return 0.0

    @property
    def second_moment(self):
        return self._m2

    def _second_moment(self):
        if self.sigma2 < 1.0:
            from .special import norm_cdf, norm_pdf

            k = 1.0 / math.sqrt(self.sigma2)
            z = 2.0 * norm_cdf(k) - 1.0
            return self.sigma2 * (1.0 - 2.0 * k * norm_pdf(k) / z)
        # the closed form cancels for wide sigma (off by 7e-5 at sigma2 = 1e8), so
        # expand exp(-s x^2), s <= 1/2, in both integrals; term 20 is below 1e-22
        j = np.arange(20)
        terms = np.cumprod(np.concatenate(([1.0], -0.5 / self.sigma2 / j[1:])))
        return float(np.sum(terms / (2 * j + 3)) / np.sum(terms / (2 * j + 1)))


class ShiftedBeta(LatentDistribution, Frozen):
    """U = 2W - 1 with W ~ Beta(alpha, beta), mapped onto [-1, 1]."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha, beta):
        # a finite sum of positive shapes keeps both, and the mean, finite
        if not (alpha > 0.0 and beta > 0.0 and math.isfinite(alpha + beta)):
            raise DomainError("beta shape parameters must be positive reals with a finite sum")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def _quantile(self, t):
        from .special import betainc_inv

        return 2.0 * betainc_inv(self.alpha, self.beta, t) - 1.0

    @property
    def mean(self):
        return (self.alpha - self.beta) / (self.alpha + self.beta)

    @property
    def variance(self):
        a, b = self.alpha, self.beta
        try:
            den = (a + b) ** 2 * (a + b + 1.0)
        except OverflowError:       # (a + b) ** 2 overflows past a + b of about 1.3e154
            den = math.inf
        if den < math.inf:
            return 4.0 * a * b / den
        # past a + b of about 5.6e102 the denominator is inf, so scale first
        return 4.0 * (a / (a + b)) * (b / (a + b)) / (a + b + 1.0)

    @property
    def second_moment(self):
        return self.variance + self.mean ** 2


_CROSS_MOMENT_TOL = 1e-9

# the cross-moment grid: equal panels, a coarser copy for the error check,
# and a grading towards both ends, where quantiles are often singular
_TABLE_PANELS = 192
_CHECK_PANELS = 96
_TABLE_GRADING = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 3e-2)
_TABLE_CUTS = frozenset(_TABLE_GRADING) | {1.0 - g for g in _TABLE_GRADING}


@functools.lru_cache(maxsize=256)
def _quantile_table(dist, panels, cuts):
    half, nodes = fixed_grid(panels, cuts)
    return half, dist._quantile(nodes.ravel()).reshape(nodes.shape)


def _knotted(dist):
    # a quantile linear between interior knots, a Kde's cdf knots
    knots = dist._linear_knots
    return knots is not None and len(knots) > 2


def _quantile_tables(d1, d2, panels, cuts, at_knots):
    """Half-widths of the panels of ``fixed_grid(panels, cuts)``, with both
    latents' breakpoints among the cuts and, if ``at_knots``, the interior
    knots of their linear pieces too, and the quantiles of ``d1`` and ``d2``
    at its nodes, one row of 32 per panel.

    The one place that decides which tables are cached. A table that
    involves a latent linear between interior knots, a ``Kde``, is built
    for each call: the Kde's own, which a cache would keep alive with its
    arrays (about 99 kB), and, on a grid cut at its knots, its partner's,
    which serves that pair alone and holds about 4.2k x 32 floats (1.1 MB).
    ``breakpoints()`` leaves those knots out, so that they stay off the
    oracle's grid. Every other table is cached.
    """
    knots = [d._linear_knots[1:-1].tolist() for d in (d1, d2) if at_knots and _knotted(d)]
    cuts = tuple(sorted(cuts.union(d1.breakpoints(), d2.breakpoints(), *knots)))

    def table(dist):
        build = _quantile_table.__wrapped__ if knots or _knotted(dist) else _quantile_table
        return build(dist, panels, cuts)

    (half, q1), (_, q2) = table(d1), table(d2)
    return half, q1, q2


# the most pairs the cross-moment cache holds, the oldest dropped first
_CACHE_PAIRS = 4096
_PAIRS = {}
_blake2b = None


def _content(dist):
    # a Kde by its bandwidth and a digest of its sample, so that a cached
    # pair does not keep the Kde's arrays (about 99 kB) alive; hashlib, and
    # OpenSSL with it (about 3 ms), loads on the first such pair
    global _blake2b
    if not isinstance(dist, Kde):
        return dist
    if _blake2b is None:
        from hashlib import blake2b as _blake2b
    return "kde", dist.bandwidth, _blake2b(dist.sample.tobytes(), digest_size=16).digest()


def _cached_cross_moment(d1, d2):
    """The table rule's cross moment of ``d1`` and ``d2``, cached per pair.

    A pair is keyed by its latents' content, a ``Kde`` by its bandwidth and
    a digest of its sample, so the cache holds no ``Kde``. The rule is
    symmetric bit for bit, so both orders share one entry.
    """
    if hash(d2) < hash(d1):
        d1, d2 = d2, d1
    key = _content(d1), _content(d2)
    value = _PAIRS.get(key)
    if value is None:
        value = _PAIRS[key] = _table_rule(d1, d2)
        if len(_PAIRS) > _CACHE_PAIRS:
            del _PAIRS[next(iter(_PAIRS))]
    return value


def _cache_clear():
    _PAIRS.clear()


def _table_rule(d1, d2):
    # a Kde quantile kinks at every interior cdf knot, so the grid is cut there
    def rule(panels):
        half, q1, q2 = _quantile_tables(d1, d2, panels, _TABLE_CUTS, at_knots=True)
        return float(half @ ((q1 * q2) @ gauss_weights()))

    value = rule(_TABLE_PANELS)
    error = abs(value - rule(_CHECK_PANELS))
    if not error <= _CROSS_MOMENT_TOL:
        raise NumericFailure(
            f"cross moment of {d1!r} and {d2!r} not resolved: the {_TABLE_PANELS}- "
            f"and {_CHECK_PANELS}-panel rules differ by {error:.1e}")
    return value
