"""The parametric latent families beyond the uniform, and the table rule
for cross moments that have no closed form.

``Triangular``, ``InvertedTriangular``, ``TruncatedNormal`` and
``ShiftedBeta`` live here, with ``_table_moments``, the graded fixed-grid
quadrature for every cross moment without a closed form, a route that
``ivda.moments`` decides, and ``_quantile_tables``, the quantile tables
that both oracles read. The rule takes all of a frame's pairs without a
``Kde`` at once: it tabulates each of their latents once per panel count,
on one grid graded toward 0, 1 and all their breakpoints, and keeps no
table after the cross moments it feeds; its results are cached by
content. ``ivda.latent`` re-exports the four families and loads this
module on first use, so a chain that runs on ``Kde`` latents, whose cross
moments are closed, never compiles it. Only the truncated-normal and beta
families need the special functions, and they import them when they use
them."""

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
# and a grading towards both ends and every breakpoint, where quantiles are
# often singular
_TABLE_PANELS = 192
_CHECK_PANELS = 96
_TABLE_GRADING = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 3e-2)


@functools.lru_cache(maxsize=256)
def _quantile_table(dist, panels, cuts):
    half, nodes = fixed_grid(panels, cuts)
    return half, dist._quantile(nodes.ravel()).reshape(nodes.shape)


def _knotted(dist):
    # a quantile linear between interior knots, a Kde's cdf knots
    knots = dist._linear_knots
    return knots is not None and len(knots) > 2


def _quantile_tables(d1, d2, panels, cuts):
    """Half-widths of the panels of ``fixed_grid(panels, cuts)``, with both
    latents' breakpoints among the cuts, and the quantiles of ``d1`` and
    ``d2`` at its nodes, one row of 32 per panel: the oracles' tables.

    A ``Kde``'s own table is built for each call, since a cache would keep
    it alive with its arrays (about 99 kB); every other table is cached.
    ``breakpoints()`` leaves a Kde's cdf knots out, so that they stay off
    the oracle's grid.
    """
    cuts = tuple(sorted(cuts.union(d1.breakpoints(), d2.breakpoints())))

    def table(dist):
        build = _quantile_table.__wrapped__ if _knotted(dist) else _quantile_table
        return build(dist, panels, cuts)

    (half, q1), (_, q2) = table(d1), table(d2)
    return half, q1, q2


# the most blocks the cross-moment cache holds, the oldest dropped first
_CACHE_BLOCKS = 4096
_BLOCKS = {}
_blake2b = None


def _content(dist):
    # a Kde by its bandwidth and a digest of its sample, so that a cached
    # block does not keep the Kde's arrays (about 99 kB) alive; hashlib, and
    # OpenSSL with it (about 3 ms), loads on the first such pair
    global _blake2b
    if not isinstance(dist, Kde):
        return dist
    if _blake2b is None:
        from hashlib import blake2b as _blake2b
    return "kde", dist.bandwidth, _blake2b(dist.sample.tobytes(), digest_size=16).digest()


def _table_moments(pairs):
    """The table rule's cross moment of each pair of latents in ``pairs``,
    none of which has a closed form.

    The pairs without a ``Kde`` form one block, and each pair with a Kde a
    block of its own, whose grid is cut at the Kde's cdf knots too: about
    4.1k cuts, which would otherwise reach every pair. A block is cached by
    the content of its pairs, a Kde by its bandwidth and a digest of its
    sample, so the cache holds no ``Kde``, and the rule is symmetric bit for
    bit, so both orders of a pair share one entry. A cached block is one
    lookup, and its value depends on its pairs alone.
    """
    keys, plain, blocks = [], {}, []
    for d1, d2 in pairs:
        if isinstance(d1, Kde) or isinstance(d2, Kde):
            key = frozenset((_content(d1), _content(d2)))
            blocks.append({key: (d1, d2)})
        else:
            key = frozenset((d1, d2))
            plain[key] = d1, d2
        keys.append(key)
    found = {}
    for block in [plain, *blocks] if plain else blocks:
        name = frozenset(block)
        values = _BLOCKS.get(name)
        if values is None:
            values = _BLOCKS[name] = _table_block(block)
            if len(_BLOCKS) > _CACHE_BLOCKS:
                del _BLOCKS[next(iter(_BLOCKS))]
        found.update(values)
    return [found[key] for key in keys]


def _cache_clear():
    _BLOCKS.clear()


def _table_block(block):
    """The table rule on one block, ``{key: (d1, d2)}``: each latent's
    quantile is tabulated once per panel count, on one grid, and each pair
    is the dot product of its two latents' tables, which are dropped once
    the block is done.

    The grid is cut at 0, 1 and every latent's breakpoint, and at the
    ``_TABLE_GRADING`` offsets on each side of each of them, since a
    quantile is often singular there, as ``InvertedTriangular``'s is at
    1/2; and at any Kde's cdf knots, since a Kde quantile kinks at each.
    A pair whose two panel counts differ by more than the tolerance raises
    ``NumericFailure``."""
    latents = dict.fromkeys(d for pair in block.values() for d in pair)
    # fixed_grid keeps the cuts inside (0, 1)
    cuts = {c for p in {0.0, 1.0}.union(*(d.breakpoints() for d in latents))
            for g in (0.0, *_TABLE_GRADING) for c in (p - g, p + g)}
    cuts.update(*(d._linear_knots[1:-1].tolist() for d in latents if _knotted(d)))

    def rule(panels):
        half, nodes = fixed_grid(panels, cuts)
        q = {d: d._quantile(nodes.ravel()).reshape(nodes.shape) for d in latents}
        return {key: float(half @ ((q[d1] * q[d2]) @ gauss_weights()))
                for key, (d1, d2) in block.items()}

    values, check = rule(_TABLE_PANELS), rule(_CHECK_PANELS)
    for key, (d1, d2) in block.items():
        error = abs(values[key] - check[key])
        if error > _CROSS_MOMENT_TOL:
            raise NumericFailure(
                f"cross moment of {d1!r} and {d2!r} not resolved: the {_TABLE_PANELS}- "
                f"and {_CHECK_PANELS}-panel rules differ by {error:.1e}")
    return values
