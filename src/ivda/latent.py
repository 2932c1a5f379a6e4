"""Latent microdata distributions on [-1, 1].

Every interval observation carries a latent weight describing where the
microdata sit between the endpoints: a value v inside the interval with
centre c and range r is v = c + u * r / 2 with u in [-1, 1]. The families
here expose the quantile function and the first two moments, which is all
the distance and covariance machinery downstream needs.

Quantile functions are vectorized over numpy arrays and pure: once built, a
distribution never mutates (the kernel-density family precomputes its
density at construction), so values are safe to share across threads. Only
the truncated-normal and beta families need the special functions, and they
import them when they use them.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from ._value import Frozen
from .errors import DataValidationError, DomainError, IvdaError, NumericFailure
from .quadrature import fixed_grid, gauss_weights

__all__ = [
    "LatentDistribution",
    "Uniform",
    "Triangular",
    "InvertedTriangular",
    "TruncatedNormal",
    "ShiftedBeta",
    "Kde",
    "Degenerate",
    "cross_moment",
    "quantile_correlation",
    "microdata_quantile",
    "latent_to_dict",
    "latent_from_dict",
    "silverman_bandwidth",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_GAUSS2 = 1.0 / math.sqrt(3.0)


class LatentDistribution:
    """Base class for latent weight distributions with support [-1, 1].

    A parametric family is a ``Frozen`` value whose fields are its
    parameters; ``_defaults`` holds the default of each optional one, which
    a JSON spec may leave out.
    """

    __slots__ = ()
    _defaults = {}

    def _quantile(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, t):
        """Generalized inverse cdf at t in (0, 1]; vectorized."""
        arr = np.asarray(t, dtype=float)
        if arr.size and (np.any(arr <= 0.0) or np.any(arr > 1.0)):
            raise DomainError("quantile argument must lie in (0, 1]")
        out = self._quantile(np.atleast_1d(arr)).reshape(arr.shape)
        return out if np.ndim(t) else float(out)

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def second_moment(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2

    def moments(self):
        """(mean, second moment, variance) as plain floats."""
        return (self.mean, self.second_moment, self.variance)

    def breakpoints(self):
        """Interior t values where the quantile function is not smooth."""
        return ()


class Uniform(LatentDistribution, Frozen):
    """Continuous uniform weight on [-1, 1]."""

    __slots__ = ()

    def _quantile(self, t):
        return 2.0 * t - 1.0

    @property
    def mean(self):
        return 0.0

    @property
    def second_moment(self):
        return 1.0 / 3.0


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
        ok = alpha > 0.0 and beta > 0.0
        if not ok or not (math.isfinite(alpha) and math.isfinite(beta)):
            raise DomainError("beta shape parameters must be positive reals")
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
        return 4.0 * a * b / ((a + b) ** 2 * (a + b + 1.0))

    @property
    def second_moment(self):
        return self.variance + self.mean ** 2


class Degenerate(LatentDistribution, Frozen):
    """Point mass at 0; the weight of a zero-range (real-valued) variable."""

    __slots__ = ()

    def _quantile(self, t):
        return np.zeros_like(t)

    @property
    def mean(self):
        return 0.0

    @property
    def second_moment(self):
        return 0.0


def silverman_bandwidth(sample):
    """Silverman's rule of thumb on the raw scaled sample."""
    sample = np.asarray(sample, dtype=float)
    n = sample.size
    if n < 2:
        raise DomainError("bandwidth selection needs at least two values")
    sd = float(np.std(sample, ddof=1))
    ordered = np.sort(sample, axis=None)
    iqr = float(_linear_quantile(ordered, 0.75) - _linear_quantile(ordered, 0.25))
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if spread <= 0.0:
        raise NumericFailure("constant sample: no usable bandwidth")
    return 0.9 * spread * n ** (-0.2)


def _linear_quantile(ordered, q):
    # np.percentile's default "linear" method on a sorted sample, step for
    # step, so the bits agree; np.percentile itself would import numpy.ma
    h = q * (ordered.size - 1)
    i = math.floor(h)
    g = h - i
    a, b = ordered[i], ordered[min(i + 1, ordered.size - 1)]
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


_KDE_GRID_SIZE = 4096
# every Kde reads this one grid, so it is shared and read-only
_KDE_GRID = np.linspace(-1.0, 1.0, _KDE_GRID_SIZE)
_KDE_GRID.setflags(write=False)


class Kde(LatentDistribution):
    """Gaussian kernel density on [-1, 1] with boundary reflection.

    The density is evaluated by linear-binning the sample onto a fixed grid
    and convolving with the kernel; mass pushed past either endpoint is
    mirrored back in, which keeps the estimate supported on [-1, 1]. The cdf
    is the linear interpolant of the integrated density on that grid, so the
    quantile, the first two moments and the cross moments with another
    ``Kde`` or a ``Uniform`` are exact finite sums on the grid, and
    ``cross_moment(..., method="closed")`` accepts those pairs.

    The grid's cells, 2/4095 wide, are its resolution limit: a bandwidth
    below one cell gives about the linear-binned histogram of the sample
    (cdf within 3e-3), and below a tenth of a cell that histogram to
    rounding, so smaller bandwidths change nothing.
    """

    def __init__(self, sample, bandwidth=None):
        sample = np.asarray(sample, dtype=float).ravel()
        if sample.size < 2:
            raise DomainError("kde needs at least two sample values")
        if np.any(~np.isfinite(sample)):
            raise DomainError("kde sample contains non-finite values")
        if np.any(sample < -1.0 - 1e-9) or np.any(sample > 1.0 + 1e-9):
            raise DomainError("kde sample values must lie in [-1, 1]")
        sample = np.clip(sample, -1.0, 1.0)
        if bandwidth is None:
            bandwidth = silverman_bandwidth(sample)
        bandwidth = float(bandwidth)
        if not (bandwidth > 0.0) or not math.isfinite(bandwidth):
            raise DomainError("bandwidth must be a positive real")

        grid = _KDE_GRID
        density = _reflected_density(sample, grid, bandwidth)
        dx = grid[1] - grid[0]
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * dx)))

        self._sample = sample
        self._sample.setflags(write=False)
        self._bandwidth = bandwidth
        self._hash = hash((bandwidth, sample.tobytes()))
        self._grid = grid
        self._density_integral = float(cdf[-1])
        self._cdf = cdf / cdf[-1]
        # the density is uniform inside each cell: sum the cell moments
        mass = np.diff(self._cdf)
        x0, x1 = grid[:-1], grid[1:]
        self._mean = float(np.sum(mass * (x0 + x1)) / 2.0)
        self._m2 = float(np.sum(mass * (x0 * x0 + x0 * x1 + x1 * x1)) / 3.0)

    @property
    def sample(self):
        return self._sample

    @property
    def bandwidth(self):
        return self._bandwidth

    @property
    def density_integral(self):
        """Mass of the raw (unnormalized) density over [-1, 1]."""
        return self._density_integral

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.interp(np.atleast_1d(arr), self._grid, self._cdf,
                        left=0.0, right=1.0).reshape(arr.shape)
        return out if np.ndim(x) else float(out)

    def _quantile(self, t):
        # invert the linear interpolant on the first cell where the cdf
        # reaches t; for t in (0, 1] that cell has F1 > F0, so zero-mass
        # cells are skipped and the result is the generalized inverse
        k = np.searchsorted(self._cdf, t, side="left")
        k = np.clip(k, 1, self._cdf.size - 1)
        x0, x1 = self._grid[k - 1], self._grid[k]
        f0 = self._cdf[k - 1]
        w = (t - f0) / (self._cdf[k] - f0)
        # w <= 1, but x0 + (x1 - x0) can round one ulp past x1
        return np.minimum(x0 + w * (x1 - x0), x1)

    @property
    def mean(self):
        return self._mean

    @property
    def second_moment(self):
        return self._m2

    def __eq__(self, other):
        if not isinstance(other, Kde):
            return NotImplemented
        return (self._bandwidth == other._bandwidth
                and np.array_equal(self._sample, other._sample))

    def __hash__(self):
        # content hash; the object is immutable and eq compares the same data
        return self._hash

    def __repr__(self):
        return f"Kde(n={self._sample.size}, bandwidth={self._bandwidth:.6g})"


def _reflected_density(sample, grid, h):
    n = sample.size
    size = grid.size
    dx = grid[1] - grid[0]
    # linear binning conserves total weight exactly
    pos = (sample - grid[0]) / dx
    idx = np.clip(np.floor(pos).astype(int), 0, size - 2)
    frac = pos - idx
    weights = np.zeros(size)
    np.add.at(weights, idx, 1.0 - frac)
    np.add.at(weights, idx + 1, frac)

    radius = int(math.ceil(8.0 * h / dx))
    offsets = np.arange(-radius, radius + 1) * dx
    kernel = np.exp(-0.5 * (offsets / h) ** 2) / (h * _SQRT_2PI)
    full = np.convolve(weights, kernel)

    # mirror-fold everything back onto grid indices 0..size-1
    virtual = np.arange(-radius, size + radius)
    period = 2 * (size - 1)
    folded = np.mod(virtual, period)
    folded = np.where(folded > size - 1, period - folded, folded)
    density = np.zeros(size)
    np.add.at(density, folded, full)
    # a boundary point is its own mirror image on every bounce, so the
    # folded value there counts twice
    density[0] *= 2.0
    density[-1] *= 2.0
    return density / n


def _merged_knots(a, b):
    # np.union1d's sort-and-compare path, without the numpy.ma import that
    # np.unique makes on its first call
    t = np.sort(np.concatenate((a, b)))
    keep = np.empty(t.size, dtype=bool)
    keep[:1] = True
    np.not_equal(t[1:], t[:-1], out=keep[1:])
    return t[keep]


def _closed_cross_moment(d1, d2):
    if isinstance(d1, Degenerate) or isinstance(d2, Degenerate):
        return 0.0
    if d1 == d2:
        return d1.second_moment
    pair = {type(d1), type(d2)}
    if pair == {Uniform, Triangular}:
        tri = d1 if isinstance(d1, Triangular) else d2
        # integral of (2t-1) against the triangular quantile, in closed form
        return (7.0 + tri.mode ** 2) / 30.0
    if pair <= {Kde, Uniform}:
        # both quantiles are linear between the merged cdf knots, so the
        # two-point Gauss rule is exact there; its nodes are interior, clear
        # of the jump a quantile makes where the cdf is flat
        t = _merged_knots(*(d._cdf if isinstance(d, Kde) else (0.0, 1.0) for d in (d1, d2)))
        half = 0.5 * np.diff(t)
        nodes = (t[:-1] + half * (1.0 - _GAUSS2), t[:-1] + half * (1.0 + _GAUSS2))
        return float(np.sum(half * sum(d1._quantile(x) * d2._quantile(x) for x in nodes)))
    return None


_CROSS_MOMENT_TOL = 1e-9

# the cross-moment grid: equal panels, a coarser copy for the error check,
# and a grading towards both ends, where quantiles are often singular
_TABLE_PANELS = 192
_CHECK_PANELS = 96
_TABLE_GRADING = (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 3e-2)
_TABLE_CUTS = frozenset(_TABLE_GRADING) | {1.0 - g for g in _TABLE_GRADING}


@functools.lru_cache(maxsize=256)
def _quantile_table(dist, panels, cuts):
    """Half-widths of the panels of ``fixed_grid(panels, cuts)`` and the
    quantiles of ``dist`` at its nodes, one row of 32 per panel; cached."""
    half, nodes = fixed_grid(panels, cuts)
    return half, dist._quantile(nodes.ravel()).reshape(nodes.shape)


@functools.lru_cache(maxsize=4096)
def _cached_cross_moment(d1, d2):
    # the rule is symmetric bit for bit, so both orders share one evaluation
    if hash(d2) < hash(d1):
        return _cached_cross_moment(d2, d1)
    # a Kde quantile kinks at every interior cdf knot; breakpoints() leaves
    # them out so that they stay off the oracle's grid
    knots = [d._cdf[1:-1].tolist() for d in (d1, d2) if isinstance(d, Kde)]
    cuts = tuple(sorted(_TABLE_CUTS.union(d1.breakpoints(), d2.breakpoints(), *knots)))
    # a grid cut at a Kde's knots serves this pair alone, and its tables hold
    # about 4.2k x 32 floats (1.1 MB) each, so they are built but not cached
    table = _quantile_table.__wrapped__ if knots else _quantile_table

    def rule(panels):
        half, q1 = table(d1, panels, cuts)
        return float(half @ ((q1 * table(d2, panels, cuts)[1]) @ gauss_weights()))

    value = rule(_TABLE_PANELS)
    error = abs(value - rule(_CHECK_PANELS))
    if not error <= _CROSS_MOMENT_TOL:
        raise NumericFailure(
            f"cross moment of {d1!r} and {d2!r} not resolved: the {_TABLE_PANELS}- "
            f"and {_CHECK_PANELS}-panel rules differ by {error:.1e}")
    return value


def cross_moment(d1, d2, method="auto"):
    """Comonotone product moment: the integral of q1(t) * q2(t) over (0, 1).

    Symmetric in its arguments; equals the second moment when the two
    distributions coincide. ``method`` selects between the closed forms
    known for specific pairs ("closed"), fixed composite Gauss-Legendre
    quadrature of the product of quantile functions ("quadrature"), or
    closed-form-with-fallback ("auto", the default). Any pair of ``Kde``
    and ``Uniform`` is closed. Quadrature is a dot product of the two
    latents' quantile tables on a graded grid cut at their breakpoints and
    at any ``Kde``'s cdf knots. It raises ``NumericFailure`` when the rule
    on half as many panels differs by more than 1e-9, and its results are
    cached per pair.
    """
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"unknown cross_moment method {method!r}")
    if method != "quadrature":
        closed = _closed_cross_moment(d1, d2)
        if closed is not None:
            return closed
        if method == "closed":
            raise DomainError(
                f"no closed-form cross moment for {type(d1).__name__} and "
                f"{type(d2).__name__}")
    return _cached_cross_moment(d1, d2)


def quantile_correlation(d1, d2):
    """Correlation between the two quantile functions, in (0, 1]."""
    v1, v2 = d1.variance, d2.variance
    if v1 <= 0.0 or v2 <= 0.0:
        raise NumericFailure("zero-variance latent")
    return (cross_moment(d1, d2) - d1.mean * d2.mean) / math.sqrt(v1 * v2)


def microdata_quantile(c, r, dist, t):
    """Quantile of the microdata in the interval with centre c and range r."""
    if r < 0.0:
        raise DomainError("range must be non-negative")
    q = dist.quantile(t)
    return c + 0.5 * r * np.asarray(q) if np.ndim(t) else c + 0.5 * r * q


# the JSON tag of each family; a parametric family's spec holds its fields,
# and a Kde's holds the path of its sample file and its bandwidth
_FAMILIES = {
    "uniform": Uniform,
    "triangular": Triangular,
    "inverted_triangular": InvertedTriangular,
    "truncated_normal": TruncatedNormal,
    "shifted_beta": ShiftedBeta,
    "kde": Kde,
    "degenerate": Degenerate,
}


def latent_to_dict(dist, sample_path=None):
    """JSON-ready dict for a latent specification.

    Kernel-density latents reference their sample through ``sample_path``;
    the caller is responsible for writing the sample file itself.
    """
    tag = next((tag for tag, cls in _FAMILIES.items() if type(dist) is cls), None)
    if tag is None:
        raise DomainError(f"cannot serialize latent of type {type(dist).__name__}")
    if tag == "kde":
        if sample_path is None:
            raise DomainError("kde serialization requires sample_path")
        return {"family": tag, "sample_path": str(sample_path),
                "bandwidth": dist.bandwidth}
    return {"family": tag, **dist._asdict()}


def latent_from_dict(spec, base_dir="."):
    """Rebuild a latent distribution from its JSON dict.

    A malformed spec raises ``DataValidationError``; a well-formed parameter
    outside its family's domain raises ``DomainError``.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise DataValidationError("latent spec must be a dict with a 'family' key")
    family = spec["family"]
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise DataValidationError(f"unknown latent family {family!r}")
    try:
        if cls is Kde:
            sample = np.loadtxt(Path(base_dir) / spec["sample_path"], ndmin=1)
            return Kde(sample, bandwidth=spec.get("bandwidth"))
        return cls(**{name: float(spec[name] if name not in cls._defaults
                                  else spec.get(name, cls._defaults[name]))
                      for name in cls._fields})
    except KeyError as exc:
        raise DataValidationError(f"latent spec missing field {exc}") from exc
    except IvdaError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"malformed {family!r} latent spec: {exc}") from exc
