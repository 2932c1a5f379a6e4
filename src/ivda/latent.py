"""Latent microdata distributions on [-1, 1].

Every interval observation carries a latent weight describing where the
microdata sit between the endpoints: a value v inside the interval with
centre c and range r is v = c + u * r / 2 with u in [-1, 1]. The families
here expose the quantile function and the first two moments, which is all
the distance and covariance machinery downstream needs.

Quantile functions are vectorized over numpy arrays and pure: once built, a
distribution never mutates (the kernel-density family precomputes its
density at construction), so values are safe to share across threads.

This module owns the base class, ``Uniform``, ``Degenerate``, ``Kde`` with
its fit (``fit_kde``), the closed-form cross moments, the dispatch of
``cross_moment`` and the JSON (de)serialisation: everything a chain on
``Kde`` latents runs. ``Triangular``, ``InvertedTriangular``,
``TruncatedNormal``, ``ShiftedBeta`` and the table rule for the cross
moments without a closed form live in ``ivda._families``, which loads on
the first use of one of them; they still resolve as names of this module.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ._value import Frozen
from .errors import DataValidationError, DomainError, IvdaError, NumericFailure

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
    "fit_kde",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_GAUSS2 = 1.0 / math.sqrt(3.0)

# the families that ivda._families defines, loaded on first use
_IN_FAMILIES = ("Triangular", "InvertedTriangular", "TruncatedNormal", "ShiftedBeta")


def __getattr__(name):
    if name not in _IN_FAMILIES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _families

    return getattr(_families, name)


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
# the most grid steps a Kde's kernel reaches on each side of its centre
_KDE_MAX_RADIUS = 2 ** 19
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

    The kernel reaches eight bandwidths from its centre, so its taps and the
    time to build it grow with the bandwidth. A kernel that would reach more
    than 2^19 grid steps (a bandwidth above about 32, which builds in about
    a second) raises ``DomainError``, as does a bandwidth so small (below
    about 2e-309) that the kernel's peak overflows.
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


def fit_kde(u_samples, bandwidth=None):
    """Reflection-corrected Gaussian kernel density fit to scaled values."""
    u = np.asarray(u_samples, dtype=float).ravel()
    if u.size < 10:
        raise DataValidationError(
            f"kde fit needs at least 10 values, got {u.size}")
    return Kde(u, bandwidth=bandwidth)


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

    reach = 8.0 * h / dx
    if not reach <= _KDE_MAX_RADIUS:
        raise DomainError(
            f"kde bandwidth {h!r} is too wide: its kernel would reach more than "
            f"{_KDE_MAX_RADIUS} grid steps (bandwidths up to {_KDE_MAX_RADIUS * dx / 8.0:.6g})")
    radius = int(math.ceil(reach))
    offsets = np.arange(-radius, radius + 1) * dx
    # far below one grid step, (offsets / h) ** 2 overflows to inf off the
    # centre, where the kernel is zero
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (offsets / h) ** 2) / (h * _SQRT_2PI)
    if not np.isfinite(kernel).all():
        raise DomainError(f"kde bandwidth {h!r} is too small: the kernel's peak overflows")
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
    if pair <= {Kde, Uniform}:
        # both quantiles are linear between the merged cdf knots, so the
        # two-point Gauss rule is exact there; its nodes are interior, clear
        # of the jump a quantile makes where the cdf is flat
        t = _merged_knots(*(d._cdf if isinstance(d, Kde) else (0.0, 1.0) for d in (d1, d2)))
        half = 0.5 * np.diff(t)
        nodes = (t[:-1] + half * (1.0 - _GAUSS2), t[:-1] + half * (1.0 + _GAUSS2))
        return float(np.sum(half * sum(d1._quantile(x) * d2._quantile(x) for x in nodes)))
    # a pair of other families means that their module is loaded already
    from ._families import Triangular

    if pair == {Uniform, Triangular}:
        tri = d1 if isinstance(d1, Triangular) else d2
        # integral of (2t-1) against the triangular quantile, in closed form
        return (7.0 + tri.mode ** 2) / 30.0
    return None


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
    from ._families import _cached_cross_moment

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


# the JSON tag of each family and its class's name; a parametric family's
# spec holds its fields, and a Kde's holds the path of its sample file and
# its bandwidth
_FAMILIES = {
    "uniform": "Uniform",
    "triangular": "Triangular",
    "inverted_triangular": "InvertedTriangular",
    "truncated_normal": "TruncatedNormal",
    "shifted_beta": "ShiftedBeta",
    "kde": "Kde",
    "degenerate": "Degenerate",
}


def _family(tag):
    """The class of the family tagged ``tag``, or None for an unknown tag;
    only a family of ``ivda._families`` loads that module."""
    name = _FAMILIES.get(tag)
    return None if name is None else globals().get(name) or __getattr__(name)


def latent_to_dict(dist, sample_path=None):
    """JSON-ready dict for a latent specification.

    Kernel-density latents reference their sample through ``sample_path``;
    the caller is responsible for writing the sample file itself.
    """
    tag = next((tag for tag, name in _FAMILIES.items() if type(dist).__name__ == name), None)
    if tag is None or _family(tag) is not type(dist):
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
    cls = _family(family) if isinstance(family, str) else None
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
