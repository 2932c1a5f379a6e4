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
its fit (``fit_kde``), the moment arrays of the column engine
(``_latent_moments``) and the JSON (de)serialisation: what the ``fit``,
``distance`` and ``covariance`` stages of a chain on ``Kde`` latents run.
The other names of ``__all__`` (the parametric families, the cross moments
and ``microdata_quantile``) load on first access from the module that
``ivda._DEFINED_IN`` names.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from . import _load
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


def __getattr__(name):
    return _load(__name__, name)


class LatentDistribution:
    """Base class for latent weight distributions with support [-1, 1].

    A parametric family is a ``Frozen`` value whose fields are its
    parameters; ``_defaults`` holds the default of each optional one, which
    a JSON spec may leave out.
    """

    __slots__ = ()
    _defaults = {}
    # the t values, 0 and 1 among them, between which the quantile is
    # linear, or None; (0.0, 1.0) alone marks the uniform's 2t - 1 or, with
    # a zero second moment, the point mass at 0
    _linear_knots = None

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

    def _uniform_cross_moment(self):
        """The cross moment with ``Uniform`` in closed form, where known."""
        return None


class Uniform(LatentDistribution, Frozen):
    """Continuous uniform weight on [-1, 1]."""

    __slots__ = ()
    _linear_knots = (0.0, 1.0)

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
    _linear_knots = (0.0, 1.0)

    def _quantile(self, t):
        return np.zeros_like(t)

    @property
    def mean(self):
        return 0.0

    @property
    def second_moment(self):
        return 0.0


def _latent_moments(latents):
    """(psi, delta) arrays: each latent's mean and second moment over four.

    The one place the vectorised forms read latent moments; the published
    scalar forms read them from the latents directly.
    """
    psi = np.array([lat.mean for lat in latents], dtype=float)
    delta = np.array([lat.second_moment for lat in latents], dtype=float) / 4.0
    return psi, delta


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
    ``Kde`` or a ``Uniform`` are exact finite sums on the grid, so
    ``cross_moment`` gives those pairs in closed form.

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
        self._cdf = self._linear_knots = cdf / cdf[-1]
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
            path = Path(base_dir) / spec["sample_path"]
            try:
                with warnings.catch_warnings():
                    # numpy warns on a file without values, which is refused below
                    warnings.simplefilter("ignore")
                    sample = np.loadtxt(path, ndmin=2)
            except ValueError as exc:
                from ._kde_file import _refused_sample

                sample = _refused_sample(path, exc)
            if sample.shape[1] != 1 or not len(sample):
                raise DataValidationError(f"kde sample file {path} must hold one value on "
                                          "each line, and at least one value")
            return Kde(sample[:, 0], bandwidth=spec.get("bandwidth"))
        return cls(**{name: float(spec[name] if name not in cls._defaults
                                  else spec.get(name, cls._defaults[name]))
                      for name in cls._fields})
    except KeyError as exc:
        raise DataValidationError(f"latent spec missing field {exc}") from exc
    except IvdaError:
        raise
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"malformed {family!r} latent spec: {exc}") from exc
