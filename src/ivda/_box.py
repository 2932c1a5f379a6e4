"""The scalar interval and the box: what the published distance forms of
``ivda.mallows``, the barycentre and the triangular-Pearson fit take.

An interval [a, b] is equivalently carried as its centre (a + b)/2 and range
b - a; the two views round-trip exactly. A Box pairs a p-vector of intervals
with the latent distribution of each dimension, under the frame rule of
``ivda.interval``, which re-exports both classes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._value import Frozen
from .errors import DomainError
from .interval import _MISMATCH

__all__ = ["Interval", "Box"]

# a bound beyond this may make the bounds' sum overflow
_HALF_MAX = 0.5 * sys.float_info.max


class Interval(Frozen):
    """A real closed bounded interval [lower, upper]."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower, upper):
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise DomainError("interval bounds must be finite")
        if lower > upper:
            raise DomainError(f"interval bounds out of order: [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_centre_range(cls, centre, range_):
        if range_ < 0.0:
            raise DomainError("range must be non-negative")
        half = 0.5 * range_
        return cls(centre - half, centre + half)

    @property
    def centre(self):
        lower, upper = self.lower, self.upper
        if abs(lower) <= _HALF_MAX and abs(upper) <= _HALF_MAX:
            return 0.5 * (lower + upper)
        # halving each bound first gives the same bits wherever the sum is
        # finite, and a finite centre where it overflows
        return 0.5 * lower + 0.5 * upper

    @property
    def range(self):
        return self.upper - self.lower


class Box(Frozen):
    """A hyperrectangle: p intervals plus the latent weight per dimension.

    Each dimension obeys the frame rule: its range is zero exactly when its
    latent is ``Degenerate``, else the Box raises a DomainError.
    """

    __slots__ = _fields = ("intervals", "latents")

    def __init__(self, intervals, latents):
        # imported here: reading and writing frames never needs the latents
        from .latent import Degenerate, LatentDistribution

        intervals, latents = tuple(intervals), tuple(latents)
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "latents", latents)
        if len(intervals) < 1:
            raise DomainError("a box needs at least one dimension")
        if len(intervals) != len(latents):
            raise DomainError("one latent distribution is required per dimension")
        for i, (iv, lat) in enumerate(zip(intervals, latents)):
            if not isinstance(iv, Interval):
                raise DomainError(f"dimension {i} is not an Interval")
            if not isinstance(lat, LatentDistribution):
                raise DomainError(f"dimension {i} has no latent distribution")
            # one numpy-scalar comparison per dimension keeps a Box cheap
            if isinstance(lat, Degenerate):
                if iv.range != 0.0:
                    raise DomainError(f"dimension {i}: {_MISMATCH[1]}")
            elif iv.range == 0.0:
                raise DomainError(f"dimension {i}: {_MISMATCH[0]}")

    @property
    def p(self):
        return len(self.intervals)

    @property
    def centres(self):
        return np.array([iv.centre for iv in self.intervals])

    @property
    def ranges(self):
        return np.array([iv.range for iv in self.intervals])

    def as_vector(self):
        """Stacked (centres, ranges) coordinates in R^{2p}."""
        return np.concatenate([self.centres, self.ranges])
