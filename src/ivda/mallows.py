"""Squared Mallows (L2 Wasserstein) distances between intervals and boxes.

The distance between two interval observations is the L2 distance between
the quantile functions of their microdata. With the latent-weight model this
collapses to closed forms in the centres, ranges, and the first two moments
of the latent weights; ``oracle_dist_sq`` integrates the defining quantile
integral directly and serves as the independent check on every closed form.

This module owns the published forms, which are scalar functions of one
pair, the oracle, ``microdata_quantile``, the quantile function that the
oracle integrates, the Mahalanobis form and the iso-distance ellipse.
``distance_matrix`` (the column engine, which every vectorised form runs)
and ``MomentSummary`` load on first access from the module that
``ivda._DEFINED_IN`` names. The oracle loads the quadrature and the table
of latent quantiles (``ivda.quadrature``, ``ivda._families``) only when it
is called.
"""

from __future__ import annotations

import math

import numpy as np

from . import _load
from ._value import Record
from .errors import DomainError, NumericFailure
from .latent import _latent_moments
from .moments import cross_moment, quantile_correlation

__all__ = [
    "dist_sq_general",
    "dist_sq_musigma",
    "dist_sq_iid",
    "dist_sq_symmetric",
    "dist_sq_box",
    "oracle_dist_sq",
    "MomentSummary",
    "MahalanobisForm",
    "mahalanobis_form",
    "dist_sq_mahalanobis",
    "reduced_vector",
    "iso_distance_set",
    "distance_matrix",
]


def __getattr__(name):
    return _load(__name__, name)


def _clamp(value):
    # rounding can leave a -1e-12-scale residue; keep downstream sqrt safe
    if not math.isfinite(value):
        raise NumericFailure("squared distance is not finite: the data overflow")
    return value if value > 0.0 else 0.0


def dist_sq_general(x1, u1, x2, u2):
    """Squared distance between (interval, latent) pairs, moment form."""
    c1, r1 = x1.centre, x1.range
    c2, r2 = x2.centre, x2.range
    dc = c1 - c2
    e1, m1 = u1.mean, u1.second_moment
    e2, m2 = u2.mean, u2.second_moment
    value = (dc * dc
             + dc * (r1 * e1 - r2 * e2)
             + 0.25 * (r1 * r1 * m1 + r2 * r2 * m2)
             - 0.5 * r1 * r2 * cross_moment(u1, u2))
    return _clamp(value)


def dist_sq_musigma(x1, u1, x2, u2):
    """Same distance through microdata means/standard deviations and the
    quantile correlation; algebraically identical to the moment form."""
    c1, r1 = x1.centre, x1.range
    c2, r2 = x2.centre, x2.range
    mu1 = c1 + 0.5 * r1 * u1.mean
    mu2 = c2 + 0.5 * r2 * u2.mean
    v1, v2 = u1.variance, u2.variance
    s1 = 0.5 * r1 * math.sqrt(max(v1, 0.0))
    s2 = 0.5 * r2 * math.sqrt(max(v2, 0.0))
    value = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
    if s1 > 0.0 and s2 > 0.0:
        value += 2.0 * s1 * s2 * (1.0 - quantile_correlation(u1, u2))
    return _clamp(value)


def dist_sq_iid(x1, x2, latent):
    """Squared distance when both intervals share one latent distribution."""
    dc = x1.centre - x2.centre
    dr = x1.range - x2.range
    value = dc * dc + 0.25 * latent.second_moment * dr * dr + latent.mean * dc * dr
    return _clamp(value)


def dist_sq_symmetric(x1, x2, delta):
    """Squared distance for symmetric iid latents: (dc)^2 + delta (dr)^2."""
    if not (0.0 <= delta <= 0.25):
        raise DomainError("delta must lie in [0, 1/4]")
    dc = x1.centre - x2.centre
    dr = x1.range - x2.range
    return _clamp(dc * dc + delta * dr * dr)


def dist_sq_box(b1, b2):
    """Componentwise sum of univariate squared distances between boxes.

    Dimensions whose latents coincide use the shared-latent form; a mixed
    pair falls back to the general moment form for that dimension.
    """
    if b1.p != b2.p:
        raise DomainError(f"dimension mismatch: {b1.p} vs {b2.p}")
    total = 0.0
    for i in range(b1.p):
        u1, u2 = b1.latents[i], b2.latents[i]
        if u1 == u2:
            total += dist_sq_iid(b1.intervals[i], b2.intervals[i], u1)
        else:
            total += dist_sq_general(b1.intervals[i], u1, b2.intervals[i], u2)
    return _clamp(total)


_ORACLE_PANELS = 256
_ORACLE_GRADING = (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2)
_ORACLE_CUTS = frozenset(_ORACLE_GRADING) | {1.0 - g for g in _ORACLE_GRADING}


def microdata_quantile(c, r, dist, t):
    """Quantile of the microdata in the interval with centre c and range r."""
    if r < 0.0:
        raise DomainError("range must be non-negative")
    q = dist.quantile(t)
    return c + 0.5 * r * np.asarray(q) if np.ndim(t) else c + 0.5 * r * q


def _oracle_grid(u1, u2):
    """Half-widths of the oracle grid's panels for two latents, and each
    latent's quantiles at its nodes, one row of 32 per panel."""
    from ._families import _quantile_tables

    return _quantile_tables(u1, u2, _ORACLE_PANELS, _ORACLE_CUTS)


def oracle_dist_sq(x1, u1, x2, u2):
    """Direct quadrature of the defining integral of the squared distance.

    Integrates (F1^{-1}(t) - F2^{-1}(t))^2 on the oracle grid: 256 equal
    panels, extra cuts at the latent quantile breakpoints and a graded mesh
    near both endpoints where square-root behaviour is common. This is the
    independent verification oracle for the closed forms above.
    """
    from .quadrature import gauss_weights

    half, q1, q2 = _oracle_grid(u1, u2)
    c1, r1 = x1.centre, x1.range
    c2, r2 = x2.centre, x2.range
    diff = (c1 - c2) + 0.5 * (r1 * q1 - r2 * q2)
    return float(np.sum(half * ((diff * diff) @ gauss_weights())))


class MahalanobisForm(Record):
    """The quadratic form that reproduces the squared box distance.

    ``h`` is the full 2p x 2p matrix on stacked (centres, ranges)
    coordinates; for degenerate dimensions its range row and column vanish,
    and ``kept_indices`` names the coordinates of the reduced form actually
    used for distances. ``h_inverse`` and ``q`` exist only when every latent
    is non-degenerate, assembled from the closed block formula.
    """

    __slots__ = _fields = ("h", "kept_indices", "h_inverse", "q")

    def __init__(self, h, kept_indices, h_inverse=None, q=None):
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "kept_indices", kept_indices)
        object.__setattr__(self, "h_inverse", h_inverse)
        object.__setattr__(self, "q", q)

    @property
    def p(self):
        return self.h.shape[0] // 2

    @property
    def h_reduced(self):
        idx = np.asarray(self.kept_indices)
        return self.h[np.ix_(idx, idx)]


def mahalanobis_form(latents):
    """Assemble the quadratic form for a tuple of per-dimension latents."""
    latents = tuple(latents)
    if not latents:
        raise DomainError("at least one latent distribution is required")
    p = len(latents)
    psi, delta = _latent_moments(latents)
    variances = 4.0 * delta - psi ** 2

    h = np.block([[np.eye(p), np.diag(0.5 * psi)], [np.diag(0.5 * psi), np.diag(delta)]])
    live = [i for i in range(p) if variances[i] > 0.0]
    kept = tuple(range(p)) + tuple(p + i for i in live)

    h_inverse = None
    q = None
    if len(live) == p:
        qdiag = 4.0 / variances
        q = np.diag(qdiag)
        # closed block inverse; never a generic numeric inversion
        off = np.diag(-0.5 * psi * qdiag)
        h_inverse = np.block([[np.diag(1.0 + 0.25 * psi ** 2 * qdiag), off], [off, q]])
    return MahalanobisForm(h=h, kept_indices=kept, h_inverse=h_inverse, q=q)


def reduced_vector(box, form):
    """Box coordinates in the kept (centres, live ranges) layout."""
    full = box.as_vector()
    if full.size != form.h.shape[0]:
        raise DomainError("box dimension does not match the quadratic form")
    return full[np.asarray(form.kept_indices)]


def dist_sq_mahalanobis(y1, y2, form):
    """(y1 - y2)' H (y1 - y2) in the kept-coordinate layout."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    k = len(form.kept_indices)
    if y1.shape != (k,) or y2.shape != (k,):
        raise DomainError(f"expected vectors of length {k}")
    dy = y1 - y2
    return _clamp(float(dy @ form.h_reduced @ dy))


# the most points iso_distance_set draws: 16 MB of output
_MAX_ISO_POINTS = 2 ** 20


def iso_distance_set(x0, delta, radius, n_points=256):
    """Points (c, r) at the given distance from ``x0`` under a symmetric
    shared latent with range weight ``delta``: an ellipse with centre
    (c0, r0), c semi-axis ``radius`` and r semi-axis ``radius / sqrt(delta)``,
    clipped to non-negative ranges. ``n_points`` lies in [4, 2**20], else
    ``DomainError``, raised before anything is allocated. A point that is
    not finite raises ``NumericFailure``."""
    # NaN fails the comparison too
    if not 0.0 < delta < math.inf:
        raise DomainError("delta must be a positive finite number")
    if not 0.0 < radius < math.inf:
        raise DomainError("radius must be a positive finite number")
    if n_points < 4:
        raise DomainError("n_points must be at least 4")
    if n_points > _MAX_ISO_POINTS:
        raise DomainError(f"n_points must be at most {_MAX_ISO_POINTS}, got {n_points}")
    theta = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    # an overflow is reported once, as a NumericFailure, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        c = x0.centre + radius * np.cos(theta)
        r = np.maximum(x0.range + (radius / math.sqrt(delta)) * np.sin(theta), 0.0)
    points = np.column_stack([c, r])
    if not np.isfinite(points).all():
        raise NumericFailure("iso-distance set is not finite: the data overflow")
    return points


