"""Squared Mallows (L2 Wasserstein) distances between intervals and boxes.

The distance between two interval observations is the L2 distance between
the quantile functions of their microdata. With the latent-weight model this
collapses to closed forms in the centres, ranges, and the first two moments
of the latent weights; ``oracle_dist_sq`` integrates the defining quantile
integral directly and serves as the independent check on every closed form.

The published forms are scalar functions of one pair. ``distance_matrix``
and the barycentre's Frechet variance instead run one column engine on
column-major (centres, ranges) arrays: each column shares one latent, so it
adds dc^2 + E[U] dc dr + E[U^2]/4 dr^2 to every squared distance, evaluated
in place in ``dist_sq_iid``'s operation order and summed in
``dist_sq_box``'s column order, which makes every entry bitwise equal to
the scalar form's. The matrix is symmetric bit for bit, so only its upper
triangle is computed, in fixed row blocks that threads may share out, and
mirrored; the block size does not depend on the thread count, so neither do
the results. A squared distance that overflows raises ``NumericFailure``
rather than being clamped to zero or returned as infinity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._value import Frozen
from .errors import DomainError, NumericFailure
from .latent import _quantile_table, cross_moment
from .quadrature import gauss_weights

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
        rho = (cross_moment(u1, u2) - u1.mean * u2.mean) / math.sqrt(v1 * v2)
        value += 2.0 * s1 * s2 * (1.0 - rho)
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


def _oracle_grid(u1, u2):
    """Half-widths of the oracle grid's panels for two latents, and each
    latent's (cached) quantiles at its nodes, one row of 32 per panel."""
    cuts = tuple(sorted(_ORACLE_CUTS.union(u1.breakpoints(), u2.breakpoints())))
    half, q1 = _quantile_table(u1, _ORACLE_PANELS, cuts)
    return half, q1, _quantile_table(u2, _ORACLE_PANELS, cuts)[1]


def oracle_dist_sq(x1, u1, x2, u2):
    """Direct quadrature of the defining integral of the squared distance.

    Integrates (F1^{-1}(t) - F2^{-1}(t))^2 on the oracle grid: 256 equal
    panels, extra cuts at the latent quantile breakpoints and a graded mesh
    near both endpoints where square-root behaviour is common. This is the
    independent verification oracle for the closed forms above.
    """
    half, q1, q2 = _oracle_grid(u1, u2)
    c1, r1 = x1.centre, x1.range
    c2, r2 = x2.centre, x2.range
    diff = (c1 - c2) + 0.5 * (r1 * q1 - r2 * q2)
    return float(np.sum(half * ((diff * diff) @ gauss_weights())))


def _latent_moments(latents):
    """(psi, delta) arrays: each latent's mean and second moment over four.

    The one place the vectorised forms read latent moments; the published
    scalar forms read them from the latents directly.
    """
    psi = np.array([lat.mean for lat in latents], dtype=float)
    delta = np.array([lat.second_moment for lat in latents], dtype=float) / 4.0
    return psi, delta


class MomentSummary(Frozen):
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
        latents = tuple(latents)
        if any(lat is None for lat in latents):
            raise DomainError("every dimension needs a latent distribution")
        psi, delta = _latent_moments(latents)
        euu = np.diag(4.0 * delta)
        for i, j in itertools.combinations(range(len(latents)), 2):
            euu[i, j] = euu[j, i] = cross_moment(latents[i], latents[j])
        return cls(psi=psi, delta=delta, euu=euu)

    @property
    def p(self):
        return self.psi.size

    @property
    def variances(self):
        return 4.0 * self.delta - self.psi ** 2


class MahalanobisForm(Frozen):
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


def iso_distance_set(x0, delta, radius, n_points=256):
    """Points (c, r) at the given distance from ``x0`` under a symmetric
    shared latent with range weight ``delta``: an ellipse with centre
    (c0, r0), c semi-axis ``radius`` and r semi-axis ``radius / sqrt(delta)``,
    clipped to non-negative ranges."""
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    if n_points < 4:
        raise DomainError("n_points must be at least 4")
    theta = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    c = x0.centre + radius * np.cos(theta)
    r = np.maximum(x0.range + (radius / math.sqrt(delta)) * np.sin(theta), 0.0)
    return np.column_stack([c, r])


# rows per distance-matrix block: a fixed size bounds the temporaries at
# a few _ROW_BLOCK x n buffers and keeps results independent of the threads
_ROW_BLOCK = 64


def _dist_sq_columns(c1, r1, c2, r2, psi, delta):
    """Shared-latent squared distances summed over the leading (column) axis.

    ``(c1, r1)`` and ``(c2, r2)`` are column-major centres and ranges: index
    j of the leading axis is column j, and the other axes broadcast against
    each other; ``psi`` and ``delta`` come from ``_latent_moments``. Five
    buffers of the broadcast shape are allocated once, and each column runs
    ``dist_sq_iid``'s operations in place and in its order,
    ``(dc*dc + (delta*dr)*dr) + (psi*dc)*dr`` (delta is exactly 0.25 * second
    moment), is clamped at zero and is added left to right as in
    ``dist_sq_box``, so entries match them bitwise. A squared distance that
    is not finite raises ``NumericFailure``.
    """
    shape = np.broadcast_shapes(c1.shape[1:], c2.shape[1:])
    dc, dr, scratch, value = (np.empty(shape) for _ in range(4))
    total = np.zeros(shape)
    # an overflow is reported once, as a NumericFailure, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(psi.size):
            np.subtract(c1[j], c2[j], out=dc)
            np.subtract(r1[j], r2[j], out=dr)
            np.multiply(dc, dc, out=value)
            np.multiply(dr, delta[j], out=scratch)
            scratch *= dr
            value += scratch
            np.multiply(dc, psi[j], out=scratch)
            scratch *= dr
            value += scratch
            # value is never -0.0 (dc*dc is not), so this is dist_sq_iid's clamp
            np.maximum(value, 0.0, out=value)
            total += value
    if not np.isfinite(total).all():
        raise NumericFailure("squared distance is not finite: the data overflow")
    return total


def distance_matrix(frame, threads=1):
    """n x n matrix of (non-squared) pairwise Mallows distances.

    Only the upper triangle is computed: the row block ``[s, s + _ROW_BLOCK)``
    runs against rows ``s ... n-1``, its square roots go into those rows and
    their transpose into the mirrored columns. Negating dc and dr leaves
    every term bitwise unchanged, so each mirrored entry is the one the
    scalar ``dist_sq_box`` loop gives. ``threads > 1`` shares the fixed
    blocks out; each block writes its own cells, so the matrix is bitwise
    the same for every thread count.
    """
    c, r = frame.checked_centres_ranges()
    psi, delta = _latent_moments(frame.latents)
    ct, rt = np.ascontiguousarray(c.T), np.ascontiguousarray(r.T)
    n = frame.n
    out = np.empty((n, n))

    def fill_block(start):
        rows = slice(start, start + _ROW_BLOCK)
        sq = _dist_sq_columns(ct[:, rows, None], rt[:, rows, None],
                              ct[:, None, start:], rt[:, None, start:], psi, delta)
        np.sqrt(sq, out=out[rows, start:])
        out[start:, rows] = out[rows, start:].T

    starts = range(0, n, _ROW_BLOCK)
    if threads > 1 and len(starts) > 1:
        # imported here: the pool's module loads logging and queue, which a
        # single-threaded run never needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill_block, starts))
    else:
        for start in starts:
            fill_block(start)
    return out
