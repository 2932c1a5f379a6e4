"""The column engine: the paper's closed form on arrays of centres, ranges
and latent moments.

``distance_matrix``, the barycentre's Frechet variance and the symbolic
covariance all read the latent moments (psi, delta and, for the covariance,
E_UU) from here, through ``_latent_moments`` and ``MomentSummary``.
``_dist_sq_columns`` runs on column-major (centres, ranges) arrays: each
column shares one latent, so it adds dc^2 + E[U] dc dr + E[U^2]/4 dr^2 to
every squared distance, evaluated in place in ``mallows.dist_sq_iid``'s
operation order and summed in ``mallows.dist_sq_box``'s column order, which
makes every entry bitwise equal to the scalar form's. The distance matrix
is symmetric bit for bit, so only its upper triangle is computed, in fixed
row blocks that threads may share out, and mirrored; the block size does
not depend on the thread count, so neither do the results. A squared
distance that overflows raises ``NumericFailure`` rather than being clamped
to zero or returned as infinity.

``ivda.mallows`` re-exports ``MomentSummary`` and ``distance_matrix`` beside
the published scalar forms; the ``distance`` and ``covariance`` commands
load this module and not that one.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._value import Frozen
from .errors import DomainError, NumericFailure
from .latent import cross_moment

__all__ = ["MomentSummary", "distance_matrix"]


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
