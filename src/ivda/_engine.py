"""The column engine: the paper's closed form on arrays of centres, ranges
and latent moments.

``distance_matrix``, the barycentre's Frechet variance and the symbolic
covariance all read one set of column quantities: the frame's checked
centres and ranges, which the frame computes once and keeps read-only, and
the latent moments (psi, delta and, for the covariance, E_UU), through
``ivda.latent._latent_moments`` and ``ivda.moments.MomentSummary``.
``_dist_sq_columns`` runs on column-major (centres, ranges) arrays and adds
into a total; the caller passes the total and the work buffers. Each column
shares one latent, so it adds dc^2 + E[U] dc dr + E[U^2]/4 dr^2 to every
squared distance, evaluated in place in ``mallows.dist_sq_iid``'s operation
order and summed in ``mallows.dist_sq_box``'s column order, which makes
every entry bitwise equal to the scalar form's; a column whose latent mean
is exactly 0 skips the mean term and the clamp, which change no bit there.
The distance matrix is symmetric bit for bit, so only its upper triangle is
computed, in fixed row blocks taken in order, and mirrored. A squared
distance that overflows raises ``NumericFailure`` rather than being clamped
to zero or returned as infinity.

``ivda.mallows`` re-exports ``distance_matrix`` beside the published scalar
forms; the ``distance`` command loads this module and not that one, and the
``covariance`` command neither.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure
from .latent import _latent_moments

__all__ = ["distance_matrix"]


# rows per distance-matrix block: a fixed size bounds the buffers at five
# _ROW_BLOCK x n
_ROW_BLOCK = 64


def _dist_sq_columns(c1, r1, c2, r2, psi, delta, total, work):
    """Add shared-latent squared distances, summed over the leading (column)
    axis, into ``total``.

    ``(c1, r1)`` and ``(c2, r2)`` are column-major centres and ranges: index
    j of the leading axis is column j, and the other axes broadcast against
    each other to the shape of ``total``, which the caller zeroes; ``work``
    holds four buffers of that shape, and ``psi`` and ``delta`` come from
    ``_latent_moments``. Each column runs ``dist_sq_iid``'s operations in
    place and in its order, ``(dc*dc + (delta*dr)*dr) + (psi*dc)*dr`` (delta
    is exactly 0.25 * second moment), is clamped at zero and is added left
    to right as in ``dist_sq_box``, so entries match them bitwise. Where psi
    is 0 the last term is a zero added to a sum of two non-negative terms,
    which is neither -0.0 nor below zero, so that term and the clamp are
    skipped: the bits stay, and an overflow still gives inf or NaN. A
    squared distance that is not finite raises ``NumericFailure``.
    """
    dc, dr, scratch, value = work
    # an overflow is reported once, as a NumericFailure, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(psi.size):
            np.subtract(c1[j], c2[j], out=dc)
            np.subtract(r1[j], r2[j], out=dr)
            np.multiply(dc, dc, out=value)
            np.multiply(dr, delta[j], out=scratch)
            scratch *= dr
            value += scratch
            if psi[j] != 0.0:
                np.multiply(dc, psi[j], out=scratch)
                scratch *= dr
                value += scratch
                # value is never -0.0 (dc*dc is not), so this is dist_sq_iid's clamp
                np.maximum(value, 0.0, out=value)
            total += value
    if not np.isfinite(total).all():
        raise NumericFailure("squared distance is not finite: the data overflow")


def distance_matrix(frame, threads=1):
    """n x n matrix of (non-squared) pairwise Mallows distances.

    Only the upper triangle is computed: the row block ``[s, s + _ROW_BLOCK)``
    runs against rows ``s ... n-1``, its square roots go into those rows and
    their transpose into the mirrored columns. Negating dc and dr leaves
    every term bitwise unchanged, so each mirrored entry is the one the
    scalar ``dist_sq_box`` loop gives. The buffers are allocated once and
    the blocks run in order. ``threads`` is accepted and has no effect.
    """
    c, r = frame.checked_centres_ranges()
    psi, delta = _latent_moments(frame.latents)
    ct, rt = np.ascontiguousarray(c.T), np.ascontiguousarray(r.T)
    n = frame.n
    out = np.empty((n, n))
    # the four work buffers and the block's total; a contiguous total sums
    # faster than the strided rows of out
    buffers = np.empty((5, _ROW_BLOCK * n))
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = out[rows, start:]
        *work, total = buffers[:, :block.size].reshape(5, *block.shape)
        total.fill(0.0)
        _dist_sq_columns(ct[:, rows, None], rt[:, rows, None], ct[:, None, start:],
                         rt[:, None, start:], psi, delta, total, work)
        np.sqrt(total, out=block)
        out[start:, rows] = block.T
    return out
