"""Composite Gauss-Legendre integration for piecewise-smooth integrands.

Quantile functions are smooth between a handful of breakpoints, so panels
are laid out once by ``fixed_grid``: equal panels on [0, 1], cut again at
the supplied breakpoints. The library's cross moments and both oracles use
that grid. ``integrate`` instead takes every breakpoint segment's first
estimate from one integrand call, then bisects each segment until two
refinement levels agree; no library code calls it, and it is kept for the
benchmark's quadrature probe. Both use one 32-point Gauss-Legendre rule,
written out below as a constant table, so no quadrature imports
``numpy.polynomial`` or runs an eigensolver. The tests' reference is a
tanh-sinh rule of their own. Integrands must be vectorized over numpy
arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["integrate", "fixed_grid", "gauss_weights"]

_MAX_DEPTH = 24


# (node, weight) of the positive half of the 32-point Gauss-Legendre rule,
# each the shortest repr of np.polynomial.legendre.leggauss(32)'s value.
# That rule is exactly symmetric, so mirroring this half gives its arrays
# bit for bit, without loading numpy.polynomial or LAPACK's eigensolver
_HALF_RULE = np.array([
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
])
_NODES = np.concatenate([-_HALF_RULE[::-1, 0], _HALF_RULE[:, 0]])
_WEIGHTS = np.concatenate([_HALF_RULE[::-1, 1], _HALF_RULE[:, 1]])


def gauss_weights():
    return _WEIGHTS


def _panel_nodes(edges):
    # half-widths of the panels between consecutive edges, and their nodes
    half = 0.5 * (edges[1:] - edges[:-1])
    return half, edges[:-1, None] + half[:, None] * (_NODES + 1.0)[None, :]


def _panel_sums(f, half, nodes):
    # one vectorized integrand call across all panels
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return half * (values @ _WEIGHTS)


def _refine(f, a, b, coarse, tol, depth):
    mid = 0.5 * (a + b)
    left, right = _panel_sums(f, *_panel_nodes(np.array([a, mid, b])))
    fine = left + right
    if abs(fine - coarse) <= tol or depth >= _MAX_DEPTH:
        return fine
    half_tol = 0.5 * tol
    return (_refine(f, a, mid, left, half_tol, depth + 1)
            + _refine(f, mid, b, right, half_tol, depth + 1))


def integrate(f, a=0.0, b=1.0, breakpoints=(), tol=1e-9):
    """Adaptive integral of ``f`` over [a, b], panels cut at breakpoints.

    One integrand call gives every segment's starting estimate, then each
    segment is bisected on its own. What the benchmark's quadrature probe
    integrates with; no library path calls it. Bisection stops at depth 24
    without raising.
    """
    if b <= a:
        raise DomainError("integration interval must have positive length")
    edges = np.array([a, *sorted({float(p) for p in breakpoints if a < p < b}), b],
                     dtype=float)
    total = 0.0
    for lo, hi, coarse in zip(edges, edges[1:], _panel_sums(f, *_panel_nodes(edges))):
        total += _refine(f, lo, hi, coarse, tol, 0)
    return total


def fixed_grid(panels, breakpoints=()):
    """Panel half-widths and nodes (one row of 32 per panel) of ``panels``
    equal panels on [0, 1], cut again at every breakpoint inside it."""
    if panels < 1:
        raise DomainError("panels must be a positive integer")
    grid = np.linspace(0.0, 1.0, panels + 1)
    edges = np.array(sorted(set(grid.tolist())
                            | {float(p) for p in breakpoints if 0.0 < p < 1.0}))
    return _panel_nodes(edges)
