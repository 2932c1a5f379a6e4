"""A double-exponential (tanh-sinh) quadrature rule on numpy alone: the tests'
reference for integrals over [0, 1], independent of the library's fixed grid.

The substitution t = (a + b)/2 + (b - a)/2 * tanh(pi/2 * sinh(s)) sends the
nodes towards both ends of a panel [a, b] doubly exponentially fast, so an
integrand that is smooth inside the panel and singular at its ends still
converges quickly (Takahasi and Mori 1974; Mori and Sugihara 2001). Each node
is built from its distance to the nearer end, so the nodes next to an end keep
their digits.
"""

import math

import numpy as np

# the rule's half-width in s: at s = 4 a node lies 1e-37 of the panel from its end
_S_MAX = 4.0
# a panel halves its step in s, from 1/8 to at most 1/4096, until two levels
# agree within _TOL
_TOL = 1e-14
_LEVELS = range(3, 13)


def _panel(f, a, b):
    previous = None
    for level in _LEVELS:
        h = 2.0 ** -level
        s = np.arange(int(_S_MAX / h) + 1) * h
        u = 0.5 * math.pi * np.sinh(s)
        gap = (b - a) / (np.exp(2.0 * u) + 1.0)      # distance to the nearer end
        weight = 0.25 * math.pi * (b - a) * h * np.cosh(s) / np.cosh(u) ** 2
        nodes = np.concatenate((a + gap, b - gap[1:]))
        weights = np.concatenate((weight, weight[1:]))
        inside = (nodes > a) & (nodes < b)          # a node rounded onto an end drops
        total = math.fsum(weights[inside] * f(nodes[inside]))
        if previous is not None and abs(total - previous) <= _TOL:
            return total
        previous = total
    raise AssertionError(f"tanh-sinh did not converge on [{a}, {b}]: its last two "
                         f"levels differ by {abs(total - previous):.3g}")


def tanh_sinh(f, breakpoints=()):
    """Integral of the vectorised ``f`` over [0, 1], one panel between each two
    breakpoints; a panel whose levels never agree raises AssertionError."""
    edges = sorted({0.0, 1.0, *breakpoints})
    return math.fsum(_panel(f, a, b) for a, b in zip(edges, edges[1:]))


def comonotone_moment(d1, d2):
    """E[U1 U2] under the comonotone coupling, the integral of q1(t) q2(t),
    split at both latents' breakpoints."""
    return tanh_sinh(lambda t: d1.quantile(t) * d2.quantile(t),
                     (*d1.breakpoints(), *d2.breakpoints()))
