"""Self-contained special functions for the latent quantile machinery.

Only what the distribution families need: the standard normal cdf/quantile
pair and the regularized incomplete beta function with its inverse. All
functions are vectorized over numpy arrays, accept plain floats, and rely on
the standard library for the underlying transcendentals (``math.erf`` and
friends), so no dependency beyond numpy is introduced.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericFailure

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "norm_ppf",
    "log_beta",
    "betainc",
    "betainc_inv",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# ufunc wrappers keep tail accuracy of the libm implementations
_erfc_u = np.frompyfunc(math.erfc, 1, 1)
_erf_u = np.frompyfunc(math.erf, 1, 1)


def _maybe_scalar(out, like):
    if np.ndim(like) == 0:
        return float(out)
    return out


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return _maybe_scalar(np.exp(-0.5 * x * x) / _SQRT_2PI, x)


def norm_cdf(x):
    """Standard normal distribution function, accurate in both tails."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc_u(-arr / _SQRT2), dtype=float)
    return _maybe_scalar(out, x)


# Acklam's rational approximation of the normal quantile, refined below.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_PPF_SPLIT = 0.02425


def _poly(coeffs, x):
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _ppf_central(r):
    # Acklam's central branch, in the offset r = q - 1/2
    s = r * r
    return r * _poly(_PPF_A, s) / (_poly(_PPF_B, s) * s + 1.0)


def _norm_ppf_offset(r):
    """Phi^{-1}(1/2 + r) for |r| < 1/2 - 0.02425, without forming 1/2 + r.

    Callers whose probability is a small offset from 1/2 keep its full
    relative accuracy this way; the Halley steps use Phi(x) - 1/2 =
    erf(x / sqrt 2) / 2, which has no cancellation either.
    """
    r = np.asarray(r, dtype=float)
    x = _ppf_central(r)
    for _ in range(2):
        err = 0.5 * np.asarray(_erf_u(x / _SQRT2), dtype=float) - r
        u = err * _SQRT_2PI * np.exp(0.5 * x * x)
        x = x - u / (1.0 + 0.5 * x * u)
    return x


def _ppf_lower_half(q):
    # q in (0, 0.5]; result is <= 0
    x = np.empty_like(q)
    tail = q < _PPF_SPLIT
    if np.any(tail):
        u = np.sqrt(-2.0 * np.log(q[tail]))
        x[tail] = _poly(_PPF_C, u) / (_poly(_PPF_D, u) * u + 1.0)
    mid = ~tail
    if np.any(mid):
        x[mid] = _ppf_central(q[mid] - 0.5)
    # two Halley refinements; skipped where exp(x^2/2) would overflow
    for _ in range(2):
        safe = x > -37.0
        xs = x[safe]
        err = 0.5 * np.asarray(_erfc_u(-xs / _SQRT2), dtype=float) - q[safe]
        u = err * _SQRT_2PI * np.exp(0.5 * xs * xs)
        x[safe] = xs - u / (1.0 + 0.5 * xs * u)
    return x


def norm_ppf(p):
    """Standard normal quantile for p in (0, 1).

    Built symmetrically from the lower half so that norm_ppf(p) and
    -norm_ppf(1 - p) agree to machine precision.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise DomainError("norm_ppf requires probabilities in (0, 1)")
    lower = np.minimum(arr, 1.0 - arr)
    x = _ppf_lower_half(np.atleast_1d(lower))
    out = np.where(np.atleast_1d(arr) <= 0.5, x, -x).reshape(arr.shape)
    return _maybe_scalar(out, p)


def log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 300
_INV_TOL = 1e-14     # betainc_inv: relative Newton step tolerance
_INV_MAXIT = 60      # betainc_inv: Newton iteration cap
_INV_FLOOR = 1e-300  # betainc_inv: a root below this is not resolved further


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (Lentz's algorithm).

    Lanes drop out of the working set as soon as their term ratio settles,
    so slow-to-converge lanes near the symmetry threshold do not make the
    whole vector iterate. Lanes still unsettled after ``_CF_MAXIT`` terms
    raise NumericFailure.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
    d = 1.0 / d
    h = d.copy()
    active = np.arange(x.size)
    xa = x.copy()
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * xa / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * xa / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        delt = d * c
        h *= delt
        done = np.abs(delt - 1.0) < _CF_EPS
        if np.all(done):
            break
        if np.any(done):
            out[active[done]] = h[done]
            keep = ~done
            active = active[keep]
            xa = xa[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
    else:
        raise NumericFailure(f"incomplete beta continued fraction ({a}, {b}): "
                             f"{active.size} lanes did not converge in {_CF_MAXIT} terms")
    out[active] = h
    return out


def _betainc_tails(a, b, x):
    """(I_x(a, b), 1 - I_x(a, b)) for x in [0, 1].

    The continued fraction gives I_x directly below (a + 1) / (a + b + 2)
    and its complement above, so each is free of cancellation in its own
    tail; the other of the two is one minus it.
    """
    lb = log_beta(a, b)
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log1p(-x) - lb)
    direct = x < (a + 1.0) / (a + b + 2.0)
    tail = np.empty_like(x)
    if np.any(direct):
        tail[direct] = front[direct] * _betacf(a, b, x[direct]) / a
    swap = ~direct
    if np.any(swap):
        tail[swap] = front[swap] * _betacf(b, a, 1.0 - x[swap]) / b
    tail = np.clip(tail, 0.0, 1.0)
    return np.where(direct, tail, 1.0 - tail), np.where(direct, 1.0 - tail, tail)


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError("betainc requires positive shape parameters")
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).astype(float)
    if flat.size and (np.any(flat < 0.0) or np.any(flat > 1.0)):
        raise DomainError("betainc argument must lie in [0, 1]")
    out = _betainc_tails(a, b, flat)[0].reshape(arr.shape)
    return _maybe_scalar(out, x)


def _betainc_inv_init(a, b, t):
    """Starting point for the inverse: the classic normal approximation for
    a, b >= 1, a power-law tail expansion otherwise, and the exact lower-tail
    power law where it is accurate."""
    # I_x(a, b) = x^a / (a B(a, b)) up to a factor between 1 and
    # (1 - x)^(b - 1); where |b - 1| x is small its root is nearly exact
    with np.errstate(divide="ignore"):
        tail = np.exp((np.log(a * t) + log_beta(a, b)) / a)
    if a >= 1.0 and b >= 1.0:
        pp = np.minimum(t, 1.0 - t)
        u = np.sqrt(-2.0 * np.log(pp))
        x = (2.30753 + u * 0.27061) / (1.0 + u * (0.99229 + u * 0.04481)) - u
        x = np.where(t < 0.5, -x, x)
        al = (x * x - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = (x * np.sqrt(al + h) / h
             - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0))
             * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        with np.errstate(over="ignore"):
            x = a / (a + b * np.exp(2.0 * w))
        # for b >= 1 the power law's root is a lower bound on x
        start = np.maximum(x, tail)
    else:
        lna = math.log(a / (a + b))
        lnb = math.log(b / (a + b))
        u = math.exp(a * lna) / a
        w = math.exp(b * lnb) / b
        s = u + w
        with np.errstate(over="ignore"):
            low = np.power(np.maximum(a * s * t, 0.0), 1.0 / a)
            high = 1.0 - np.power(np.maximum(b * s * (1.0 - t), 0.0), 1.0 / b)
        start = np.where(t < u / s, low, high)
    return np.where(abs(b - 1.0) * tail < 0.1, tail, start)


def betainc_inv(a, b, t):
    """Inverse of the regularized incomplete beta, by safeguarded Newton.

    Solves I_x(a, b) = t for x in [0, 1]; bisection brackets guarantee
    progress, Newton steps from a tail-aware starting point give the final
    1e-12-level accuracy in a handful of iterations. For t > 1/2 the
    residual is 1 - I_x against 1 - t, so it does not cancel in the upper
    tail, and the residual stop is relative to min(t, 1 - t). A lane still
    moving after ``_INV_MAXIT`` steps raises NumericFailure.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError("betainc_inv requires positive shape parameters")
    arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(arr).astype(float)
    if flat.size and (np.any(flat < 0.0) or np.any(flat > 1.0)):
        raise DomainError("betainc_inv argument must lie in [0, 1]")
    out = np.empty_like(flat)
    zero = flat == 0.0
    one = flat == 1.0
    inner = ~(zero | one)
    out[zero] = 0.0
    out[one] = 1.0
    if np.any(inner):
        ti = flat[inner]
        upper = ti > 0.5
        tail = np.where(upper, 1.0 - ti, ti)    # min(t, 1 - t), exactly
        lo = np.zeros_like(ti)
        hi = np.ones_like(ti)
        x = np.clip(_betainc_inv_init(a, b, ti), _INV_FLOOR, 1.0 - 1e-16)
        lb = log_beta(a, b)
        active = np.arange(ti.size)
        for _ in range(_INV_MAXIT):
            xa = x[active]
            ta = tail[active]
            p, q = _betainc_tails(a, b, xa)
            f = np.where(upper[active], ta - q, p - ta)     # I_x - t
            below = f < 0.0
            lo[active] = np.where(below, xa, lo[active])
            hi[active] = np.where(below, hi[active], xa)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                logpdf = (a - 1.0) * np.log(xa) + (b - 1.0) * np.log1p(-xa) - lb
                xn = xa - f * np.exp(-logpdf)
            # a lane whose residual or step has hit the floating-point floor,
            # or whose root lies below _INV_FLOOR, is done at xa; it must not
            # fall into the bisection fallback
            done = (np.abs(f) <= 1e-15 * ta) | (np.abs(xn - xa) <= _INV_TOL * xa) \
                | ((xa <= _INV_FLOOR) & (f > 0.0))
            bad = ~done & (~np.isfinite(xn) | (xn <= lo[active]) | (xn >= hi[active]))
            xn = np.where(bad, 0.5 * (lo[active] + hi[active]), xn)
            xn = np.where(done, xa, xn)
            delta = np.abs(xn - xa)
            x[active] = xn
            still = ~done & (delta > _INV_TOL * xn)
            if not np.any(still):
                break
            active = active[still]
        else:
            raise NumericFailure(f"betainc_inv({a}, {b}): {active.size} lanes did not "
                                 f"converge in {_INV_MAXIT} Newton steps")
        out[inner] = x
    out = out.reshape(arr.shape)
    return _maybe_scalar(out, t)
