"""Self-contained special functions for the latent quantile machinery.

Only what the distribution families need: the standard normal cdf/quantile
pair and the regularized incomplete beta function with its inverse. All
functions are vectorized over numpy arrays and accept plain floats. The
normal quantile is Wichura's AS 241, one rational evaluation per point; the
cdf and the beta functions rely on the standard library's ``math.erfc`` and
``math.lgamma``, so no dependency beyond numpy is introduced.
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

# ufunc wrapper keeps the tail accuracy of the libm implementation
_erfc_u = np.frompyfunc(math.erfc, 1, 1)


def _maybe_scalar(out, like):
    if np.ndim(like) == 0:
        return float(out)
    return out


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    # past |x| of about 1.3e154, x * x overflows, and exp(-inf) = 0 is right
    with np.errstate(over="ignore"):
        return _maybe_scalar(np.exp(-0.5 * x * x) / _SQRT_2PI, x)


def norm_cdf(x):
    """Standard normal distribution function, accurate in both tails."""
    arr = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc_u(-arr / _SQRT2), dtype=float)
    return _maybe_scalar(out, x)


# Wichura's AS 241 (Applied Statistics 37, 1988, 477-484): a rational
# approximation of the normal quantile in each of three regions, each
# accurate to about 1e-16. (numerator, denominator) coefficients, highest
# power first, as in CPython's statistics.NormalDist.inv_cdf.
_PPF_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_PPF_TAIL = (       # sqrt(-log q) in (1.6, 5], in its offset from 1.6
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0))
_PPF_FAR = (        # sqrt(-log q) > 5, in its offset from 5
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))


def _poly(coeffs, x):
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _ratio(coeffs, x):
    num, den = coeffs
    return _poly(num, x) / _poly(den, x)


def _norm_ppf_offset(r):
    """Phi^{-1}(1/2 + r) for |r| <= 0.425, without forming 1/2 + r.

    AS 241's central branch is a function of the offset itself, so callers
    whose probability is a small offset from 1/2 keep its full relative
    accuracy.
    """
    r = np.asarray(r, dtype=float)
    s = 0.180625 - r * r
    return r * _poly(_PPF_CENTRAL[0], s) / _poly(_PPF_CENTRAL[1], s)


def norm_ppf(p):
    """Standard normal quantile for p in (0, 1).

    Built symmetrically from the lower half so that norm_ppf(p) and
    -norm_ppf(1 - p) agree bit for bit.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise DomainError("norm_ppf requires probabilities in (0, 1)")
    q = np.atleast_1d(np.minimum(arr, 1.0 - arr))
    x = np.empty_like(q)            # the lower half's quantile, <= 0
    central = q - 0.5 >= -0.425
    x[central] = _norm_ppf_offset(q[central] - 0.5)
    u = np.sqrt(-np.log(q[~central]))
    x[~central] = -np.where(u > 5.0, _ratio(_PPF_FAR, u - 5.0), _ratio(_PPF_TAIL, u - 1.6))
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
