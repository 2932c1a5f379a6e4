import numpy as np
import pytest

from ivda import (
    Degenerate,
    IntervalFrame,
    InvertedTriangular,
    Kde,
    ShiftedBeta,
    Triangular,
    TruncatedNormal,
    Uniform,
)
from ivda.quadrature import fixed_grid, gauss_weights

# np.trapz was renamed in numpy 2.0; the package floor is older
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def fixed_rule(f, panels, breakpoints=()):
    """The 32-point rule on ``panels`` equal panels of [0, 1], cut again at
    every breakpoint: a non-adaptive quadrature reference."""
    half, nodes = fixed_grid(panels, breakpoints)
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return float(np.sum(half * (values @ gauss_weights())))


# --- shared random-object builders ----------------------------------------

CHEAP_FAMILIES = ("uniform", "triangular", "inverted_triangular", "truncated_normal")
ALL_FAMILIES = CHEAP_FAMILIES + ("shifted_beta", "kde")


def make_latent(rng, family=None, families=ALL_FAMILIES):
    if family is None:
        family = families[rng.integers(len(families))]
    if family == "uniform":
        return Uniform()
    if family == "triangular":
        return Triangular(float(rng.uniform(-0.95, 0.95)))
    if family == "inverted_triangular":
        return InvertedTriangular()
    if family == "truncated_normal":
        return TruncatedNormal(float(rng.uniform(0.05, 0.5)))
    if family == "shifted_beta":
        return ShiftedBeta(float(rng.uniform(0.4, 4.0)), float(rng.uniform(0.4, 4.0)))
    if family == "kde":
        return Kde(rng.uniform(-1.0, 1.0, size=60))
    if family == "degenerate":
        return Degenerate()
    raise ValueError(family)


def make_interval_arrays(rng, n, p, centre_scale=5.0, range_scale=3.0):
    c = rng.uniform(-centre_scale, centre_scale, size=(n, p))
    r = rng.uniform(0.05, range_scale, size=(n, p))
    return c - 0.5 * r, c + 0.5 * r


def make_frame(rng, n, p, families=CHEAP_FAMILIES):
    lower, upper = make_interval_arrays(rng, n, p)
    names = tuple(f"v{j}" for j in range(p))
    latents = tuple(make_latent(rng, families=families) for _ in range(p))
    return IntervalFrame(lower, upper, names, latents=latents)


def make_mixed_frame(rng, n):
    """One column of each of ALL_FAMILIES plus a zero-range Degenerate one."""
    p = len(ALL_FAMILIES) + 1
    lower, upper = make_interval_arrays(rng, n, p)
    upper[:, -1] = lower[:, -1]
    latents = tuple(make_latent(rng, family) for family in ALL_FAMILIES) + (Degenerate(),)
    return IntervalFrame(lower, upper, tuple(f"v{j}" for j in range(p)), latents=latents)


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


# --- acceptance criterion reporting ---------------------------------------

_CRITERIA = {}


@pytest.fixture(scope="session")
def criteria_log():
    return _CRITERIA


def record_criterion(number, description, status="PASS", detail=""):
    _CRITERIA[number] = (status, description, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        status, description, detail = _CRITERIA[number]
        line = f"{status} criterion {number}: {description}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
