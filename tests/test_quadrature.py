import numpy as np
import pytest

from ivda.errors import DomainError
from ivda.quadrature import _NODES, fixed_grid, gauss_weights, integrate

from conftest import fixed_rule


def test_polynomial_exactness():
    # 32-node panels are exact far beyond cubic
    assert integrate(lambda t: 3.0 * t ** 2) == pytest.approx(1.0, abs=1e-14)
    assert integrate(lambda t: t ** 7, 0.0, 2.0) == pytest.approx(32.0, rel=1e-14)


def test_kinked_integrand_with_breakpoint():
    f = lambda t: np.abs(t - 1.0 / 3.0)
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    assert integrate(f, breakpoints=(1.0 / 3.0,)) == pytest.approx(exact, abs=1e-14)
    # without the cut, adaptivity still gets there within tolerance
    assert integrate(f, tol=1e-10) == pytest.approx(exact, abs=1e-9)


def test_sqrt_endpoint_behaviour():
    assert integrate(np.sqrt, tol=1e-11) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_fixed_panels():
    assert fixed_rule(lambda t: t * t, panels=16) == pytest.approx(1.0 / 3.0, abs=1e-14)
    got = fixed_rule(lambda t: np.abs(t - 0.5), panels=4, breakpoints=(0.5,))
    assert got == pytest.approx(0.25, abs=1e-14)


def test_bad_interval():
    with pytest.raises(DomainError):
        integrate(lambda t: t, 1.0, 0.0)
    with pytest.raises(DomainError):
        fixed_grid(0)


def test_rule_built_on_first_use_is_leggauss_32_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    assert gauss_weights().tobytes() == weights.tobytes()
    assert _NODES.tobytes() == nodes.tobytes()
