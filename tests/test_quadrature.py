import math

import pytest
from scipy.integrate import quad

from quadrature_reference import adaptive_simpson


def test_cubic_is_exact():
    # Simpson integrates cubics exactly; antiderivative x^4/4 - x^2 + x
    expected = (3.0**4 / 4 - 9 + 3) - (1.0 / 4 - 1 - 1)
    assert adaptive_simpson(lambda x: x**3 - 2 * x + 1, -1.0, 3.0) == pytest.approx(
        expected, abs=1e-13
    )


def test_reversed_limits():
    assert adaptive_simpson(lambda x: x, 2.0, 0.0) == pytest.approx(-2.0, abs=1e-12)


def test_empty_interval():
    assert adaptive_simpson(lambda x: 1e9, 0.5, 0.5) == 0.0


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: math.exp(-x * x / 2), -8.0, 8.0),
        (lambda x: 1.0 / (1.0 + x * x), -5.0, 5.0),
        (lambda x: abs(x) ** 1.5, -1.0, 2.0),
    ],
)
def test_matches_scipy_quad(f, a, b):
    ref, _ = quad(f, a, b, epsabs=1e-12)
    assert adaptive_simpson(f, a, b, tol=1e-10) == pytest.approx(ref, abs=1e-9)
