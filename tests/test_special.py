"""The numpy-only numerics give scipy's bits: ndtr, erfc, Hurwitz zeta and the real FFTs.

scipy is the reference here; the runtime loads none of it on Gaussian runs.
Every comparison is for exact equality.
"""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.special

from fieldkde.fourier import irfftn, next_fast_len, rfftn
from fieldkde.special import erfc, ndtr, zeta


def _same(a, b):
    """Equal values, NaN where NaN, and the same sign on zeros."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


# the sqrt(1/2) switch of ndtr, the erfc switches at 1 and 8 and the MAXLOG
# underflow of exp(-x^2), in erfc's argument and in ndtr's (sqrt(2) times
# larger: |x| near 37.68 for the underflow), the infinities and NaN
_SWITCHES = np.array([math.sqrt(0.5), 1.0, 8.0, math.sqrt(709.782712893384)])
_EDGE = np.concatenate([_SWITCHES, math.sqrt(2.0) * _SWITCHES])
BRANCH_POINTS = np.concatenate([
    [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan],
    [s * np.nextafter(e, lim) for e in _EDGE for s in (1.0, -1.0) for lim in (0.0, e, np.inf)],
    np.linspace(37.6, 37.8, 201), -np.linspace(37.6, 37.8, 201), [38.5, -38.5, 1e300, -1e300, 5e-324],
])


class TestNdtr:
    def test_million_values(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([
            rng.standard_normal(400_000),
            4.0 * rng.standard_normal(300_000),
            rng.uniform(-40.0, 40.0, 300_000),
            rng.uniform(-1.5, 1.5, 50_000),
        ])
        assert _same(ndtr(x), scipy.special.ndtr(x))

    def test_branch_points(self):
        assert _same(ndtr(BRANCH_POINTS), scipy.special.ndtr(BRANCH_POINTS))
        assert _same(erfc(BRANCH_POINTS), scipy.special.erfc(BRANCH_POINTS))

    def test_erfc_values(self):
        x = np.random.default_rng(13).uniform(-30.0, 30.0, 200_000)
        assert _same(erfc(x), scipy.special.erfc(x))

    def test_scalars_stay_scalars(self):
        assert ndtr(0.3) == scipy.special.ndtr(0.3) and np.ndim(ndtr(0.3)) == 0
        assert erfc(-2.5) == scipy.special.erfc(-2.5) and np.ndim(erfc(-2.5)) == 0


class TestZeta:
    def test_power_moment_grid(self):
        # the arguments _power_moments passes: zeta(2q - k, max(start, 1) + 1), k < d
        for d in (1, 2, 3):
            for q in [d / 2.0 + 0.05, *np.arange(d / 2.0 + 0.25, 6.0, 0.25), 6.0]:
                x = 2.0 * float(q) - np.arange(d)
                for start in (0, 1, 2, 6, 15, 24, 300, 5000):
                    qq = max(start, 1) + 1.0
                    assert _same(zeta(x, qq), scipy.special.zeta(x, qq)), (d, q, start)

    def test_spread_of_arguments(self):
        rng = np.random.default_rng(14)
        x = 1.0 + rng.exponential(2.0, 2000)
        for q in (0.3, 1.0, 2.0, 9.5, 1e3, 1e6, 1e8):
            assert _same(zeta(x, q), scipy.special.zeta(x, q)), q


class TestFourier:
    def test_next_fast_len(self):
        assert [next_fast_len(k) for k in range(1, 10_001)] == [
            scipy.fft.next_fast_len(k, real=True) for k in range(1, 10_001)
        ]

    @pytest.mark.parametrize(
        "d,side,batch", [(1, 259, 8), (1, 4099, 3), (1, 16384, 2), (2, 79, 4), (2, 47, 3), (3, 12, 3), (3, 20, 2)]
    )
    def test_transforms_match_scipy_fft(self, d, side, batch):
        rng = np.random.default_rng(side)
        lattices = rng.standard_normal((batch,) + (side,) * d)
        shape = (next_fast_len(side),) * d
        coeff = rng.standard_normal((5,) * d)
        ours = rfftn(lattices, shape), rfftn(coeff, shape)
        ref = scipy.fft.rfftn(lattices, shape, axes=tuple(range(1, d + 1))), scipy.fft.rfftn(coeff, shape)
        assert np.array_equal(ours[0], ref[0]) and np.array_equal(ours[1], ref[1])
        product = ours[0] * ours[1]
        expected = scipy.fft.irfftn(product, shape, axes=tuple(range(1, d + 1)))
        assert np.array_equal(irfftn(product, shape), expected)
