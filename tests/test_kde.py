import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fieldkde import (
    BandwidthSchedule,
    CoefficientModel,
    DensityOracle,
    InnovationModel,
    Seeds,
    asymptotic_variance,
    density_oracle,
    expected_kde,
    kde_estimate,
    kernel_by_name,
)
from fieldkde.cli import main
from fieldkde.innovations import draw_lattice
from fieldkde.field import plan_truncation
from fieldkde.kde import (
    EXP_ZERO_FLOOR,
    KERNEL_REACH,
    LIVE_SITE_SHARE,
    KernelModel,
    _inverted,
    _kernel_sum,
    _kernel_values,
    _reach,
    _windowed_sums,
    sup_abs_normal_diff,
)

from conftest import MASTER_SEED, coupled_pair, generator
from quadrature_reference import adaptive_simpson

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
KERNEL_NAMES = ("epanechnikov", "gaussian", "triangular")

# pure-Python kernels (with the radius they are integrated over) for the reference
# integrals; numpy calls per quadrature node would make the grid tests slow
_REFERENCE_KERNELS = {
    "epanechnikov": (lambda u: 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0, 1.0),
    "gaussian": (lambda u: PHI0 * math.exp(-0.5 * u * u), 12.0),
    "triangular": (lambda u: max(1.0 - abs(u), 0.0), 1.0),
}


def _reference_centering(name, xi, beta, tol=1e-13):
    """int K(u) phi(xi - beta u) du by adaptive Simpson.

    The error is at most ``tol`` times the integrand's peak (which is below
    one), so tail values get relative accuracy too.  The range is cut at the
    kernel's kinks and wherever xi - beta u is an integer, so a peak of phi
    narrower than the first Simpson nodes cannot be stepped over.
    """
    kern, radius = _REFERENCE_KERNELS[name]
    cuts = {-radius, 0.0, radius} | {(xi + k) / beta for k in range(-12, 13)}
    cuts = sorted(c for c in cuts if -radius <= c <= radius)

    def f(u):
        return kern(u) * PHI0 * math.exp(-0.5 * (xi - beta * u) ** 2)

    peak = max(f(u) for u in [*cuts, *np.linspace(-radius, radius, 2001)])
    if peak == 0.0:
        return 0.0
    piece_tol = tol / (len(cuts) - 1)
    pieces = (adaptive_simpson(lambda u: f(u) / peak, lo, hi, piece_tol) for lo, hi in zip(cuts, cuts[1:]))
    return peak * sum(pieces)


def _oracle(v):
    """Exact oracle whose full and truncated marginals are both N(0, v)."""
    peak = 1.0 / math.sqrt(2.0 * math.pi * v)
    return DensityOracle(
        m=1,
        variance=v,
        truncated_variance=v,
        sup_marginal=peak,
        sup_truncated=peak,
        sup_gap=0.0,
        density_regularity="lipschitz-certified",
    )


def _plain_gaussian(u):
    """exp(-u^2/2) / sqrt(2 pi), set to 0.0 exactly where -u^2/2 falls below ``EXP_ZERO_FLOOR``."""
    with np.errstate(over="ignore"):
        w = -0.5 * u * u
        return np.where(w < EXP_ZERO_FLOOR, 0.0, np.exp(w) / math.sqrt(2.0 * math.pi))


class TestKernels:
    @pytest.mark.parametrize("name", ["epanechnikov", "gaussian", "triangular"])
    def test_constants_against_quadrature(self, name):
        k = kernel_by_name(name)
        lim = k.support_radius if math.isfinite(k.support_radius) else 12.0
        mass, _ = quad(lambda u: float(k(u)), -lim, lim)
        rough, _ = quad(lambda u: float(k(u)) ** 2, -lim, lim)
        absmom, _ = quad(lambda u: abs(u) * float(k(u)), -lim, lim)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert rough == pytest.approx(k.roughness, abs=1e-12)
        assert absmom == pytest.approx(k.abs_first_moment, abs=1e-10)

    @pytest.mark.parametrize("name", ["epanechnikov", "gaussian", "triangular"])
    def test_lipschitz_on_grid(self, name):
        k = kernel_by_name(name)
        xs = np.linspace(-2, 2, 4001)
        vals = k(xs)
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        assert np.max(slopes) <= k.lipschitz + 1e-6
        assert np.max(vals) <= k.sup_value + 1e-15
        assert np.all(vals >= 0)

    def test_gaussian_in_place_equals_plain_expression(self):
        k = kernel_by_name("gaussian")
        rng = np.random.default_rng(MASTER_SEED)
        edge = math.sqrt(-2.0 * EXP_ZERO_FLOOR)  # |u| where -u^2/2 meets the floor
        inputs = [
            rng.standard_normal((64, 48)) * 3.0,  # nothing underflows
            rng.standard_normal(4096) * 256.0,  # b = 1/256 scale: most results are 0
            rng.standard_normal((64, 64)) * 64.0,  # 2-D, b = 1/64 scale
            rng.uniform(37.6, 38.6, 512) * rng.choice([-1.0, 1.0], 512),  # across the floor
            np.array([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), -edge]),
            np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0, 1.5, np.nan]),
            np.array([[np.nan, 50.0], [-np.inf, 0.3]]),
        ]
        for u in inputs:
            before = u.copy()
            with np.errstate(over="ignore"):
                got = k(u)
                want = _plain_gaussian(u)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(u, before, equal_nan=True)
        assert k(0.7) == np.exp(-0.5 * 0.7 * 0.7) / math.sqrt(2.0 * math.pi)
        assert k(37.9) == 0.0 and k(-edge) > 0.0 and np.isnan(k(np.nan))

    # the plain numpy expression of each kernel
    PLAIN = {
        "epanechnikov": lambda u: np.where(np.abs(u) > 1.0, 0.0, 0.75 * (1.0 - u * u)),
        "gaussian": lambda u: _plain_gaussian(u),
        "triangular": lambda u: np.maximum(1.0 - np.abs(u), 0.0),
    }

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_into_a_used_buffer_equals_plain_expression(self, name):
        k = kernel_by_name(name)
        one = np.nextafter(1.0, 2.0)
        u = np.concatenate([
            np.random.default_rng(MASTER_SEED).standard_normal(2048) * 2.0,
            [0.0, -0.0, 1.0, -1.0, one, -one, np.nextafter(1.0, 0.0), 5e-324, 1e200, -1e200],
            [np.inf, -np.inf, np.nan, 37.9, -38.5],
        ])
        out = np.full_like(u, 7.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = self.PLAIN[name](u)
            assert k(u, out=out) is out
            fresh = k(u)
        for got in (out, fresh):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_kernel_sum_in_scratch_equals_fresh(self):
        values = np.random.default_rng(5).standard_normal((3, 16, 16))
        scratch = np.full((2,) + values.shape, np.nan)
        for name in KERNEL_NAMES:
            k = kernel_by_name(name)
            want = _kernel_sum(k, 0.25, values, 0.3, (1, 2))
            got = _kernel_sum(k, 0.25, values, 0.3, (1, 2), scratch)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_exp_is_zero_below_the_floor(self):
        # the floor is the least w whose kernel value is a normal double: the
        # Gaussian kernel gives 0.0 below it and never a subnormal
        tiny = np.finfo(float).tiny
        below = np.nextafter(EXP_ZERO_FLOOR, -np.inf)
        assert np.exp(EXP_ZERO_FLOOR) / math.sqrt(2.0 * math.pi) >= tiny
        assert 0.0 < np.exp(below) / math.sqrt(2.0 * math.pi) < tiny
        u = np.sqrt(-2.0 * np.array([EXP_ZERO_FLOOR, below]))
        assert -0.5 * u[0] * u[0] >= EXP_ZERO_FLOOR
        assert list(kernel_by_name("gaussian")(u) >= tiny) == [True, False]


class TestEstimator:
    def test_single_point(self, epanechnikov):
        assert kde_estimate(np.array([0.0]), 0.0, 1.0, epanechnikov) == 0.75

    def test_two_point_gaussian(self):
        k = kernel_by_name("gaussian")
        got = kde_estimate(np.array([-1.0, 1.0]), 0.0, 1.0, k)
        assert got == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-15)

    def test_rejects_bad_bandwidth(self, epanechnikov):
        with pytest.raises(ValueError):
            kde_estimate(np.array([1.0]), 0.0, 0.0, epanechnikov)

    def test_iid_consistency(self, epanechnikov):
        # classical regime: estimate near p(0) within noise + Lipschitz bias
        n = 4096
        b = n ** (-0.2)
        x = draw_lattice(InnovationModel("gaussian"), generator(MASTER_SEED, 21), (n,))
        est = kde_estimate(x, 0.0, b, epanechnikov)
        sigma2 = PHI0 * epanechnikov.roughness
        c0 = PHI0 * math.exp(-0.5)  # sup |phi'|
        allowance = 3 * math.sqrt(sigma2 / (n * b)) + c0 * b * epanechnikov.abs_first_moment
        assert abs(est - PHI0) <= allowance

    def test_integrates_to_one(self, epanechnikov):
        vals = draw_lattice(InnovationModel("gaussian"), generator(MASTER_SEED, 22), (200,))
        b = 0.4
        total = adaptive_simpson(
            lambda x: kde_estimate(vals, x, b, epanechnikov),
            float(vals.min()) - 1.0,
            float(vals.max()) + 1.0,
            1e-9,
        )
        assert total == pytest.approx(1.0, abs=1e-7)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(64)
        k = kernel_by_name("triangular")
        a = kde_estimate(vals, 0.3, 0.5, k)
        b = kde_estimate(rng.permutation(vals), 0.3, 0.5, k)
        assert np.float64(a).view(np.int64) == np.float64(b).view(np.int64)

    def test_a_field_and_its_transpose_give_the_same_bits(self, power_d2):
        n = 64
        plan = plan_truncation(power_d2, m=4, b=1.0 / n)
        field, _ = coupled_pair(power_d2, n, 4, plan, Seeds(MASTER_SEED, 33, [0]))
        xs = np.linspace(-2.5, 2.5, 41)
        for name in KERNEL_NAMES:
            k = kernel_by_name(name)
            a, b = kde_estimate(field, xs, 4.0 / n, k), kde_estimate(field.T, xs, 4.0 / n, k)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_vector_x_matches_scalar_calls(self, epanechnikov):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(300)
        xs = np.linspace(-2, 2, 17)
        batch = kde_estimate(vals, xs, 0.3, epanechnikov)
        single = np.array([kde_estimate(vals, float(x), 0.3, epanechnikov) for x in xs])
        assert np.array_equal(batch, single)


def _two_copy_estimate(kernel, xs, values, b):
    """``kde_estimate`` as it was when it flattened ``values`` and then sorted a second copy."""
    data = np.asarray(values, dtype=float).ravel()
    ordered = np.sort(data)
    reach = _reach(kernel, b)
    lo = np.searchsorted(ordered, xs - reach, side="left")
    hi = np.searchsorted(ordered, xs + reach, side="right")
    sums = np.empty(xs.size)
    for j, xi in enumerate(xs):
        u = xi - ordered[lo[j]:hi[j]]
        u /= b
        sums[j] = kernel(u).sum()
    sums[np.isnan(xs) | np.isnan(ordered[-1])] = np.nan
    return sums / data.size / b


class TestOneSortedCopy:
    """``kde_estimate`` sorts one private copy of the values: the old bits, the caller's array untouched."""

    @pytest.fixture(scope="class")
    def field(self, power_d2):
        n = 128
        plan = plan_truncation(power_d2, m=4, b=1.0 / n)
        return coupled_pair(power_d2, n, 4, plan, Seeds(MASTER_SEED, 35, [0]))[0]

    @pytest.mark.parametrize("view", ["contiguous", "transposed", "strided"])
    def test_bits_of_the_two_copy_estimate_and_the_input_unchanged(self, field, view):
        values = {"contiguous": field, "transposed": field.T, "strided": field[::2, 1::3]}[view]
        before = values.copy()
        xs = np.linspace(-2.5, 2.5, 41)
        for name in KERNEL_NAMES:
            k = kernel_by_name(name)
            got = kde_estimate(values, xs, 4.0 / 128, k)
            assert np.array_equal(got.view(np.int64), _two_copy_estimate(k, xs, values, 4.0 / 128).view(np.int64))
            assert np.array_equal(values.view(np.int64), before.view(np.int64))

    def test_a_strided_field_is_copied_once(self, field):
        import tracemalloc

        values = field.T[::2]  # 8,192 values, no flat view of them
        k = kernel_by_name("epanechnikov")
        kde_estimate(values, 0.0, 1.0 / 128, k)
        tracemalloc.start()
        try:
            kde_estimate(values, 0.0, 1.0 / 128, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * values.nbytes  # twice its bytes when the flat copy was sorted into a second one


@st.composite
def _windowed_cases(draw):
    """(kernel name, data, xs, b) with sites on and near every window edge and non-finite values."""
    name = draw(st.sampled_from(KERNEL_NAMES))
    # 1e-12: every window empty; 1e3: every finite site in reach of every finite x
    b = draw(st.sampled_from([1e-12, 1e3]) | st.floats(1e-6, 10.0))
    xs = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5))
    data = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=30))
    x0, edge = xs[0], min(kernel_by_name(name).support_radius, KERNEL_REACH) * b
    data += [x0 - edge, x0 + edge]  # exactly at the edges of x0's window
    # the Gaussian kernel's subnormal zone
    data += [x0 + sign * u * b for sign, u in draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]),
                                                                     st.floats(37.6, 38.7)), max_size=6))]
    data += draw(st.lists(st.sampled_from(data), max_size=10))  # duplicates
    data += draw(st.lists(st.sampled_from([math.inf, -math.inf]), max_size=2))
    if draw(st.booleans()):
        data.append(math.nan)
    xs += [max(data) + 1.0, min(data) - 1.0]  # beyond the data, where finite
    xs += draw(st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3))
    order = draw(st.permutations(range(len(data))))
    return name, np.array(data)[list(order)], np.array(xs), b


class TestWindowedSums:
    @given(_windowed_cases())
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_the_full_sums(self, case):
        # the bits are those of the window's terms summed in sorted order, and the full sum's to rounding
        name, data, xs, b = case
        k = kernel_by_name(name)
        ordered = np.sort(data)
        reach = _reach(k, b)
        lo = np.searchsorted(ordered, xs - reach, side="left")
        hi = np.searchsorted(ordered, xs + reach, side="right")
        with np.errstate(invalid="ignore", over="ignore"):
            got = _windowed_sums(k, xs, data, b)
            full = np.array([_kernel_sum(k, x, data, b) for x in xs])
            estimate = kde_estimate(data, xs, b, k)
            # the kernel at every sorted site: the window holds every nonzero term
            terms = [_kernel_values(k, x, ordered, b) for x in xs]
        want = np.array([t[i:j].sum() for t, i, j in zip(terms, lo, hi)])
        nan = np.isnan(full)
        for t, i, j, bad in zip(terms, lo, hi, nan):
            assert bad or not (t[:i].any() or t[j:].any())
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)), (got, want, xs)
        assert np.array_equal(got[full == 0.0].view(np.int64), full[full == 0.0].view(np.int64))
        assert np.allclose(got[~nan], full[~nan], rtol=1e-13, atol=0.0)
        assert np.array_equal(estimate, got / data.size / b, equal_nan=True)
        if np.isnan(data).any():
            assert np.isnan(got).all()

    def test_kernel_sees_only_the_sites_in_reach(self, power_d2, monkeypatch):
        n = 128
        b = 1.0 / n
        plan = plan_truncation(power_d2, m=4, b=b)
        field, _ = coupled_pair(power_d2, n, 4, plan, Seeds(MASTER_SEED, 31, [0]))
        xs = np.linspace(-2.5, 2.5, 101)
        k = kernel_by_name("gaussian")
        counted = []
        call = KernelModel.__call__

        def counting(self, u):
            counted.append(np.size(u))
            return call(self, u)

        monkeypatch.setattr(KernelModel, "__call__", counting)
        kde_estimate(field, xs, b, k)
        ordered = np.sort(field.ravel())
        reach = KERNEL_REACH * (1.0 + 1e-9) * b
        windows = np.searchsorted(ordered, xs + reach, side="right") - np.searchsorted(ordered, xs - reach)
        assert counted == windows.tolist()
        assert sum(counted) < 0.15 * field.size * xs.size


def _live_site_values(name, d, share):
    """(values, b): a strided batch of 3 fields of 576 sites in which about ``share`` of them lie in reach of 0.

    Some sites are non-finite, huge, exactly at the reach from 0 or one ulp
    either side of it.
    """
    rng = np.random.default_rng(int(1000 * share) + d)
    side = round(576 ** (1 / d))
    values = rng.standard_normal((3,) + (side + 2,) * d)[(slice(None),) + (slice(2, None),) * d]
    b = NormalDist().inv_cdf(0.5 + share / 2.0) / min(kernel_by_name(name).support_radius, KERNEL_REACH)
    r = _reach(kernel_by_name(name), b)
    special = [np.nan, np.inf, -np.inf, 1e200, -1e200, r, -r]
    special += [np.nextafter(edge, to) for edge in (r, -r) for to in (0.0, 2.0 * edge)]
    sites = rng.choice(values.size, len(special), replace=False)
    values[np.unravel_index(sites, values.shape)] = special
    return values, b


class TestLiveSites:
    """The kernel at the sites in reach alone gives the bits of the kernel at every site."""

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("share", [0.004, 0.1, 0.5])
    def test_bits_equal_the_dense_evaluation(self, monkeypatch, name, d, share):
        k = kernel_by_name(name)
        values, b = _live_site_values(name, d, share)
        axes = tuple(range(1, d + 1))
        for x in (0.0, 0.3, -1e200, np.nan):
            got = {}
            for forced in (0.0, 2.0):  # every site, then the sites in reach alone
                monkeypatch.setitem(LIVE_SITE_SHARE, name, forced)
                scratch = np.full((2,) + values.shape, np.nan)
                with np.errstate(over="ignore", invalid="ignore"):
                    got[forced] = [_kernel_values(k, x, values, b, scratch).copy(), _kernel_values(k, x, values, b),
                                   _kernel_sum(k, x, values, b, axes), _kernel_sum(k, x, values, b, axes, scratch)]
            for dense, live in zip(got[0.0], got[2.0]):
                assert np.array_equal(dense.view(np.int64), live.view(np.int64))
            assert np.isnan(got[0.0][2]).all() == (x != x)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("d", [1, 2])
    def test_the_switch_follows_the_share_in_reach(self, monkeypatch, name, d):
        k = kernel_by_name(name)
        counted = []
        call = KernelModel.__call__

        def counting(self, u, out=None):
            counted.append(np.size(u))
            return call(self, u, out)

        monkeypatch.setattr(KernelModel, "__call__", counting)
        for factor in (0.25, 3.0):
            values, b = _live_site_values(name, d, factor * LIVE_SITE_SHARE[name])
            reach = _reach(k, b)
            live = int(np.count_nonzero(~(np.abs(values) > reach)))
            assert (live < LIVE_SITE_SHARE[name] * values.size) == (factor < 1.0)
            for x, expected in ((0.0, live if factor < 1.0 else values.size), (np.nan, values.size)):
                counted.clear()
                with np.errstate(over="ignore", invalid="ignore"):
                    _kernel_values(k, x, values, b)
                assert counted == [expected]


class TestGaussianSumsOnFields:
    """On power-decay fields at b = 1/n, every Gaussian kernel sum is the sum of the plain expression.

    ``_kernel_sum`` sums it over the whole field, ``_windowed_sums`` over the sorted window in reach.
    """

    @pytest.mark.parametrize("n", [64, 256])
    def test_bits_equal_the_plain_sums(self, monkeypatch, power_d2, n):
        k = kernel_by_name("gaussian")
        b = 1.0 / n
        plan = plan_truncation(power_d2, m=4, b=b)
        field, _ = coupled_pair(power_d2, n, 4, plan, Seeds(MASTER_SEED, 41, [0]))
        xs = np.linspace(-2.5, 2.5, 11)
        w = -0.5 * ((xs[:, np.newaxis] - field.ravel()) / b) ** 2
        # some terms lie where the floor turns a subnormal kernel value into 0.0
        assert np.any((w < EXP_ZERO_FLOOR) & (w >= -746.0))
        ordered = np.sort(field.ravel())
        lo = np.searchsorted(ordered, xs - _reach(k, b), side="left")
        hi = np.searchsorted(ordered, xs + _reach(k, b), side="right")
        windowed = np.array([_plain_gaussian((x - ordered[i:j]) / b).sum() for x, i, j in zip(xs, lo, hi)])
        assert np.array_equal(_windowed_sums(k, xs, field.ravel(), b).view(np.int64), windowed.view(np.int64))
        want = np.array([_plain_gaussian((x - field) / b).sum() for x in xs])
        got = []
        for forced in (0.0, 2.0):  # every site, then the sites in reach alone
            monkeypatch.setitem(LIVE_SITE_SHARE, "gaussian", forced)
            got.append(np.array([_kernel_sum(k, x, field, b) for x in xs]))
            got.append(np.concatenate([_kernel_sum(k, x, field[np.newaxis], b, (1, 2)) for x in xs]))
        for sums in got:
            assert np.array_equal(sums.view(np.int64), want.view(np.int64))


class TestAsymptoticVariance:
    def test_values(self, epanechnikov):
        assert asymptotic_variance(0.0, epanechnikov) == 0.0
        assert asymptotic_variance(PHI0, epanechnikov) == pytest.approx(
            0.2393653682408596, abs=1e-15
        )

    @given(st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_linear_scaling(self, px):
        k = kernel_by_name("gaussian")
        assert asymptotic_variance(2 * px, k) == pytest.approx(
            2 * asymptotic_variance(px, k), rel=1e-15
        )


class TestDensityOracle:
    def test_identity_weights_standard_normal(self, identity_weights, gaussian_innov):
        for m in (1, 3):
            o = density_oracle(identity_weights, gaussian_innov, m)
            assert o.variance == 1.0 and o.truncated_variance == 1.0
            assert o.sup_marginal == pytest.approx(PHI0, abs=1e-15)
            assert o.sup_gap == 0.0

    def test_geometric_oracle(self, geometric_half, gaussian_innov):
        o = density_oracle(geometric_half, gaussian_innov, 1)
        assert o.variance == pytest.approx(4.0 / 3.0, abs=1e-13)
        assert o.truncated_variance == pytest.approx(1.0, abs=1e-15)

    def test_sup_gap_matches_grid_search(self, geometric_half, gaussian_innov):
        o = density_oracle(geometric_half, gaussian_innov, 1)
        xs = np.linspace(-8, 8, 200_001)
        grid = np.max(
            np.abs(
                np.exp(-(xs**2) / 2) / math.sqrt(2 * math.pi)
                - np.exp(-(xs**2) / (2 * o.variance)) / math.sqrt(2 * math.pi * o.variance)
            )
        )
        assert o.sup_gap == pytest.approx(grid, abs=1e-9)

    def test_sup_gap_shrinks_in_m(self, geometric_half, gaussian_innov):
        gaps = [
            density_oracle(geometric_half, gaussian_innov, m).sup_gap for m in (1, 2, 4, 8)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_truncated_variance_increases_to_total(self, geometric_half, gaussian_innov):
        oracles = [density_oracle(geometric_half, gaussian_innov, m) for m in (1, 2, 4, 16)]
        vms = [o.truncated_variance for o in oracles]
        assert all(o.truncated_variance <= o.variance for o in oracles)
        assert all(b > a for a, b in zip(vms, vms[1:]))
        assert vms[-1] == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_degenerate_truncation_rejected(self, gaussian_innov):
        model = CoefficientModel(
            d=1, family="finite_support", table=np.array([0.0, 1.0])
        )
        with pytest.raises(ValueError):
            density_oracle(model, gaussian_innov, 1)


class TestExpectedKde:
    def test_gaussian_kernel_convolution_identity(self, geometric_half, gaussian_innov):
        # gaussian kernel + gaussian marginal: E f_n is normal with variance v + b^2
        o = density_oracle(geometric_half, gaussian_innov, 2)
        k = kernel_by_name("gaussian")
        for b, x in ((0.5, 0.0), (0.25, 0.8), (0.1, -1.3)):
            vv = o.variance + b * b
            exact = math.exp(-x * x / (2 * vv)) / math.sqrt(2 * math.pi * vv)
            assert expected_kde(o, k, b, x) == pytest.approx(exact, abs=1e-10)

    def test_bias_vanishes_at_lipschitz_rate(self, identity_weights, gaussian_innov, epanechnikov):
        o = density_oracle(identity_weights, gaussian_innov, 1)
        c0 = PHI0 * math.exp(-0.5)
        for b in (0.4, 0.2, 0.1, 0.05):
            gap = abs(expected_kde(o, epanechnikov, b, 0.3) - float(o.p(0.3)))
            assert gap <= c0 * b * epanechnikov.abs_first_moment

    def test_symmetric_maximum_at_origin(self, geometric_half, gaussian_innov, epanechnikov):
        o = density_oracle(geometric_half, gaussian_innov, 2)
        vals = [expected_kde(o, epanechnikov, 0.3, x) for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert max(vals) == vals[2]

    # beta = b / sqrt(v) spans both sides of the switch between the Phi/phi
    # form (beta >= 1) and the moment series (beta < 1)
    @pytest.mark.parametrize("beta", (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0))
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_closed_form_matches_quadrature(self, name, beta):
        k = kernel_by_name(name)
        for xi in (0.0, 0.3, -0.3, 1.0, -1.0, 2.0, -3.5, 6.0):
            ref = _reference_centering(name, xi, beta)
            for v in (0.5, 4.0 / 3.0, 4.0):
                s = math.sqrt(v)
                got = expected_kde(_oracle(v), k, beta * s, xi * s)
                assert got >= 0.0
                assert got == pytest.approx(ref / s, abs=1e-12), (xi, v)

    @given(
        name=st.sampled_from(KERNEL_NAMES),
        xi=st.floats(min_value=-8.0, max_value=8.0),
        log_beta=st.floats(min_value=-4.0, max_value=1.5),
        v=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_quadrature_random(self, name, xi, log_beta, v):
        beta, s = 10.0**log_beta, math.sqrt(v)
        got = expected_kde(_oracle(v), kernel_by_name(name), beta * s, xi * s)
        assert got >= 0.0
        assert got == pytest.approx(_reference_centering(name, xi, beta) / s, abs=1e-12)

    @pytest.mark.parametrize("beta", (1e-2, 0.5, 2.0, 5.0))
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_relative_accuracy_in_moderate_tails(self, name, beta):
        # far from the mode the value is tiny, so absolute agreement says
        # nothing; tail probabilities must not be formed as 1 - Phi(z)
        k = kernel_by_name(name)
        for xi in (8.0, 12.0):
            ref = _reference_centering(name, xi, beta)
            assert expected_kde(_oracle(1.0), k, beta, xi) == pytest.approx(ref, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_far_tails_finite_and_nonnegative(self, name):
        xs = np.array([40.0, -40.0, 1e3, -1e3, 1e8, -1e8])
        k = kernel_by_name(name)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            for beta in (1e-4, 0.5, 1.0, 20.0):
                for v in (0.5, 4.0):
                    s = math.sqrt(v)
                    got = expected_kde(_oracle(v), k, beta * s, xs * s)
                    assert np.all(np.isfinite(got)) and np.all(got >= 0.0), (beta, v, got)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_scalar_and_array_calls_agree(self, name, geometric_half, gaussian_innov):
        o = density_oracle(geometric_half, gaussian_innov, 2)
        k = kernel_by_name(name)
        xs = np.linspace(-4.0, 4.0, 33)
        for b in (0.01, 0.5, 3.0):
            for truncated in (False, True):
                batch = expected_kde(o, k, b, xs, truncated=truncated)
                single = [expected_kde(o, k, b, float(x), truncated=truncated) for x in xs]
                assert all(isinstance(e, float) for e in single)
                np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)

    def test_no_tolerance_argument(self, geometric_half, gaussian_innov, epanechnikov):
        o = density_oracle(geometric_half, gaussian_innov, 2)
        with pytest.raises(TypeError):
            expected_kde(o, epanechnikov, 0.3, 0.0, tol=1e-10)


class TestInversionOracle:
    """Fourier inversion of phi_X against densities known in closed form."""

    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("model_name", ("geometric_half", "power_d2"))
    def test_gaussian_cf_reproduces_closed_forms(self, request, model_name, m, gaussian_innov):
        model = request.getfixturevalue(model_name)
        closed = density_oracle(model, gaussian_innov, m)
        inverted = _inverted(closed, model, gaussian_innov)
        assert inverted.phi is not None and closed.phi is None
        xs = np.linspace(-6.0, 6.0, 49) * math.sqrt(closed.variance)
        for a, b in ((inverted.p(xs), closed.p(xs)), (inverted.p_m(xs), closed.p_m(xs))):
            assert np.max(np.abs(a - b)) <= min(1e-11, inverted.error_bound)
        for name in KERNEL_NAMES:
            k = kernel_by_name(name)
            for b in (0.01, 0.2, 1.0):
                for truncated in (False, True):
                    got = expected_kde(inverted, k, b, xs, truncated=truncated)
                    want = expected_kde(closed, k, b, xs, truncated=truncated)
                    assert np.max(np.abs(got - want)) <= min(1e-11, inverted.error_bound), (name, b, truncated)

    def test_uniform_pair_matches_triangular_density(self):
        model = CoefficientModel(d=1, family="finite_support", table=np.array([1.0, 1.0]))
        o = density_oracle(model, InnovationModel("uniform"), 2)
        edge = 2.0 * math.sqrt(3.0)
        kinks = np.array([0.0, edge, -edge])
        smooth = np.array([0.1, -0.5, 1.0, 1.7, 2.5, -3.0, 3.4, 3.6, 5.0, 8.0])
        for xs in (kinks, smooth):
            want = np.maximum(edge - np.abs(xs), 0.0) / 12.0
            for got in (o.p(xs), o.p_m(xs)):
                assert np.all(np.abs(got - want) <= o.error_bound)
        # at the kinks the inversion converges as 1/T; elsewhere as 1/T^2
        for got in (o.p(smooth), o.p_m(smooth)):
            assert np.max(np.abs(got - np.maximum(edge - np.abs(smooth), 0.0) / 12.0)) <= 1e-9

    # at nu = 3 the innovations have no kurtosis, and the aliasing bound takes the variance alone
    @pytest.mark.parametrize("nu", [3.0, 5.0])
    def test_single_t_weight_matches_scaled_t_density(self, nu):
        model = CoefficientModel(d=1, family="finite_support", table=np.array([1.0]))
        o = density_oracle(model, InnovationModel("student_t", nu=nu), 1)
        xs = np.array([0.0, 0.3, -1.0, 2.0, 5.0, -10.0, 40.0])
        # the unit-variance t density: t_nu scaled by sqrt((nu - 2) / nu)
        scale = nu - 2.0
        want = (math.gamma((nu + 1.0) / 2.0) / (math.sqrt(scale * math.pi) * math.gamma(nu / 2.0))
                * (1.0 + xs**2 / scale) ** (-(nu + 1.0) / 2.0))
        for got in (o.p(xs), o.p_m(xs)):
            assert np.max(np.abs(got - want)) <= min(1e-9, o.error_bound)
        assert o.sup_marginal == o.p(0.0)

    @pytest.mark.parametrize("innovations", (InnovationModel("uniform"), InnovationModel("student_t", nu=5.0)))
    def test_centering_matches_monte_carlo(self, geometric_half, innovations):
        # E K_b(x - X) against the mean over independent draws of X from 40 weights
        o = density_oracle(geometric_half, innovations, 2)
        k = kernel_by_name("epanechnikov")
        a = 0.5 ** np.arange(40)
        eps = draw_lattice(innovations, generator(MASTER_SEED, 41), (200_000, a.size))
        xs = eps @ a
        for x in (0.0, 1.0):
            vals = k((x - xs) / 0.5) / 0.5
            se = vals.std() / math.sqrt(vals.size)
            assert expected_kde(o, k, 0.5, x) == pytest.approx(vals.mean(), abs=4.0 * se)

    def test_uniform_single_weight_refused(self, tmp_path, capsys):
        model = CoefficientModel(d=1, family="finite_support", table=np.array([1.0]))
        with pytest.raises(ValueError, match="two nonzero weights"):
            density_oracle(model, InnovationModel("uniform"), 1)
        code = main(["kde", "--set", 'coefficient={"family":"finite_support","d":1,"table":[1.0]}',
                     "--set", 'innovations={"name":"uniform"}', "--set", "kde.n=64", "--out", str(tmp_path)])
        assert code == 1
        assert "uniform innovations need two nonzero weights" in capsys.readouterr().err

    @pytest.mark.parametrize("innov", [InnovationModel("gaussian"), InnovationModel("uniform"),
                                       InnovationModel("student_t", nu=5.0)], ids=lambda i: i.name)
    def test_oracle_of_x_alone(self, geometric_half, innov):
        # m None: X is its own truncation, and one weight in [0, 1) refuses nothing
        alone = density_oracle(geometric_half, innov, None)
        xs = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(alone.p(xs), alone.p_m(xs)) and alone.sup_gap == 0.0
        for m in (1, 2, 3) if innov.name != "uniform" else (2, 3):
            at_m = density_oracle(geometric_half, innov, m)
            if innov.name == "gaussian":
                assert np.array_equal(alone.p(xs), at_m.p(xs))
            else:
                assert np.all(np.abs(alone.p(xs) - at_m.p(xs)) <= alone.error_bound + at_m.error_bound)
        model = CoefficientModel(d=1, family="finite_support", table=np.array([1.0]))
        if innov.name == "uniform":
            with pytest.raises(ValueError, match="two nonzero weights: "):
                density_oracle(model, innov, None)

    def test_summary_carries_the_bound(self, geometric_half, gaussian_innov):
        assert density_oracle(geometric_half, gaussian_innov, 2).summary()["error_bound"] == 0.0
        o = density_oracle(geometric_half, InnovationModel("student_t", nu=5.0), 2)
        assert 0.0 < o.summary()["error_bound"] < 1e-8
        assert "exact" not in o.summary()


def test_sup_abs_normal_diff_closed_form():
    xs = np.linspace(-10, 10, 400_001)
    for v1, v2 in ((1.0, 4.0 / 3.0), (0.5, 3.0), (2.0, 2.0)):
        a = np.exp(-(xs**2) / (2 * v1)) / math.sqrt(2 * math.pi * v1)
        b = np.exp(-(xs**2) / (2 * v2)) / math.sqrt(2 * math.pi * v2)
        assert sup_abs_normal_diff(v1, v2) == pytest.approx(
            float(np.max(np.abs(a - b))), abs=1e-9
        )


def test_bandwidth_schedule_validation():
    bw = BandwidthSchedule(d=2, gamma=1.0, c2=2.0)
    assert bw.b(64) == pytest.approx(2.0 / 64.0)
    with pytest.raises(ValueError):
        BandwidthSchedule(d=1, gamma=1.5)
    with pytest.raises(ValueError):
        BandwidthSchedule(d=1, gamma=0.2, c2=-1.0)
