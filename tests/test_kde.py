import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fieldkde import (
    BandwidthSchedule,
    CoefficientModel,
    InnovationModel,
    OracleError,
    SeedSpec,
    asymptotic_variance,
    density_oracle,
    expected_kde,
    kde_estimate,
    kernel_by_name,
)
from fieldkde.innovations import innovation_stream
from fieldkde.kde import sup_abs_normal_diff
from fieldkde.quadrature import adaptive_simpson

from conftest import MASTER_SEED

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


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
        u = np.random.default_rng(MASTER_SEED).standard_normal((64, 48)) * 3.0
        before = u.copy()
        assert np.array_equal(k(u), np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi))
        assert np.array_equal(u, before)
        assert k(0.7) == np.exp(-0.5 * 0.7 * 0.7) / math.sqrt(2.0 * math.pi)


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
        x = innovation_stream(InnovationModel("gaussian"), SeedSpec(MASTER_SEED, 21), n)
        est = kde_estimate(x, 0.0, b, epanechnikov)
        sigma2 = PHI0 * epanechnikov.roughness
        c0 = PHI0 * math.exp(-0.5)  # sup |phi'|
        allowance = 3 * math.sqrt(sigma2 / (n * b)) + c0 * b * epanechnikov.abs_first_moment
        assert abs(est - PHI0) <= allowance

    def test_integrates_to_one(self, epanechnikov):
        vals = innovation_stream(InnovationModel("gaussian"), SeedSpec(MASTER_SEED, 22), 200)
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
        assert a == pytest.approx(b, rel=1e-12)

    def test_vector_x_matches_scalar_calls(self, epanechnikov):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(300)
        xs = np.linspace(-2, 2, 17)
        batch = kde_estimate(vals, xs, 0.3, epanechnikov, chunk=512)
        single = np.array([kde_estimate(vals, float(x), 0.3, epanechnikov) for x in xs])
        assert batch == pytest.approx(single, rel=1e-14)


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
        o = density_oracle(geometric_half, gaussian_innov, 1, lag=[1])
        assert o.variance == pytest.approx(4.0 / 3.0, abs=1e-13)
        assert o.truncated_variance == pytest.approx(1.0, abs=1e-15)
        det = np.linalg.det(o.joint_cov)
        assert det == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert o.sup_joint == pytest.approx(0.13783222385544802, abs=1e-12)
        # truncated pair at m=1 has no shared innovations at lag 1
        assert o.joint_cov_truncated[0, 1] == 0.0

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

    def test_mc_oracle_flags_and_histogram(self, geometric_half):
        o = density_oracle(geometric_half, InnovationModel("uniform"), 2, mc_sample=100_000)
        assert not o.exact
        assert o.density_regularity == "not certified"
        # histogram should put the right mass near the centre
        assert o.p(0.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * o.variance), rel=0.2
        )

    def test_histogram_matches_exact_density(self, geometric_half, gaussian_innov):
        # Monte Carlo draws of the field value against the exact normal law
        from fieldkde.kde import _mc_marginals

        diag = _mc_marginals(geometric_half, gaussian_innov, 2, 10**6, SeedSpec(MASTER_SEED, 31))
        v = 4.0 / 3.0
        exact = np.exp(-diag["grid"] ** 2 / (2 * v)) / math.sqrt(2 * math.pi * v)
        inside = diag["marginal"] > 0.01
        err = np.abs(diag["marginal"] - exact)[inside]
        se = diag["se"][inside]
        # sup over ~120 bins: two-sided 1% Bonferroni critical value ~ 3.94
        assert np.max(err / se) < 4.0


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

    def test_refuses_mc_oracle(self, geometric_half):
        o = density_oracle(geometric_half, InnovationModel("uniform"), 2, mc_sample=20_000)
        with pytest.raises(OracleError):
            expected_kde(o, kernel_by_name("gaussian"), 0.2, 0.0)


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
