import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldkde import (
    BandwidthSchedule,
    CoefficientModel,
    check_condition_c,
    check_decay_window,
    check_hallin,
    check_machkouri_qsum,
    delta_n,
    m_schedule,
)
from fieldkde.coefficients import (
    _a_table,
    _power_moments,
    box_mass,
    coeff_box,
    model_from_config,
    residual_sqrt_mass,
    total_sq_mass,
    unit_masses,
)

from shell_reference import shell_power_moments


def coeff_at(model, k) -> float:
    """a_k for a single multi-index (zero outside the positive orthant), term by term."""
    k = tuple(int(t) for t in np.atleast_1d(k))
    if len(k) != model.d:
        raise ValueError("index length must match dimension")
    if any(t < 0 for t in k):
        return 0.0
    if model.family == "power_decay":
        return model.scale * float(1 + max(k)) ** (-model.q)
    if model.family == "geometric":
        return model.ratio ** sum(k)
    tab = model.table
    if any(t >= s for t, s in zip(k, tab.shape)):
        return 0.0
    return float(tab[k])


def brute_orthant_tail(model, k, radius=4000):
    """Independent oracle: direct summation of sum_{i >= k} a_i^2 over a big box."""
    axes = [np.arange(t, t + radius) for t in k]
    if model.d == 1:
        vals = np.array([coeff_at(model, (i,)) for i in axes[0][:radius]])
        return math.sqrt(float(np.sum(vals**2)))
    grids = np.meshgrid(*axes, indexing="ij")
    if model.family == "power_decay":
        radial = np.maximum.reduce(grids)
        return math.sqrt(float(np.sum((model.scale * (1.0 + radial) ** -model.q) ** 2)))
    raise NotImplementedError


class TestGeometricClosedForms:
    def test_tails_match_direct_summation(self, geometric_half):
        # Delta_1 = A_0 and Delta_2 - Delta_1 = A_1 / sqrt(2) in d=1
        k = np.arange(400)
        a = 0.5**k
        assert delta_n(geometric_half, 1) == pytest.approx(math.sqrt(np.sum(a**2)), abs=1e-14)
        assert delta_n(geometric_half, 1) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-13)
        a_1 = (delta_n(geometric_half, 2) - delta_n(geometric_half, 1)) * math.sqrt(2.0)
        assert a_1 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-13)
        assert residual_sqrt_mass(geometric_half, 1) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-13)
        assert total_sq_mass(geometric_half) == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_delta_matches_direct_summation(self, geometric_half):
        kk = np.arange(1, 26)
        direct = sum(
            brute_orthant_tail(geometric_half, (k - 1,)) / math.sqrt(k) for k in kk
        )
        assert delta_n(geometric_half, 25) == pytest.approx(direct, rel=1e-12)

    def test_d2_delta_matches_direct_summation(self):
        model = CoefficientModel(d=2, family="geometric", ratio=0.6)
        a2 = coeff_box(model, 400) ** 2
        direct = sum(
            math.sqrt(float(np.sum(a2[k1 - 1 :, k2 - 1 :]))) / math.sqrt(k1 * k2)
            for k1 in range(1, 9)
            for k2 in range(1, 9)
        )
        assert delta_n(model, 8) == pytest.approx(direct, rel=1e-12)


class TestTrivialModels:
    def test_single_weight(self, identity_weights):
        a = _a_table(identity_weights, 11)
        assert a[0] == 1.0
        assert a[1] == 0.0
        assert residual_sqrt_mass(identity_weights, 1) == 0.0
        assert delta_n(identity_weights, 10) == 1.0

    def test_table_side_invariance(self, identity_weights):
        # any side beyond the support gives identical values
        assert _a_table(identity_weights, 11)[0] == _a_table(identity_weights, 51)[0]
        assert delta_n(identity_weights, 10) == delta_n(identity_weights, 50)
        assert residual_sqrt_mass(identity_weights, 1) == residual_sqrt_mass(identity_weights, 7) == 0.0

    def test_rejects_n_below_one(self, identity_weights):
        with pytest.raises(ValueError):
            delta_n(identity_weights, 0)


class TestPowerDecay:
    def test_rejects_non_square_summable(self):
        with pytest.raises(ValueError):
            CoefficientModel(d=2, family="power_decay", q=1.0)

    def test_a_table_against_brute_force(self, power_d2):
        a = _a_table(power_d2, 9)
        for k in [(0, 0), (3, 2), (7, 0), (8, 8)]:
            assert a[k] == pytest.approx(brute_orthant_tail(power_d2, k), abs=1e-11)

    def test_delta_against_brute_force(self, power_d2):
        n = 6
        direct = sum(
            brute_orthant_tail(power_d2, (k1 - 1, k2 - 1), radius=1200) / math.sqrt(k1 * k2)
            for k1 in range(1, n + 1)
            for k2 in range(1, n + 1)
        )
        # the brute-force box misses tail mass below 1e-12
        assert delta_n(power_d2, n) == pytest.approx(direct, rel=1e-10)

    def test_d3_orthant_tails_against_box_sum(self):
        model = CoefficientModel(d=3, family="power_decay", q=4.0)
        a = _a_table(model, 5)
        for k in [(0, 0, 0), (2, 1, 0), (3, 3, 3)]:
            r = 160
            axes = [np.arange(t, t + r) for t in k]
            g1, g2, g3 = np.meshgrid(*axes, indexing="ij")
            radial = np.maximum(np.maximum(g1, g2), g3)
            box = float(np.sum((1.0 + radial) ** -8.0))
            # remainder of the box sum is below 3*160^(3-8)/5 ~ 6e-12 in mass
            assert a[k] == pytest.approx(math.sqrt(box), abs=1e-5)
        total_shells = sum(
            ((s + 1) ** 3 - s**3) * (1.0 + s) ** -8.0 for s in range(3000)
        )
        assert total_sq_mass(model) == pytest.approx(total_shells, rel=1e-12)


def _direct_shell_tail_bound(d, q, side):
    """Bound on the mass of {|i|_inf >= side} for c = 1: shells hold at most d(1+s)^(d-1) points."""
    return d * float(side) ** (d - 2.0 * q) / (2.0 * q - d)


class TestUnitMasses:
    """sum u^2 and sum u^4 of the weights at unit scale in closed form, u = a / scale for power decay, a over the
    table's largest |entry|, and a itself for geometric weights."""

    @pytest.mark.parametrize("d,ratio", [(1, 0.5), (2, 0.6), (3, 0.3)])
    def test_geometric_against_box_sum(self, d, ratio):
        model = CoefficientModel(d=d, family="geometric", ratio=ratio)
        square, fourth = unit_masses(model)
        assert square == total_sq_mass(model)
        assert fourth == pytest.approx((1.0 - ratio**4) ** -d, rel=1e-15)
        # ratio^(4*80) < 1e-28 bounds what the box leaves out
        assert fourth == pytest.approx(float(np.sum(coeff_box(model, 80) ** 4)), rel=1e-13)

    @pytest.mark.parametrize("d,q,scale,side", [(1, 1.8, 1.0, 4000), (2, 1.1, 1.0, 1200), (2, 4.0, 1.5, 100),
                                                (3, 4.0, 0.5, 40)])
    def test_power_decay_against_box_sum(self, d, q, scale, side):
        model = CoefficientModel(d=d, family="power_decay", q=q, scale=scale)
        box = float(np.sum((coeff_box(model, side) / scale) ** 4))
        # u^4 = (1+|i|_inf)^(-4q): the shell bound at exponent 2q bounds what the box leaves out
        tail = _direct_shell_tail_bound(d, 2.0 * q, side)
        assert -1e-14 * box <= unit_masses(model)[1] - box <= tail + 1e-14 * box

    @pytest.mark.parametrize("d,q,scale", [(1, 1.8, 1.0), (2, 1.1, 2.0), (2, 4.0, 1.5), (3, 1.6, 0.5), (3, 4.0, 1.0)])
    def test_power_decay_against_mpmath(self, d, q, scale):
        mpmath = pytest.importorskip("mpmath")
        model = CoefficientModel(d=d, family="power_decay", q=q, scale=scale)
        with mpmath.workdps(40):
            # the shell |i|_inf = t - 1 holds t^d - (t-1)^d = sum_k C(d,k) (-1)^(d-1-k) t^k weights
            for power, got in zip((2, 4), unit_masses(model)):
                qp = power * mpmath.mpf(q)
                exact = sum(mpmath.binomial(d, k) * (-1) ** (d - 1 - k) * mpmath.zeta(qp - k) for k in range(d))
                assert float(abs(mpmath.mpf(got) / exact - 1)) < 1e-13

    @pytest.mark.parametrize("q,d", [(4.0, 2), (1.8, 1), (4.0, 3)])
    def test_power_decay_square_at_scale_1_is_the_total_mass(self, q, d):
        model = CoefficientModel(d=d, family="power_decay", q=q)
        assert unit_masses(model)[0] == total_sq_mass(model)

    def test_table_sums_directly_over_its_largest_entry(self):
        table = np.array([[1.0, -0.5, 0.0], [0.25, 2.0, 0.0]])
        model = CoefficientModel(d=2, family="finite_support", table=table)
        assert unit_masses(model) == (float(np.sum((table / 2.0) ** 2)), float(np.sum((table / 2.0) ** 4)))


class TestGeometricRange:
    def test_square_sum_beyond_the_float_range_is_rejected(self):
        for d, ratio in ((10**9, 0.5), (63, 0.999999)):
            with pytest.raises(ValueError, match="coefficient.ratio"):
                CoefficientModel(d=d, family="geometric", ratio=ratio)

    def test_tails_where_the_normaliser_is_subnormal(self):
        # (1 - r^2)^d = 0.75^2465 is about 1.1e-308, below the least normal float; the tail divides by it
        model = CoefficientModel(d=2465, family="geometric", ratio=0.5)
        assert 0.0 < 0.75**2465 < 2.3e-308
        total = total_sq_mass(model)
        assert math.isfinite(total)
        for m in (1, 10, 40, 80):
            share = residual_sqrt_mass(model, m) ** 2 / total
            # 1 - (1 - r^(2m))^d, the share of the mass off [0, m)^d
            assert share == pytest.approx(-math.expm1(2465 * math.log1p(-(0.25**m))), rel=1e-9, abs=1e-15)


class TestPowerMomentsClosedForm:
    @pytest.mark.parametrize(
        "d, q, start",
        [(1, 3.0, 0), (1, 2.5, 7), (2, 4.0, 0), (2, 4.0, 1), (2, 4.0, 15), (2, 4.0, 300),
         (2, 3.0, 24), (3, 4.0, 2), (3, 5.5, 6)],
    )
    def test_against_certified_shell_sums(self, d, q, start):
        model = CoefficientModel(d=d, family="power_decay", q=q, scale=1.5)
        shells, rem = shell_power_moments(model, start, 1e-24)
        closed = _power_moments(model.d, 2.0 * model.q, start, model.scale)
        for r in range(d):
            assert closed[r] == pytest.approx(shells[r], rel=1e-13, abs=2 * rem)

    @pytest.mark.parametrize(
        "d, q, side, ms",
        [(1, 3.0, 1 << 20, (1, 6, 40)), (2, 6.0, 1000, (1, 3, 15)), (3, 7.0, 100, (1, 2))],
    )
    def test_masses_against_direct_box_sum(self, d, q, side, ms):
        model = CoefficientModel(d=d, family="power_decay", q=q)
        a2 = coeff_box(model, side) ** 2
        axes = np.ix_(*[np.arange(side)] * d)
        radial = np.maximum.reduce(np.broadcast_arrays(*axes)) if d > 1 else axes[0]
        dropped = _direct_shell_tail_bound(d, q, side)
        total = float(np.sum(a2))
        assert dropped < 1e-15 * total
        assert total_sq_mass(model) == pytest.approx(total, rel=1e-13)
        for m in ms:
            resid = float(np.sum(a2[radial >= m]))
            assert dropped < 1e-15 * resid
            assert residual_sqrt_mass(model, m) == pytest.approx(math.sqrt(resid), rel=1e-13)

    def test_against_mpmath(self):
        # 40-digit values of the same expansion, taken from s = 0 where start = 0
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for d in (1, 2, 3):
                qs = [d / 2.0 + 0.05, *np.arange(d / 2.0 + 0.25, 6.0, 0.25), 6.0]
                for q in qs:
                    model = CoefficientModel(d=d, family="power_decay", q=float(q))
                    q2 = 2 * mpmath.mpf(float(q))
                    for start in (0, 1, 2, 6, 15, 24, 300):
                        closed = _power_moments(model.d, 2.0 * model.q, start, model.scale)
                        zs = [mpmath.zeta(q2 - k, start + 1) for k in range(d)]
                        for r in range(d):
                            exact = sum(
                                mpmath.binomial(r, k) * (-1) ** (r - k) * zs[k]
                                for k in range(r + 1)
                            )
                            worst = max(worst, float(abs(mpmath.mpf(closed[r]) / exact - 1)))
        assert worst <= 1e-13

    @pytest.mark.parametrize("d, q, side", [(1, 0.6, 1 << 27), (1, 1.8, 1 << 27), (2, 4.0, 11585), (3, 4.0, 512)])
    def test_residual_mass_at_the_largest_box_sides_against_mpmath(self, d, q, side):
        # the moment-inequality box search reaches these sides within the 1 GiB cap; at d = 1 the
        # Hurwitz zeta argument 2^27 + 1 lies past the 1e8 where cephes changes method
        mpmath = pytest.importorskip("mpmath")
        model = CoefficientModel(d=d, family="power_decay", q=q)
        with mpmath.workdps(40):
            q2 = 2 * mpmath.mpf(q)
            exact = mpmath.sqrt(sum(
                mpmath.binomial(d, k) * (-1) ** (d - 1 - k) * mpmath.zeta(q2 - k, side + 1) for k in range(d)
            ))
            assert float(abs(mpmath.mpf(residual_sqrt_mass(model, side)) / exact - 1)) < 4e-16

    @pytest.mark.parametrize("d, q", [(1, 1.8), (1, 2.0), (2, 2.5), (2, 1.05)])
    def test_exponents_near_square_summability(self, d, q):
        # shell sums do not reach a 1e-24 remainder within 2^26 shells here;
        # the closed form needs only q > d/2
        model = CoefficientModel(d=d, family="power_decay", q=q)
        total = total_sq_mass(model)
        assert math.isfinite(total) and total > 1.0
        resid = [residual_sqrt_mass(model, m) for m in (1, 2, 4, 8)]
        assert all(math.isfinite(v) for v in resid)
        assert resid == sorted(resid, reverse=True)
        assert resid[0] ** 2 + 1.0 == pytest.approx(total, rel=1e-14)


class TestInvariants:
    @given(
        m=st.integers(min_value=1, max_value=12),
        ratio=st.floats(min_value=0.2, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_mass_consistency(self, m, ratio):
        # B_m^2 + box mass = total mass
        model = CoefficientModel(d=1, family="geometric", ratio=ratio)
        total = total_sq_mass(model)
        assert residual_sqrt_mass(model, m) ** 2 + box_mass(model, m) == pytest.approx(
            total, rel=1e-12
        )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_each_coordinate(self, data):
        d = data.draw(st.integers(min_value=1, max_value=2))
        model = CoefficientModel(d=d, family="power_decay", q=3.0 if d == 2 else 2.0)
        a = _a_table(model, 10)
        k = tuple(data.draw(st.integers(min_value=0, max_value=5)) for _ in range(d))
        j = tuple(t + data.draw(st.integers(min_value=0, max_value=3)) for t in k)
        assert a[j] <= a[k] + 1e-12

    @given(scale=st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_power_decay_scaling_is_exact(self, scale):
        base = CoefficientModel(d=1, family="power_decay", q=2.5)
        scaled = CoefficientModel(d=1, family="power_decay", q=2.5, scale=scale)
        assert residual_sqrt_mass(scaled, 2) == pytest.approx(scale * residual_sqrt_mass(base, 2), rel=1e-13)
        assert delta_n(scaled, 6) == pytest.approx(scale * delta_n(base, 6), rel=1e-13)
        assert _a_table(scaled, 7)[3] == pytest.approx(scale * _a_table(base, 7)[3], rel=1e-13)

    def test_finite_support_functionals_match_brute_force(self):
        rng = np.random.default_rng(5)
        tab = rng.normal(size=(3, 3))
        model = CoefficientModel(d=2, family="finite_support", table=tab)

        def tail(k):
            return math.sqrt(float(np.sum(tab[k[0] :, k[1] :] ** 2)))

        a = _a_table(model, 5)
        for k in [(0, 0), (1, 2), (2, 2), (3, 0)]:
            assert a[k] == pytest.approx(tail(k), abs=1e-14)
        direct = sum(tail((k1 - 1, k2 - 1)) / math.sqrt(k1 * k2) for k1 in range(1, 5) for k2 in range(1, 5))
        assert delta_n(model, 4) == pytest.approx(direct, rel=1e-14)
        # a table wider than n: Delta_n still sums the whole tails
        assert delta_n(model, 1) == pytest.approx(tail((0, 0)), rel=1e-14)
        assert residual_sqrt_mass(model, 2) ** 2 + box_mass(model, 2) == pytest.approx(total_sq_mass(model), abs=1e-14)


class TestDecayWindow:
    def test_reference_triple(self):
        rep = check_decay_window(2, 3.0, 1.0)
        assert rep.passed
        assert rep.delta_interval == pytest.approx((1.0 / 3.0, 0.5))
        assert rep.delta_star == pytest.approx(5.0 / 12.0)
        assert not check_decay_window(1, 0.8, 0.3).passed  # beta <= d
        assert not check_decay_window(2, 3.0, 1.3).passed  # gamma >= 6/5

    def test_boundary_values_fail(self):
        # conditions are strict; exact rationals sit exactly on the boundary
        # (the float 1.2 is slightly below 6/5 and legitimately passes)
        from fractions import Fraction

        assert not check_decay_window(2, 2.0, 0.5).passed  # beta == d
        assert not check_decay_window(2, 3.0, Fraction(6, 5)).passed
        assert check_decay_window(2, 3.0, 1.2).passed

    @given(
        d=st.integers(min_value=1, max_value=3),
        beta=st.floats(min_value=0.2, max_value=8.0),
        gamma=st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pass_iff_interval_nonempty(self, d, beta, gamma):
        from fractions import Fraction

        rep = check_decay_window(d, beta, gamma)
        # exact-rational interval: pass iff nonempty
        fb, fg, fd = Fraction(beta), Fraction(gamma), Fraction(d)
        lo = fg / fb
        hi = min(fg / fd, 1 - fg / fd)
        assert rep.passed == (lo < hi)
        if rep.passed:
            assert rep.details["interval_lo"] <= rep.delta_star <= rep.details["interval_hi"]
            if rep.details["interval_hi"] - rep.details["interval_lo"] > 1e-9:
                assert rep.details["interval_lo"] < rep.delta_star < rep.details["interval_hi"]


class TestHallin:
    def test_reference_triple(self):
        a = check_hallin(1, 5.0, 0.3)
        assert a.passed and a.details["exponent_ratio"] == pytest.approx(3.0)
        b = check_hallin(1, 5.0, 0.4)
        assert not b.passed
        assert b.details["window_pass"]
        assert b.details["window_gamma_bound"] == pytest.approx(4.5 / 5.5)
        c = check_hallin(1, 3.0, 0.1)
        assert not c.passed and c.details["window_pass"]

    def test_undefined_exponent_is_diagnosed(self):
        rep = check_hallin(1, 2.0, 0.1)  # 2q-1-4d = -1
        assert not rep.passed
        assert rep.details["exponent_defined"] is False


def _dyadic_shell_increments(q, q_a, ks):
    """d=1 brute force: sum of s^q (1+s)^(-q_a) over each dyadic shell [2^k, 2^(k+1))."""
    out = []
    for k in ks:
        s = np.arange(2**k, 2 ** (k + 1), dtype=float)
        out.append(float(np.sum(s**q * (1.0 + s) ** -q_a)))
    return out


class TestQSum:
    @pytest.mark.parametrize("ratio,q", [(0.5, 2.5), (0.99, 5.0)])
    def test_geometric_converges(self, ratio, q):
        rep = check_machkouri_qsum(CoefficientModel(d=1, family="geometric", ratio=ratio), q)
        assert (rep.passed, rep.verdict) == (True, "pass")
        assert rep.details["q_bound"] == "inf"

    def test_finite_support_converges(self, identity_weights):
        rep = check_machkouri_qsum(identity_weights, 7.0)
        assert (rep.passed, rep.verdict) == (True, "pass")

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q_a", [4.0, 4.75])
    def test_power_decay_converges_iff_q_below_q_a_minus_d(self, d, q_a):
        model = CoefficientModel(d=d, family="power_decay", q=q_a)
        below = check_machkouri_qsum(model, q_a - d - 0.1)
        assert (below.passed, below.verdict) == (True, "pass")
        at = check_machkouri_qsum(model, q_a - d)
        assert (at.passed, at.verdict) == (False, "fail")
        # the bound is compared exactly: the next float below it passes
        assert check_machkouri_qsum(model, math.nextafter(q_a - d, 0.0)).passed
        assert at.details["q_bound"] == q_a - d
        assert at.details["elm_benchmark_q"] == 2.5 * d
        assert at.details["weaker_regime_q_gt_d"] == (q_a - d > d)

    def test_bound_is_not_rounded(self):
        # q_a - d = 2^53 + 1 is no float; rounded to 2^53 it would fail q = 2^53
        model = CoefficientModel(d=1, family="power_decay", q=2.0**53 + 2)
        assert check_machkouri_qsum(model, 2.0**53).passed
        assert not check_machkouri_qsum(model, 2.0**53 + 2).passed

    @pytest.mark.parametrize("q,converges", [(2.5, True), (2.9, True), (3.0, False), (3.5, False)])
    def test_d1_verdict_against_dyadic_shells(self, q, converges):
        # (1+s)^(-4) on d=1: the bound is q_a - d = 3; dyadic shell sums shrink
        # geometrically below it, stay level at it and grow above it
        q_a = 4.0
        inc = _dyadic_shell_increments(q, q_a, range(6, 18))
        ratios = [b / a for a, b in zip(inc, inc[1:])]
        assert all(r < 1.0 for r in ratios) if converges else all(r >= 1.0 for r in ratios)
        assert ratios[-1] == pytest.approx(2.0 ** (q - 3.0), rel=1e-3)
        rep = check_machkouri_qsum(CoefficientModel(d=1, family="power_decay", q=q_a), q)
        assert rep.passed == converges

    def test_divergent_power_decay_fails(self):
        # q_a - d = 0.2: sum |a_i| converges, sum |i| |a_i| does not
        slow = CoefficientModel(d=1, family="power_decay", q=1.2)
        assert check_machkouri_qsum(slow, 0.0).verdict == "pass"
        assert check_machkouri_qsum(slow, 1.0).verdict == "fail"
        assert check_machkouri_qsum(slow, 2.5).verdict == "fail"

    @pytest.mark.parametrize("q", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_or_nonfinite_q(self, identity_weights, q):
        with pytest.raises(ValueError, match="q must be finite and >= 0"):
            check_machkouri_qsum(identity_weights, q)


class TestMSchedule:
    def test_nearest_integer(self):
        # exact integer powers must not fall to the integer below through
        # float error (64 ** (1/3) evaluates to 3.9999999999999996)
        assert m_schedule(64, 1.0 / 3.0) == 4
        assert m_schedule(125, 1.0 / 3.0) == 5
        # 32^(5/12) = 4.24 and 64^(5/12) = 5.66
        assert m_schedule(32, 5.0 / 12.0) == 4
        assert m_schedule(64, 5.0 / 12.0) == 6

    def test_condition_c_rows_follow_schedule(self, power_d2):
        bw = BandwidthSchedule(d=2, gamma=1.0)
        for delta in (0.1, 1.0 / 3.0, 5.0 / 12.0, 0.45):
            rep = check_condition_c(power_d2, bw, delta, [16, 27, 32, 64, 125, 128])
            for row in rep.grid_rows:
                assert row["m_n"] == m_schedule(row["n"], delta)


class TestScheduleLimits:
    def test_window_regime_passes(self, power_d2):
        bw = BandwidthSchedule(d=2, gamma=1.0)
        rep = check_condition_c(power_d2, bw, 5.0 / 12.0, [16, 32, 64, 128])
        assert rep.passed
        assert rep.verdict == "pass (window)"
        # frozen sequence for m^d * b: n^(5/12) = 2^(5/3), 2^(25/12), 2^(5/2),
        # 2^(35/12) = 3.17, 4.24, 5.66, 7.55 rounds to m_n = 3, 4, 6, 8
        c3 = rep.details["sequences"]["m_vol_times_b"]["values"]
        assert c3 == pytest.approx([9.0 / 16, 16.0 / 32, 36.0 / 64, 64.0 / 128])

    def test_residual_sequence_against_shell_oracle(self, power_d2):
        bw = BandwidthSchedule(d=2, gamma=1.0)
        rep = check_condition_c(power_d2, bw, 5.0 / 12.0, [16, 32, 64, 128])
        c2 = rep.details["sequences"]["residual_over_b"]["values"]
        for row, val in zip(rep.grid_rows, c2):
            m, n = row["m_n"], row["n"]
            shells = sum(
                (2 * s + 1) * (1.0 + s) ** -8.0 for s in range(m, 6000)
            )
            assert val == pytest.approx(math.sqrt(shells) * n, rel=1e-6)

    def test_identity_weights_pass_inside_window(self, identity_weights):
        for gamma in (0.2, 0.5):
            bw = BandwidthSchedule(d=1, gamma=gamma)
            rep = check_condition_c(identity_weights, bw, gamma / 2.0, [16, 32, 64, 128])
            assert rep.passed
            assert rep.details["sequences"]["residual_over_b"]["values"] == [0.0] * 4

    def test_a_declared_beta_sets_the_window_and_the_trend_route_passes_outside_it(self, geometric_half):
        # geometric weights decay faster than any power, but a declared beta = 1.5 sets the window
        # (gamma/beta, 1/2) = (1/3, 1/2); at delta = 1/4, below it, all four sequences still fall
        bw = BandwidthSchedule(d=1, gamma=0.5)
        grid = [16, 64, 256, 1024, 4096]
        declared = CoefficientModel(d=1, family="geometric", ratio=0.5, beta=1.5)
        rep = check_condition_c(declared, bw, 0.25, grid)
        assert rep.details["beta"] == 1.5 and rep.delta_interval == pytest.approx((1.0 / 3.0, 0.5))
        assert not rep.details["delta_in_window"] and rep.verdict == "pass (trend)" and rep.passed
        assert rep.thresholds == {"strict_ratio": 0.1, "trend_ratio": 1.0}
        assert all(seq["verdict"] == "pass (trend)" for seq in rep.details["sequences"].values())
        assert check_condition_c(geometric_half, bw, 0.25, grid).verdict == "pass (window)"

    def test_empty_window_fails(self, power_d2):
        bw = BandwidthSchedule(d=2, gamma=1.3)
        for delta in (0.1, 0.38, 0.45):
            rep = check_condition_c(power_d2, bw, delta, [16, 32, 64, 128])
            assert not rep.passed

    def test_rejects_bad_delta(self, power_d2):
        bw = BandwidthSchedule(d=2, gamma=1.0)
        with pytest.raises(ValueError):
            check_condition_c(power_d2, bw, 1.5, [16, 32, 64])


class TestSerialization:
    @given(
        st.sampled_from(["geometric", "power_decay", "finite_support"]),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_config_round_trip(self, family, d):
        if family == "geometric":
            model = CoefficientModel(d=d, family=family, ratio=0.4)
        elif family == "power_decay":
            model = CoefficientModel(d=d, family=family, q=3.5, scale=2.0)
        else:
            model = CoefficientModel(
                d=d, family=family, table=np.ones((2,) * d), beta=4.0
            )
        back = model_from_config(model.to_config())
        assert back.family == model.family and back.d == model.d
        assert coeff_box(back, 3) == pytest.approx(coeff_box(model, 3))
