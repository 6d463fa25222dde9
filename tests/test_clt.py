import math

import numpy as np
import pytest
from scipy.special import ndtr

from fieldkde import (
    BandwidthSchedule,
    BlockPlan,
    CoefficientModel,
    ExperimentConfig,
    InnovationModel,
    MomentError,
    SeedSpec,
    block_decomposition_check,
    density_oracle,
    fixed_m_gap,
    generate_coupled_fields,
    kernel_by_name,
    ks_normality_test,
    lindeberg_estimate,
    m_schedule,
    normalized_statistic,
    plan_truncation,
    rectangle_moment_check,
    run_clt_experiment,
    wu_inequality_check,
)
from fieldkde.clt import _block_samples
from fieldkde.reporting import canonical_json

from conftest import MASTER_SEED


def _config(model, **kw):
    defaults = dict(
        innovations=InnovationModel("gaussian"),
        kernel=kernel_by_name("epanechnikov"),
        bandwidth=BandwidthSchedule(d=model.d, gamma=0.2),
        n_grid=(512,),
        x_points=(0.0,),
        delta=0.15,
        replicates=200,
        master_seed=MASTER_SEED,
    )
    defaults.update(kw)
    return ExperimentConfig(model=model, **defaults)


class TestExperimentConfig:
    def test_grid_limited_to_stream_spacing(self, geometric_half):
        # grid point ni draws from stream offset + ni; offsets are 100 apart
        grid = tuple(range(16, 16 + 101))
        assert len(_config(geometric_half, n_grid=grid[:100]).n_grid) == 100
        with pytest.raises(ValueError, match="at most 100"):
            _config(geometric_half, n_grid=grid)
        with pytest.raises(ValueError, match="at most 100"):
            fixed_m_gap(_config(geometric_half), m=2, n_grid=grid)


class TestNormalizedStatistic:
    def test_identity_truncation_kills_remainder(self, identity_weights, epanechnikov):
        plan = plan_truncation(identity_weights, m=1, policy="fixed", M=1)
        fields = generate_coupled_fields(
            identity_weights, InnovationModel("gaussian"), 256, 1, plan, SeedSpec(MASTER_SEED)
        )
        t, tz, tr = normalized_statistic(fields, 0.0, epanechnikov, 0.3)
        assert tr == 0.0
        assert t == tz

    def test_decomposition_identity(self, geometric_half, epanechnikov):
        plan = plan_truncation(geometric_half, m=3, policy="fixed", M=32)
        fields = generate_coupled_fields(
            geometric_half, InnovationModel("gaussian"), 512, 3, plan, SeedSpec(MASTER_SEED, 1)
        )
        t, tz, tr = normalized_statistic(fields, 0.2, epanechnikov, 0.25)
        assert t - (tz + tr) == pytest.approx(0.0, abs=1e-12 * max(abs(t), 1.0))

    def test_pooled_needs_expectations(self, geometric_half, epanechnikov):
        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=16)
        fields = generate_coupled_fields(
            geometric_half, InnovationModel("gaussian"), 64, 2, plan, SeedSpec(MASTER_SEED)
        )
        with pytest.raises(ValueError):
            normalized_statistic(fields, 0.0, epanechnikov, 0.3, centering="pooled")

    def test_oracle_refuses_non_gaussian(self, geometric_half, epanechnikov):
        from fieldkde import OracleError

        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=16)
        fields = generate_coupled_fields(
            geometric_half, InnovationModel("uniform"), 64, 2, plan, SeedSpec(MASTER_SEED)
        )
        with pytest.raises(OracleError):
            normalized_statistic(fields, 0.0, epanechnikov, 0.3)


class TestRunCltExperiment:
    def test_remainder_contracts_in_window(self, geometric_half):
        # gaussian kernel keeps the site-level kernel shift small; with
        # delta at the top of the feasible window the remainder variance
        # drops well below 5% of Var(T_n) by n = 4096
        cfg = _config(
            geometric_half,
            kernel=kernel_by_name("gaussian"),
            n_grid=(1024, 4096),
            delta=0.199,
            replicates=500,
        )
        rep = run_clt_experiment(cfg)
        p1, p2 = rep.points
        v1 = np.var(p1["T_remainder"], ddof=1)
        v2 = np.var(p2["T_remainder"], ddof=1)
        assert v2 < v1
        assert v2 <= 0.05 * p2["variance"]

    def test_single_replicate_inconclusive(self, geometric_half):
        rep = run_clt_experiment(_config(geometric_half, replicates=1, n_grid=(128,)))
        assert rep.overall == "inconclusive"
        assert rep.points[0]["verdicts"]["overall"] == "inconclusive"

    def test_decomposition_identity_per_replicate(self, geometric_half):
        rep = run_clt_experiment(_config(geometric_half, replicates=50, n_grid=(256,)))
        pt = rep.points[0]
        t = np.array(pt["T"])
        back = np.array(pt["T_zeta"]) + np.array(pt["T_remainder"])
        assert np.max(np.abs(t - back)) <= 1e-12 * max(np.max(np.abs(t)), 1.0)
        assert rep.nonfinite == 0

    def test_bit_identical_reports_and_thread_independence(self, geometric_half):
        cfg1 = _config(geometric_half, replicates=32, n_grid=(128,))
        cfg4 = _config(geometric_half, replicates=32, n_grid=(128,), threads=4)
        a = canonical_json(run_clt_experiment(cfg1).to_dict())
        b = canonical_json(run_clt_experiment(cfg1).to_dict())
        c = canonical_json(run_clt_experiment(cfg4).to_dict())
        assert a == b == c

    def test_pooled_centering_non_gaussian(self, geometric_half):
        cfg = _config(
            geometric_half,
            innovations=InnovationModel("student_t", nu=5.0),
            bandwidth=BandwidthSchedule(d=1, gamma=0.4),
            n_grid=(1024,),
            delta=0.2,
            replicates=150,
            centering="pooled",
        )
        rep = run_clt_experiment(cfg)
        pt = rep.points[0]
        assert pt["sigma2_exact_oracle"] is False
        assert pt["pooled_correlation"] == pytest.approx(1.0 / 150.0)
        assert abs(np.mean(pt["T"])) < 1e-12  # pooled centering zeroes the mean

    def test_oracle_centering_rejects_non_gaussian(self, geometric_half):
        from fieldkde import OracleError

        cfg = _config(geometric_half, innovations=InnovationModel("uniform"))
        with pytest.raises(OracleError):
            run_clt_experiment(cfg)

    def test_fail_regime_runs_but_is_labelled(self, power_d2):
        # experiments outside the feasible window are allowed with an
        # explicit schedule and carry the window verdict in the report
        cfg = ExperimentConfig(
            model=power_d2,
            innovations=InnovationModel("gaussian"),
            kernel=kernel_by_name("epanechnikov"),
            bandwidth=BandwidthSchedule(d=2, gamma=1.3),
            n_grid=(16,),
            x_points=(0.0,),
            delta=0.4,
            replicates=20,
            master_seed=MASTER_SEED,
        )
        rep = run_clt_experiment(cfg)
        assert rep.config["decay_window"]["passed"] is False
        assert rep.config["delta"] == 0.4
        # without an explicit schedule the empty window is an error
        with pytest.raises(ValueError):
            ExperimentConfig(
                model=power_d2,
                innovations=InnovationModel("gaussian"),
                kernel=kernel_by_name("epanechnikov"),
                bandwidth=BandwidthSchedule(d=2, gamma=1.3),
                n_grid=(16,),
                x_points=(0.0,),
                replicates=20,
                master_seed=MASTER_SEED,
            ).resolve_delta()


class TestAgainstNaiveReimplementation:
    def test_statistic_matches_literal_loops(self, power_d2, epanechnikov):
        # rebuild one replicate with nested loops and scipy quadrature, then
        # compare the full pipeline output
        from scipy.integrate import quad

        from fieldkde.innovations import draw_lattice

        n, m, M, b, x = 12, 2, 5, 0.4, 0.1
        innov = InnovationModel("gaussian")
        seed = SeedSpec(MASTER_SEED, 77)
        plan = plan_truncation(power_d2, m=m, policy="fixed", M=M)
        fields = generate_coupled_fields(power_d2, innov, n, m, plan, seed)

        eps = draw_lattice(innov, seed, (n + M - 1, n + M - 1))
        a = np.array(
            [[(1.0 + max(k1, k2)) ** -4.0 for k2 in range(M)] for k1 in range(M)]
        )
        x_naive = np.zeros((n, n))
        xm_naive = np.zeros((n, n))
        for i1 in range(n):
            for i2 in range(n):
                for k1 in range(M):
                    for k2 in range(M):
                        v = a[k1, k2] * eps[i1 + M - 1 - k1, i2 + M - 1 - k2]
                        x_naive[i1, i2] += v
                        if k1 < m and k2 < m:
                            xm_naive[i1, i2] += v
        assert np.max(np.abs(fields.full.values - x_naive)) < 1e-12
        assert np.max(np.abs(fields.truncated.values - xm_naive)) < 1e-12

        o = density_oracle(power_d2, innov, m)
        v, v_m = o.variance, o.truncated_variance

        def ef(var):
            return quad(
                lambda u: 0.75 * (1 - u * u)
                * math.exp(-((x - b * u) ** 2) / (2 * var))
                / math.sqrt(2 * math.pi * var),
                -1,
                1,
                epsabs=1e-12,
            )[0]

        N = n * n
        scale = math.sqrt(N * b)
        fn = float(np.sum(epanechnikov((x - x_naive) / b))) / (N * b)
        fnm = float(np.sum(epanechnikov((x - xm_naive) / b))) / (N * b)
        t_ref = scale * (fn - ef(v))
        tz_ref = scale * (fnm - ef(v_m))
        t, tz, tr = normalized_statistic(fields, x, epanechnikov, b)
        assert t == pytest.approx(t_ref, abs=1e-8)
        assert tz == pytest.approx(tz_ref, abs=1e-8)
        assert tr == pytest.approx(t_ref - tz_ref, abs=1e-8)


class TestMDependence:
    def test_truncated_field_kernel_correlations(self, geometric_half, epanechnikov):
        # zeta values at sup-distance >= m are independent; below m they are not
        m, n, b = 3, 400_000, 0.5
        plan = plan_truncation(geometric_half, m=m, policy="fixed", M=m)
        fields = generate_coupled_fields(
            geometric_half, InnovationModel("gaussian"), n, m, plan, SeedSpec(MASTER_SEED, 41)
        )
        z = epanechnikov((0.0 - fields.truncated.values) / b) / math.sqrt(b)
        z = z - z.mean()
        def corr(h):
            return float(np.mean(z[:-h] * z[h:]) / np.mean(z * z))
        noise = 4.0 / math.sqrt(n)
        assert corr(1) > 5 * noise
        for h in (3, 4, 7):
            assert abs(corr(h)) < noise

    def test_covariance_decay_bound(self, geometric_half, epanechnikov):
        # |cov(zeta_0, zeta_i)| <= C * sup p_{i,m} * b with C the same
        # order across bandwidths
        m = 3
        ratios = []
        for stream, n in ((42, 200_000), (43, 50_000)):
            b = float(n) ** -0.2
            plan = plan_truncation(geometric_half, m=m, policy="fixed", M=m)
            fields = generate_coupled_fields(
                geometric_half, InnovationModel("gaussian"), n, m, plan, SeedSpec(MASTER_SEED, stream)
            )
            z = epanechnikov((0.0 - fields.truncated.values) / b) / math.sqrt(b)
            z = z - z.mean()
            worst = 0.0
            for h in (1, 2):
                cov = abs(float(np.mean(z[:-h] * z[h:])))
                sup_joint = density_oracle(
                    geometric_half, InnovationModel("gaussian"), m, lag=[h]
                ).sup_joint_truncated
                worst = max(worst, cov / (sup_joint * b))
            ratios.append(worst)
        assert max(ratios) < 2.0
        assert max(ratios) <= 2.5 * min(ratios)


class TestKs:
    def test_constant_samples(self):
        res = ks_normality_test(np.full(500, 0.3), 1.0)
        assert res.distance >= 0.5

    def test_level_on_true_normals(self):
        rejects = 0
        for rep in range(50):
            rng = np.random.default_rng(MASTER_SEED + rep)
            res = ks_normality_test(rng.normal(0, 2.0, 1000), 4.0)
            rejects += res.distance > res.crit_05
        assert rejects <= 5  # ~5% level, 50 meta-repetitions

    def test_power_against_scale(self):
        rng = np.random.default_rng(MASTER_SEED)
        res = ks_normality_test(rng.normal(0, 2.0, 1000), 1.0)
        assert res.distance > res.crit_01

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_normality_test(np.array([]), 1.0)
        with pytest.raises(ValueError):
            ks_normality_test(np.zeros(50), 1.0)
        with pytest.raises(ValueError):
            ks_normality_test(np.zeros(200), 0.0)


class TestWuInequality:
    def test_second_moment_identity(self, geometric_half):
        rep = wu_inequality_check(geometric_half, InnovationModel("gaussian"), 1, 200_000)
        assert abs(rep["c_hat"] - 1.0) <= 3 * rep["se"]

    def test_gaussian_fourth_moment(self, geometric_half):
        rep = wu_inequality_check(geometric_half, InnovationModel("gaussian"), 2, 200_000)
        assert rep["reference_c"] == pytest.approx(3.0, abs=1e-12)
        assert rep["c_hat"] == pytest.approx(3.0, rel=0.1)

    def test_uniform_kurtosis(self, identity_weights):
        rep = wu_inequality_check(identity_weights, InnovationModel("uniform"), 2, 200_000)
        assert rep["reference_c"] == pytest.approx(9.0 / 5.0, abs=1e-12)
        assert rep["c_hat"] == pytest.approx(9.0 / 5.0, rel=0.05)

    def test_moment_precondition(self, geometric_half):
        with pytest.raises(MomentError):
            wu_inequality_check(geometric_half, InnovationModel("student_t", nu=4.0), 2, 100)


class TestBlocks:
    def test_single_block_no_gap(self, identity_weights):
        # block side l = n: the single block covers everything, so the gap
        # statistic is exactly zero
        cfg1 = _config(identity_weights, n_grid=(128,), replicates=40)
        rep = block_decomposition_check(cfg1, BlockPlan(m=1, l=128))
        assert rep["rows"][0]["blocks_per_axis"] == 1
        assert rep["rows"][0]["var_delta"] == 0.0
        samples = _block_samples(cfg1, BlockPlan(m=1, l=128))
        d = samples[0]
        gap = d["totals"] - d["etas"].reshape(len(d["totals"]), -1).sum(axis=1)
        assert np.max(np.abs(gap)) == 0.0

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            BlockPlan(m=4, l=4).resolve(64)
        with pytest.raises(ValueError):
            BlockPlan(m=4, l=128).resolve(64)
        with pytest.raises(ValueError):
            BlockPlan().resolve(64)

    def test_gap_variance_decreases(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(256, 1024, 4096),
            replicates=600,
        )
        plan = BlockPlan(m=4)
        samples = _block_samples(cfg, plan)
        rep = block_decomposition_check(cfg, plan, samples=samples)
        vals = [r["var_delta"] for r in rep["rows"]]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        proxies = [r["rate_proxy"] for r in rep["rows"]]
        assert all(b < a for a, b in zip(proxies, proxies[1:]))
        for r in rep["rows"]:
            assert abs(r["adjacent_corr"]) <= r["corr_threshold"]

    def test_lindeberg_baseline(self, identity_weights):
        # iid field, blocks of length >= 512: block variance per site near
        # sigma_0^2
        cfg = _config(
            identity_weights,
            bandwidth=BandwidthSchedule(d=1, gamma=0.4),
            n_grid=(4096,),
            replicates=300,
        )
        plan = BlockPlan(m=1, l=512)
        rep = lindeberg_estimate(cfg, plan, [1.0])
        target = rep["sigma2_target"]
        assert rep["rows"][0]["lf1"] == pytest.approx(target, rel=0.1)

    def test_indicator_exactly_zero_for_large_eps(self, geometric_half, epanechnikov):
        cfg = _config(geometric_half, n_grid=(256,), replicates=100)
        plan = BlockPlan(m=2, l=16)
        samples = _block_samples(cfg, plan)
        s = samples[0]
        b = s["b"]
        # |xi| <= l * 2 sup K / sqrt(b) almost surely, so a threshold above
        # that kills the indicator for every replicate
        bound = s["l"] * 2 * epanechnikov.sup_value / math.sqrt(b)
        eps = 2.0 * bound / math.sqrt(256.0)
        rep = lindeberg_estimate(cfg, plan, [eps], samples=samples)
        assert rep["rows"][0]["lf2"][eps] == 0.0

    def test_lf2_decreasing(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(256, 1024, 4096),
            replicates=600,
        )
        plan = BlockPlan(m=4)
        rep = lindeberg_estimate(cfg, plan, [0.5, 1.0, 2.0])
        for e, ok in rep["verdicts"]["lf2_vanishes"].items():
            assert ok


class TestRectangles:
    def test_iid_normalisation_constant(self, identity_weights):
        # independence: ||sum over rect||_2 / sqrt(vol) equals ||zeta_bar||_2
        # for every rectangle, up to Monte Carlo noise
        cfg = _config(identity_weights, n_grid=(1024,), replicates=500)
        rep = rectangle_moment_check(cfg, [4, 16, 64, 256, 1024])
        vals = [r["zeta_normalized_l2"] for r in rep["rows"]]
        assert max(vals) / min(vals) < 1.2

    def test_geometric_bounded(self, geometric_half):
        cfg = _config(geometric_half, n_grid=(1024,), replicates=400, delta=0.25)
        rep = rectangle_moment_check(cfg, [2**r for r in range(2, 11)])
        assert rep["max_min_ratio"] < 3.0
        assert rep["passed"]

    def test_scaling_leaves_verdict_unchanged(self):
        base = CoefficientModel(d=1, family="power_decay", q=2.5)
        doubled = CoefficientModel(d=1, family="power_decay", q=2.5, scale=2.0)
        rects = [4, 16, 64, 256]
        reps = []
        for model in (base, doubled):
            cfg = _config(model, n_grid=(256,), replicates=200, delta=0.25)
            reps.append(rectangle_moment_check(cfg, rects))
        assert reps[0]["passed"] == reps[1]["passed"]
        # normalised levels scale with the field, ratios do not
        assert reps[0]["max_min_ratio"] == pytest.approx(reps[1]["max_min_ratio"], rel=0.2)


def _gap_quadrature_oracle(v, v_m, b, rough_grid=801):
    """E(zeta - Z)^2 for the Epanechnikov kernel by 2-d Simpson quadrature."""

    def k(u):
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)

    def pdf1(y, var):
        return np.exp(-y * y / (2 * var)) / math.sqrt(2 * math.pi * var)

    s = np.linspace(-1, 1, rough_grid)
    w = np.ones(rough_grid)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (s[1] - s[0]) / 3.0
    e_z2 = float(np.sum(w * k(s) ** 2 * pdf1(-b * s, v)))
    e_t2 = float(np.sum(w * k(s) ** 2 * pdf1(-b * s, v_m)))
    # joint law of (X, X_m): cov = [[v, v_m], [v_m, v_m]]
    det = v_m * (v - v_m)
    ss, tt = np.meshgrid(s, s, indexing="ij")
    u1, u2 = -b * ss, -b * tt
    quad_form = (v_m * u1**2 - 2 * v_m * u1 * u2 + v * u2**2) / det
    pj = np.exp(-0.5 * quad_form) / (2 * math.pi * math.sqrt(det))
    e_cross = b * float(np.sum(np.outer(w, w) * k(ss) * k(tt) * pj))
    return e_z2 + e_t2 - 2 * e_cross


class TestTruncationGap:
    def test_identity_truncation_zero_gap(self, identity_weights):
        cfg = _config(identity_weights, n_grid=(256, 1024), replicates=20)
        rep = fixed_m_gap(cfg, m=1, mode="fixed")
        assert all(r["gap"] == 0.0 for r in rep["rows"])

    def test_fixed_gap_matches_quadrature(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(4096,),
            replicates=60,
        )
        rep = fixed_m_gap(cfg, m=2, mode="fixed")
        row = rep["rows"][0]
        oracle = _gap_quadrature_oracle(4.0 / 3.0, 1.25, row["b"])
        assert row["gap"] == pytest.approx(oracle, abs=4 * row["se"])

    def test_fixed_gap_has_positive_limit(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(1024, 4096, 16384),
            replicates=100,
        )
        rep = fixed_m_gap(cfg, m=2, mode="fixed")
        assert rep["oracle_limit"] == pytest.approx(0.42139138362113, abs=1e-10)
        assert rep["passed"]

    def test_growing_gap_halves(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(1024, 4096, 16384),
            delta=0.25,
            replicates=60,
        )
        rep = fixed_m_gap(cfg, mode="growing")
        gaps = [r["gap"] for r in rep["rows"]]
        assert gaps[-1] <= 0.5 * gaps[0]
        assert rep["fitted_c"] > 0

    def test_needs_gaussian(self, geometric_half):
        from fieldkde import OracleError

        cfg = _config(geometric_half, innovations=InnovationModel("uniform"))
        with pytest.raises(OracleError):
            fixed_m_gap(cfg, m=2, mode="fixed")
