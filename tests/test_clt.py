import json
import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fieldkde import (
    BandwidthSchedule,
    CoefficientModel,
    ExperimentConfig,
    InnovationModel,
    MomentError,
    SeedSpec,
    Seeds,
    asymptotic_variance,
    block_decomposition_check,
    block_sides,
    density_oracle,
    fixed_m_gap,
    kernel_by_name,
    ks_normality_test,
    lindeberg_estimate,
    m_schedule,
    grid_points,
    plan_truncation,
    rectangle_moment_check,
    run_clt_experiment,
    wu_inequality_check,
)
from fieldkde.clt import _block_samples, _skew_kurtosis
from fieldkde.coefficients import coeff_box, total_sq_mass
from fieldkde.field import coupled_spectra
from fieldkde.innovations import draw_lattice
from fieldkde.reporting import canonical_json

import block_reference
from wu_reference import STREAM, wu_reference, wu_side
from conftest import MASTER_SEED, coupled_pair, planned


def _config(model, **kw):
    defaults = dict(
        innovations=InnovationModel("gaussian"),
        kernel=kernel_by_name("epanechnikov"),
        bandwidth=BandwidthSchedule(d=model.d, gamma=0.2),
        n_grid=(512,),
        replicates=200,
        master_seed=MASTER_SEED,
    )
    defaults.update(kw)
    return ExperimentConfig(model=model, **defaults)


# the x's and the schedule of the grid points, unless a test says otherwise
PLAN = {"x_points": (0.0,), "delta": 0.15}


class TestExperimentConfig:
    def test_grid_limited_to_stream_spacing(self, geometric_half):
        # grid point ni draws from stream offset + ni; offsets are 100 apart
        grid = tuple(range(16, 16 + 101))
        assert len(_config(geometric_half, n_grid=grid[:100]).n_grid) == 100
        with pytest.raises(ValueError, match="at most 100"):
            _config(geometric_half, n_grid=grid)

    @pytest.mark.parametrize("points", [(), (math.nan,), (0.0, math.inf), (-math.inf,)])
    def test_rejects_empty_or_nonfinite_x_points(self, geometric_half, points):
        with pytest.raises(ValueError, match="x_points must be nonempty and finite"):
            grid_points(_config(geometric_half), "clt", x_points=points, delta=0.15)


def _point(config, n, m, plan, stream, batch=None):
    """The engine's plan of (n, m) under ``plan``, with a forced batch size when given."""
    import fieldkde.clt as clt

    point = clt.plan_point(config.model, n, m, 0.5, plan, stream, config.replicates, config.max_field_bytes)
    return point if batch is None else replace(point, batch=batch)


def _fortran_head(x, x_m, scratch):
    """A reduction whose first output is a Fortran-ordered slice, as fancy-indexed block sums are."""
    return np.asfortranarray(x)[:, :4], x_m[:, 0]


class TestReplicateEngine:
    @pytest.mark.parametrize("size", [1, 3, None], ids=["B1", "B3", "whole_chunk"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_outputs_are_c_ordered_rows_in_replicate_order(self, geometric_half, threads, size):
        import fieldkde.clt as clt

        R, stream = 7, 5
        config = _config(geometric_half, replicates=R, threads=threads)
        plan = plan_truncation(geometric_half, m=2, policy="fixed", M=4)
        # the point carries a forced size to every chunk
        head, first = clt._run_replicates(config, _point(config, 32, 2, plan, stream, size), _fortran_head)
        alone = [coupled_pair(geometric_half, 32, 2, plan, SeedSpec(MASTER_SEED, stream, r)) for r in range(R)]
        assert head.flags.c_contiguous and first.flags.c_contiguous
        assert np.array_equal(head, np.array([x[:4] for x, _ in alone]))
        assert np.array_equal(first, np.array([x_m[0] for _, x_m in alone]))

    @pytest.mark.parametrize("size", [1, 3], ids=["B1", "B3"])
    def test_batch_intermediates_freed_before_the_join(self, geometric_half, size):
        import weakref

        import fieldkde.clt as clt

        config = _config(geometric_half, replicates=7)
        point = _point(config, 32, 2, plan_truncation(geometric_half, m=2, policy="fixed", M=4), 0, size)
        alive = []

        def prefix_views(x, x_m, scratch):
            # both outputs are views into one batch-sized prefix array, as _block_windows' total is
            prefix = np.cumsum(x_m, axis=1)
            alive.append(weakref.ref(prefix))
            return prefix[:, -1], prefix[:, ::8]

        work = clt.CoupledWorkspace(coupled_spectra(config.model, point), size)
        batches = clt._replicate_chunk(config, point, prefix_views, work, 0, 7)
        assert len(alive) == len(batches) == -(-7 // size)
        assert all(ref() is None for ref in alive)
        blocks = partial(clt._block_windows, kernel=config.kernel, b=0.5, point=0.0, m=2, l=6, q=4)
        for outs in clt._replicate_chunk(config, point, blocks, work, 0, 7):
            assert all(out.base is None and out.flags.c_contiguous for out in outs)

    def test_spectra_built_once_per_grid_point(self, power_d2, monkeypatch):
        import fieldkde.clt as clt

        calls = []

        def counting(model, point):
            calls.append(point)
            return coupled_spectra(model, point)

        monkeypatch.setattr(clt, "coupled_spectra", counting)
        monkeypatch.setattr(clt.os, "cpu_count", lambda: 2)
        config = _config(power_d2, bandwidth=BandwidthSchedule(d=2, gamma=1.0), replicates=7, threads=2)
        plan = plan_truncation(power_d2, m=2, policy="fixed", M=6)
        # a reduction takes the two fields of a batch and two scratch arrays shaped like them,
        # and returns arrays with one row per replicate
        def reduce(x, x_m, scratch):
            return (x.sum(axis=(1, 2)),)

        point = _point(config, 16, 2, plan, 0)
        (rows,) = clt._run_replicates(config, point, reduce)
        # the two chunks share one build of the spectra
        assert len(rows) == 7 and len(calls) == 1
        # a chunk in a workspace of its own reproduces the same replicates
        work = clt.CoupledWorkspace(coupled_spectra(power_d2, point), point.batch)
        tail = np.concatenate([out for out, in clt._replicate_chunk(config, point, reduce, work, 3, 7)])
        assert np.array_equal(tail, rows[3:])


class TestNormalizedStatistic:
    def test_identity_truncation_kills_remainder(self, identity_weights):
        # one weight: the truncated field is the field itself at every m
        cfg = _config(identity_weights, n_grid=(256,), replicates=20)
        _, table = run_clt_experiment(cfg, grid_points(cfg, "clt", **PLAN))
        assert table["T_remainder"].tolist() == [0.0] * 20
        assert table["T"].tolist() == table["T_zeta"].tolist()

    def test_decomposition_identity(self, geometric_half):
        cfg = _config(geometric_half, n_grid=(512,), replicates=20)
        _, table = run_clt_experiment(cfg, grid_points(cfg, "clt", x_points=(0.2,), delta=0.15))
        t, tz, tr = (table[k] for k in ("T", "T_zeta", "T_remainder"))
        assert np.max(np.abs(t - (tz + tr))) <= 1e-12 * max(np.max(np.abs(t)), 1.0)


class TestRunCltExperiment:
    def test_remainder_contracts_in_window(self, geometric_half):
        # gaussian kernel keeps the site-level kernel shift small; with
        # delta at the top of the feasible window the remainder variance
        # drops well below 5% of Var(T_n) by n = 4096
        cfg = _config(
            geometric_half,
            kernel=kernel_by_name("gaussian"),
            n_grid=(1024, 4096),
            replicates=500,
        )
        rep, table = run_clt_experiment(cfg, grid_points(cfg, "clt", x_points=(0.0,), delta=0.199))
        p1, p2 = rep["points"]
        v1 = np.var(table["T_remainder"][table["n"] == 1024], ddof=1)
        v2 = np.var(table["T_remainder"][table["n"] == 4096], ddof=1)
        assert v2 < v1
        assert v2 <= 0.05 * p2["variance"]

    def test_single_replicate_inconclusive(self, geometric_half):
        cfg = _config(geometric_half, replicates=1, n_grid=(128,))
        rep, _ = run_clt_experiment(cfg, grid_points(cfg, "clt", **PLAN))
        assert rep["overall"] == "inconclusive"
        assert rep["points"][0]["verdicts"]["overall"] == "inconclusive"

    def test_decomposition_identity_per_replicate(self, geometric_half):
        cfg = _config(geometric_half, replicates=50, n_grid=(256,))
        rep, table = run_clt_experiment(cfg, grid_points(cfg, "clt", **PLAN))
        t = table["T"]
        back = table["T_zeta"] + table["T_remainder"]
        assert np.max(np.abs(t - back)) <= 1e-12 * max(np.max(np.abs(t)), 1.0)
        assert rep["nonfinite"] == 0

    def test_bit_identical_reports_and_thread_independence(self, geometric_half):
        cfg1 = _config(geometric_half, replicates=32, n_grid=(128,))
        cfg4 = _config(geometric_half, replicates=32, n_grid=(128,), threads=4)
        a = canonical_json(run_clt_experiment(cfg1, grid_points(cfg1, "clt", **PLAN)))
        b = canonical_json(run_clt_experiment(cfg1, grid_points(cfg1, "clt", **PLAN)))
        c = canonical_json(run_clt_experiment(cfg4, grid_points(cfg4, "clt", **PLAN)))
        assert a == b == c

    def test_fail_regime_runs_but_is_labelled(self, tmp_path, power_d2):
        # experiments outside the feasible window are allowed with an
        # explicit schedule and carry the window verdict in the report
        from fieldkde.cli import main

        sets = ['coefficient={"family":"power_decay","d":2,"q":4.0}', "bandwidth.gamma=1.3", "clt.n_grid=[16]",
                "schedule.delta=0.4", "clt.replicates=20"]
        assert main(["clt-run", "--out", str(tmp_path), *(a for s in sets for a in ("--set", s))]) in (0, 2)
        rep = json.loads((tmp_path / "clt_run" / "report.json").read_text())
        assert rep["config"]["decay_window"]["passed"] is False
        assert rep["config"]["delta"] == 0.4
        # without an explicit schedule the empty window is an error
        cfg = _config(power_d2, bandwidth=BandwidthSchedule(d=2, gamma=1.3), n_grid=(16,), replicates=20)
        with pytest.raises(ValueError, match="config key schedule.delta"):
            grid_points(cfg, "clt", x_points=(0.0,))


class TestAgainstNaiveReimplementation:
    def test_statistic_matches_literal_loops(self, power_d2, epanechnikov):
        # rebuild one replicate with nested loops and scipy quadrature, then
        # compare the full pipeline output
        from scipy.integrate import quad

        from fieldkde.innovations import draw_lattice

        n, m, M, x = 12, 2, 5, 0.1
        innov = InnovationModel("gaussian")
        cfg = _config(
            power_d2,
            bandwidth=BandwidthSchedule(d=2, gamma=0.4),
            n_grid=(n,),
            replicates=1,
        )
        # round(12^0.25) = 2
        report, table = run_clt_experiment(cfg, grid_points(cfg, "clt", x_points=(x,), delta=0.25, policy="fixed", M=M))
        pt = report["points"][0]
        assert (pt["m"], pt["M"], pt["seeds"]["stream"]) == (m, M, 0)
        b = pt["b"]
        seed = SeedSpec(MASTER_SEED, 0, 0)

        eps = draw_lattice(innov, Seeds.of(seed)[0], (n + M - 1, n + M - 1))
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

        plan = plan_truncation(power_d2, m=m, policy="fixed", M=M)
        x_full, x_m = coupled_pair(power_d2, n, m, plan, seed, innov)
        assert np.max(np.abs(x_full - x_naive)) < 1e-12
        assert np.max(np.abs(x_m - xm_naive)) < 1e-12

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
        (t,), (tz,), (tr,) = table["T"], table["T_zeta"], table["T_remainder"]
        assert t == pytest.approx(t_ref, abs=1e-8)
        assert tz == pytest.approx(tz_ref, abs=1e-8)
        assert tr == pytest.approx(t_ref - tz_ref, abs=1e-8)


class TestMDependence:
    def test_truncated_field_kernel_correlations(self, geometric_half, epanechnikov):
        # zeta values at sup-distance >= m are independent; below m they are not
        m, n, b = 3, 400_000, 0.5
        plan = plan_truncation(geometric_half, m=m, policy="fixed", M=m)
        _, x_m = coupled_pair(geometric_half, n, m, plan, SeedSpec(MASTER_SEED, 41))
        z = epanechnikov((0.0 - x_m) / b) / math.sqrt(b)
        z = z - z.mean()
        def corr(h):
            return float(np.mean(z[:-h] * z[h:]) / np.mean(z * z))
        noise = 4.0 / math.sqrt(n)
        assert corr(1) > 5 * noise
        for h in (3, 4, 7):
            assert abs(corr(h)) < noise

    def test_covariance_decay_bound(self, geometric_half, epanechnikov):
        # |cov(zeta_0, zeta_i)| <= C * sup p_{i,m} * b with C the same
        # order across bandwidths; sup p_{i,m} = 1 / (2 pi sqrt(v_m^2 - c_m^2))
        # for the truncated weights a = [1, 1/2, 1/4], c_m = sum_k a_k a_{k+i}
        m = 3
        a = np.array([1.0, 0.5, 0.25])
        v_m = float(a @ a)
        sup_joint = {
            h: 1.0 / (2.0 * math.pi * math.sqrt(v_m**2 - float(a[:-h] @ a[h:]) ** 2))
            for h in (1, 2)
        }
        ratios = []
        for stream, n in ((42, 200_000), (43, 50_000)):
            b = float(n) ** -0.2
            plan = plan_truncation(geometric_half, m=m, policy="fixed", M=m)
            _, x_m = coupled_pair(geometric_half, n, m, plan, SeedSpec(MASTER_SEED, stream))
            z = epanechnikov((0.0 - x_m) / b) / math.sqrt(b)
            z = z - z.mean()
            worst = 0.0
            for h in (1, 2):
                cov = abs(float(np.mean(z[:-h] * z[h:])))
                worst = max(worst, cov / (sup_joint[h] * b))
            ratios.append(worst)
        assert max(ratios) < 2.0
        assert max(ratios) <= 2.5 * min(ratios)


class TestMoments:
    @pytest.mark.parametrize(
        "sample",
        [
            np.random.default_rng(MASTER_SEED).standard_normal(3),
            np.random.default_rng(MASTER_SEED).standard_normal(200),
            np.random.default_rng(MASTER_SEED).standard_exponential(1000) * 40.0 - 7.0,
            np.random.default_rng(MASTER_SEED).standard_t(3, 57) * 1e-3 + 1e3,
            np.random.default_rng(MASTER_SEED).integers(-2, 3, 101).astype(float),
            np.full(50, 0.3),
            np.zeros(4),
        ],
    )
    def test_skew_kurtosis_match_scipy(self, sample):
        from scipy import stats

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # scipy warns on a constant sample
            want = (float(stats.skew(sample)), float(stats.kurtosis(sample, fisher=True)))
        got = _skew_kurtosis(sample)
        assert np.array_equal(got, want, equal_nan=True)


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

    @pytest.mark.parametrize("size", [100, 1024, 2500])
    def test_distance_keeps_the_bits_of_the_whole_sample_expression(self, size):
        # heavy tails reach every branch of ndtr; the chunked distance is the one-pass expression's
        from fieldkde.special import ndtr

        sample = np.random.default_rng(MASTER_SEED).standard_t(3, size) * 1.5
        xs = np.sort(sample)
        cdf = ndtr(xs / math.sqrt(0.7))
        want = float(max(np.max(np.arange(1, size + 1) / size - cdf), np.max(cdf - np.arange(0, size) / size)))
        assert ks_normality_test(sample, 0.7).distance == want

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_normality_test(np.array([]), 1.0)
        with pytest.raises(ValueError):
            ks_normality_test(np.zeros(50), 1.0)
        with pytest.raises(ValueError):
            ks_normality_test(np.zeros(200), 0.0)


WU_CASES = [
    (CoefficientModel(d=1, family="geometric", ratio=0.5), InnovationModel("gaussian")),
    (CoefficientModel(d=2, family="geometric", ratio=0.6), InnovationModel("uniform")),
    (CoefficientModel(d=1, family="power_decay", q=1.8), InnovationModel("student_t", nu=5.0)),
    (CoefficientModel(d=2, family="power_decay", q=4.0, scale=2.0), InnovationModel("uniform")),
]


class TestWuInequality:
    def test_second_moment_identity(self, geometric_half):
        (rep,) = wu_reference(geometric_half, InnovationModel("gaussian"), [1], 200_000, MASTER_SEED)
        assert abs(rep["c_hat"] - 1.0) <= 3 * rep["se"]

    def test_gaussian_fourth_moment(self, geometric_half):
        (rep,) = wu_inequality_check(geometric_half, InnovationModel("gaussian"), [2])
        (mc,) = wu_reference(geometric_half, InnovationModel("gaussian"), [2], 200_000, MASTER_SEED)
        assert rep["reference_c"] == pytest.approx(3.0, abs=1e-12)
        assert mc["c_hat"] == pytest.approx(3.0, rel=0.1)

    def test_uniform_kurtosis(self, identity_weights):
        (rep,) = wu_inequality_check(identity_weights, InnovationModel("uniform"), [2])
        (mc,) = wu_reference(identity_weights, InnovationModel("uniform"), [2], 200_000, MASTER_SEED)
        assert rep["reference_c"] == pytest.approx(9.0 / 5.0, abs=1e-12)
        assert mc["c_hat"] == pytest.approx(9.0 / 5.0, rel=0.05)

    def test_moment_precondition(self, geometric_half):
        with pytest.raises(MomentError) as exc:
            wu_inequality_check(geometric_half, InnovationModel("student_t", nu=4.0), [2])
        assert exc.value.key == "wu_p"

    @pytest.mark.parametrize("model,innov", WU_CASES)
    def test_constants_against_box_sums(self, model, innov):
        w1, w2 = wu_inequality_check(model, innov, [1, 2])
        full = coeff_box(model, 4000 if model.d == 1 else 600)
        total2, total4 = float(np.sum(full**2)), float(np.sum(full**4))
        assert w1["weight_mass"] == w2["weight_mass"] == pytest.approx(total2, rel=1e-9)
        assert w1["reference_c"] == 1.0
        assert w2["reference_c"] == pytest.approx(3 + (innov.kurtosis - 3) * total4 / total2**2, rel=1e-9)

    def test_reference_keeps_the_sampler_bits(self, geometric_half):
        # criterion 7's sample, as the run-time sampler drew it
        w1, w2 = wu_reference(geometric_half, InnovationModel("gaussian"), [1, 2], 200_000, MASTER_SEED)
        assert [w1["c_hat"].hex(), w1["se"].hex(), w2["c_hat"].hex(), w2["se"].hex()] == [
            "0x1.00082b936d0e4p+0", "0x1.9eb5577e92fa1p-9", "0x1.804e7d63f8690p+1", "0x1.665518e085d5ep-6"]

    @pytest.mark.parametrize("model,innov", WU_CASES)
    def test_box_constants_against_box_sums(self, model, innov):
        # the mean of the reference's estimate on its box: sum_box a^2 / total at p=1, and
        # (3 (sum_box a^2)^2 + (kappa - 3) sum_box a^4) / total^2 at p=2
        w1, w2 = wu_inequality_check(model, innov, [1, 2])
        a = coeff_box(model, wu_side(model, 5_000))
        box2, box4, total, kurt = float(np.sum(a**2)), float(np.sum(a**4)), w1["weight_mass"], innov.kurtosis
        bias1 = w1["reference_c"] - box2 / total
        bias2 = w2["reference_c"] - (3 * box2**2 + (kurt - 3) * box4) / total**2
        # the p=1 bias is the share eps of the mass off the box, within a tenth of the p=1 standard
        # error; off the box sum a^4 <= (sum a^2)^2 eps, so the p=2 bias is at most (6 + |kappa - 3|) eps
        assert 0 <= bias1 <= 0.1 * math.sqrt(2.0 / 5_000)
        assert abs(bias2) <= (6 + abs(kurt - 3)) * bias1

    @pytest.mark.parametrize("model,innov", WU_CASES)
    def test_closed_forms_within_the_reference_error(self, model, innov):
        # each order whose estimate has a finite variance, E|eps|^(4p) < inf; the bias bound is the one above
        sample = 50_000
        bias = 0.1 * math.sqrt(2.0 / sample)
        for rep, mc in zip(wu_inequality_check(model, innov, [1, 2]), wu_reference(model, innov, [1, 2], sample,
                                                                                     MASTER_SEED)):
            if innov.max_moment_order > 4 * rep["p"]:
                slack = bias * (1 if rep["p"] == 1 else 6 + abs(innov.kurtosis - 3))
                assert abs(mc["c_hat"] - rep["reference_c"]) <= 4 * mc["se"] + slack

    @pytest.mark.parametrize(
        "model,sample",
        [
            (CoefficientModel(d=1, family="geometric", ratio=0.5), 200_000),
            (CoefficientModel(d=1, family="geometric", ratio=0.5), 20_000),
            (CoefficientModel(d=2, family="geometric", ratio=0.7), 50_000),
            (CoefficientModel(d=1, family="power_decay", q=1.8), 200_000),
            (CoefficientModel(d=2, family="power_decay", q=4.0), 200_000),
            (CoefficientModel(d=3, family="power_decay", q=4.0), 10_000),
            (CoefficientModel(d=1, family="finite_support", table=np.ones(40)), 200_000),
            (CoefficientModel(d=2, family="finite_support", table=np.ones((3, 2))), 200_000),
        ],
    )
    def test_side_is_the_least_within_a_tenth_of_the_standard_error(self, model, sample):
        side = wu_side(model, sample)
        tol = 0.1 * math.sqrt(2.0 / sample)
        total = float(np.sum(coeff_box(model, {1: 4000, 2: 200, 3: 60}[model.d]) ** 2))

        def bias(s):  # brute force: the share of the mass off [0, s)^d
            return 1.0 - float(np.sum(coeff_box(model, s) ** 2)) / total

        support = model.support_side()
        assert bias(side) <= tol + 1e-12 and (support is None or side <= support)
        assert side == 1 or bias(side - 1) > tol + 1e-12

    def test_expected_sides(self):
        cases = [
            (CoefficientModel(d=1, family="geometric", ratio=0.5), 6),  # configs/blocks_d1.json
            (CoefficientModel(d=1, family="power_decay", q=1.8), 15),
            (CoefficientModel(d=2, family="power_decay", q=4.0), 3),  # configs/power_decay_d2.json
        ]
        assert [wu_side(model, 200_000) for model, _ in cases] == [side for _, side in cases]

    def test_rejects_sample_below_two(self, geometric_half):
        for orders in ([1], []):
            with pytest.raises(ValueError, match="sample must be >= 2"):
                wu_reference(geometric_half, InnovationModel("gaussian"), orders, 1, MASTER_SEED)

    def test_orders_share_one_sample(self, geometric_half, monkeypatch):
        innov = InnovationModel("uniform")
        apart = [wu_reference(geometric_half, innov, [p], 30_000, MASTER_SEED)[0] for p in (1, 2)]
        drawn = []

        def counting(model, rng, shape, out=None):
            out = draw_lattice(model, rng, shape, out)
            drawn.append(out.size)
            return out

        monkeypatch.setattr("wu_reference.draw_lattice", counting)
        together = wu_reference(geometric_half, innov, [1, 2], 30_000, MASTER_SEED)
        assert together == apart
        assert sum(drawn) == 30_000 * apart[0]["side"]

    @pytest.mark.parametrize(
        "innov", [InnovationModel("gaussian"), InnovationModel("uniform"), InnovationModel("student_t", nu=5.0)]
    )
    def test_keyed_blocks_equal_one_shot_reference(self, geometric_half, innov):
        # block b: rows (b * rows, (b + 1) * rows) of the sample, drawn from key (master, 400, b); the last
        # block is partial. Summed in one shot, with a two-pass variance, they give the blocks' statistics
        sample, side = 25_000, wu_side(geometric_half, 25_000)
        rows = (1 << 19) // (8 * side)
        assert 2 * rows < sample < 3 * rows
        eps = np.concatenate([
            draw_lattice(innov, Seeds(MASTER_SEED, STREAM, [b])[0], (min(rows, sample - b * rows), side))
            for b in range(3)
        ])
        abs_x = np.abs((eps * coeff_box(geometric_half, side).ravel()).sum(axis=1))
        total = total_sq_mass(geometric_half)
        for rep in wu_reference(geometric_half, innov, [1, 2], sample, MASTER_SEED):
            y = abs_x ** (2 * rep["p"])
            assert rep["c_hat"] == pytest.approx(np.mean(y) / total ** rep["p"], rel=1e-12)
            assert rep["se"] == pytest.approx(np.std(y) / math.sqrt(sample) / total ** rep["p"], rel=1e-9)

    def test_sample_memory_does_not_grow_with_its_size(self, geometric_half):
        import tracemalloc

        tracemalloc.start()
        try:
            wu_reference(geometric_half, InnovationModel("gaussian"), [1, 2], 200_000, MASTER_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # 65 MiB when each chunk was drawn whole

    def test_small_box_memory_does_not_grow_with_the_sample(self, identity_weights):
        import tracemalloc

        # a box of side 1 makes 65,536-sample blocks
        tracemalloc.start()
        try:
            wu_reference(identity_weights, InnovationModel("gaussian"), [1, 2], 5_000_000, MASTER_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # 96.5 MiB with 2^22-value chunks of |X|


def _samples(config, m, l=None):
    """``_block_samples`` at the grid points of gap ``m`` and block side ``l``."""
    return _block_samples(config, grid_points(config, "blocks", m, l, **PLAN))


class TestBlocks:
    def test_single_block_no_gap(self, identity_weights):
        # block side l = n: the single block covers everything, so the gap
        # statistic is exactly zero
        cfg1 = _config(identity_weights, n_grid=(128,), replicates=40)
        samples = _samples(cfg1, 1, 128)
        rep = block_decomposition_check(cfg1, samples)
        assert rep["rows"][0]["blocks_per_axis"] == 1
        assert rep["rows"][0]["var_delta"] == 0.0
        _, totals, etas = samples[0]
        gap = totals - etas.reshape(len(totals), -1).sum(axis=1)
        assert np.max(np.abs(gap)) == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_block_windows_equal_the_full_window_sums(self, epanechnikov, d):
        import fieldkde.clt as clt

        n, m, l, q = 40, 2, 6, 5
        rng = np.random.default_rng(MASTER_SEED)
        x_m = rng.standard_normal((3,) + (n,) * d)
        total, windows = clt._block_windows(
            x_m, x_m, np.empty((2,) + x_m.shape), kernel=epanechnikov, b=0.5, point=0.2, m=m, l=l, q=q
        )
        # every window [t, t+l)^d from the padded prefix, then the kept offsets t = idx
        prefix = block_reference.padded_prefix(clt._kernel_values(epanechnikov, 0.2, x_m, 0.5) / math.sqrt(0.5))
        full = prefix
        for ax in range(1, d + 1):
            lead = [slice(None)] * (d + 1)
            lag = [slice(None)] * (d + 1)
            lead[ax], lag[ax] = slice(l, None), slice(0, -l)
            full = full[tuple(lead)] - full[tuple(lag)]
        idx = np.arange(q) * (l + m)
        assert windows.shape == (3,) + (q,) * d
        assert np.array_equal(windows, full[(slice(None),) + np.ix_(*[idx] * d)])
        assert np.array_equal(total, prefix[(slice(None),) + (-1,) * d])

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            block_sides(64, 4, 4)
        with pytest.raises(ValueError):
            block_sides(64, 4, 128)

    def test_gap_variance_decreases(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(256, 1024, 4096),
            replicates=600,
        )
        rep = block_decomposition_check(cfg, _samples(cfg, 4))
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
        rep = lindeberg_estimate(cfg, _samples(cfg, 1, 512), [1.0])
        target = rep["sigma2_target"]
        assert rep["rows"][0]["lf1"] == pytest.approx(target, rel=0.1)

    def test_indicator_exactly_zero_for_large_eps(self, geometric_half, epanechnikov):
        cfg = _config(geometric_half, n_grid=(256,), replicates=100)
        samples = _samples(cfg, 2, 16)
        point = samples[0][0]
        # |xi| <= l * 2 sup K / sqrt(b) almost surely, so a threshold above
        # that kills the indicator for every replicate
        bound = point.l * 2 * epanechnikov.sup_value / math.sqrt(point.b)
        eps = 2.0 * bound / math.sqrt(256.0)
        rep = lindeberg_estimate(cfg, samples, [eps])
        assert rep["rows"][0]["lf2"][eps] == 0.0

    def test_lf2_decreasing(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(256, 1024, 4096),
            replicates=600,
        )
        rep = lindeberg_estimate(cfg, _samples(cfg, 4), [0.5, 1.0, 2.0])
        for e, ok in rep["verdicts"]["lf2_vanishes"].items():
            assert ok


def _synthetic_block_sample(replicates, q):
    """One n-grid point of ``_block_samples``' shape, with normal block sums, at x = 0 of the geometric field."""
    rng = np.random.default_rng(MASTER_SEED)
    model = CoefficientModel(d=1, family="geometric", ratio=0.5)
    oracle = density_oracle(model, InnovationModel("gaussian"), 4)
    # the site centering sqrt(b) * E f_n(0) of X_m is 2^-6
    point = replace(planned(model, 4096, 4, plan_truncation(model, m=4, policy="fixed", M=4)), b=4096**-0.5, l=36,
                    q=q, xs=(0.0,), centering=((0.125,), (0.125,)),
                    sigma2_target=(asymptotic_variance(float(oracle.p(0.0)), kernel_by_name("epanechnikov")),))
    return point, rng.standard_normal(replicates), rng.standard_normal((replicates, q))


def _traced_peak(fn, *args):
    """Peak bytes ``tracemalloc`` sees in a second call of fn(*args)."""
    import tracemalloc

    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLeanReductions:
    """The block and rectangle reductions give the bits of their copying versions in ``block_reference``."""

    @pytest.mark.parametrize(
        "model,n_grid,plan",
        [
            (CoefficientModel(d=1, family="geometric", ratio=0.5), (256, 512), (2, None)),
            # lead and lag pairs along both axes
            (CoefficientModel(d=2, family="power_decay", q=4.0), (32, 48), (1, 4)),
            # one block per axis: no pairs, and adjacent_corr is null
            (CoefficientModel(d=1, family="geometric", ratio=0.5), (128,), (1, 128)),
            (CoefficientModel(d=2, family="power_decay", q=4.0), (16,), (1, 16)),
        ],
    )
    def test_block_checks_equal_the_reference(self, model, n_grid, plan):
        cfg = _config(model, n_grid=n_grid, replicates=40)
        samples = _samples(cfg, *plan)
        got = block_decomposition_check(cfg, samples)
        assert got == block_reference.block_decomposition_check(cfg, samples)
        q = samples[0][0].q
        assert (got["rows"][0]["adjacent_corr"] is None) == (q == 1)
        eps = [0.05, 0.5, 0.5, 2.0, 1e6]
        assert lindeberg_estimate(cfg, samples, eps) == block_reference.lindeberg_estimate(cfg, samples, eps)

    def test_block_checks_equal_the_reference_on_a_large_sample(self, geometric_half):
        cfg = _config(geometric_half, n_grid=(4096,), replicates=2000)
        samples = [_synthetic_block_sample(2000, 102)]
        # xi = eta - 36 * 2^-6 is exactly +-1, the threshold n^(1/2) eps at eps = 2^-6
        samples[0][2][0, :2] = (1.5625, -0.4375)
        assert block_decomposition_check(cfg, samples) == block_reference.block_decomposition_check(cfg, samples)
        eps = [2.0**-6, 0.02, 0.04]
        assert lindeberg_estimate(cfg, samples, eps) == block_reference.lindeberg_estimate(cfg, samples, eps)

    def test_block_checks_hold_few_copies_of_the_sample(self, geometric_half):
        # 7.0 and 3.1 times the sample with a centred copy and stacked pairs
        cfg = _config(geometric_half, n_grid=(4096,), replicates=20_000)
        samples = [_synthetic_block_sample(20_000, 102)]
        size = samples[0][2].nbytes
        assert _traced_peak(block_decomposition_check, cfg, samples) <= 4.5 * size
        assert _traced_peak(lindeberg_estimate, cfg, samples, [0.5, 1.0, 2.0]) <= 2.5 * size

    @pytest.mark.parametrize(
        "model,n,m,M,method",
        [
            (CoefficientModel(d=1, family="geometric", ratio=0.5), 256, 2, 12, "direct"),
            (CoefficientModel(d=1, family="geometric", ratio=0.5), 256, 4, 4, "direct"),
            (CoefficientModel(d=2, family="power_decay", q=4.0), 64, 6, 15, "fourier"),
            (CoefficientModel(d=2, family="power_decay", q=4.0), 64, 8, 8, "fourier"),
        ],
    )
    @pytest.mark.parametrize("kernel", ["epanechnikov", "gaussian"])
    @pytest.mark.parametrize("point", [0.0, 2.5])
    def test_rectangle_sums_equal_the_reference(self, model, n, m, M, method, kernel, point):
        import fieldkde.clt as clt
        from fieldkde.field import CoupledWorkspace, generate_coupled_fields

        plan = plan_truncation(model, m=m, policy="fixed", M=M)
        spectra = coupled_spectra(model, planned(model, n, m, plan))
        assert spectra.method == method
        work = CoupledWorkspace(spectra, 3)
        x, x_m = generate_coupled_fields(InnovationModel("gaussian"), Seeds(MASTER_SEED, 0, range(3)), spectra, work)
        assert (x_m is x) == (m == M)
        rects = [(4,) * model.d, (n,) * model.d, tuple(range(5, 5 + model.d)), (1,) * model.d]
        args = dict(kernel=kernel_by_name(kernel), b=0.25, point=point, rects=rects)
        copy = x.copy()
        expected = block_reference.rectangle_sums(
            copy, copy if x_m is x else x_m.copy(), np.empty((2,) + x.shape), **args
        )
        got = clt._rectangle_sums(x, x_m, work.scratch(3), **args)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and np.array_equal(a, b)


def _reduction(name, point, kernel, d):
    """The engine's reduction ``name`` at ``point``, as its experiment builds it."""
    import fieldkde.clt as clt

    x, b = point.xs[0], point.b
    return {
        "kernel_sums": partial(clt._kernel_sums, xs=point.xs, kernel=kernel, b=b),
        "block_windows": partial(clt._block_windows, kernel=kernel, b=b, point=x, m=point.m, l=point.l, q=point.q),
        "rectangle_sums": partial(clt._rectangle_sums, kernel=kernel, b=b, point=x,
                                  rects=[(4,) * d, (point.l,) * d, (point.n,) * d]),
        "squared_gap": partial(clt._squared_gap, kernel=kernel, b=b, point=x),
    }[name]


class TestReductionMemory:
    """The engine holds no more than a point's planned bytes beside its results, and splits each chunk evenly."""

    @pytest.mark.parametrize("reduction", ["kernel_sums", "block_windows", "rectangle_sums", "squared_gap"])
    @pytest.mark.parametrize("method", ["direct", "fourier"])
    @pytest.mark.parametrize("d,n", [(1, 8192), (2, 96)])
    def test_peak_within_the_planned_bytes_and_the_results(self, reduction, method, d, n):
        import fieldkde.clt as clt
        from fieldkde.field import estimate_field_bytes

        model, m, M, l = CoefficientModel(d=d, family="power_decay", q=4.0), 2, 4, 8
        cfg = _config(model, n_grid=(n,), replicates=16)
        # two full batches of 8, so the workspace is the one planned, with the bytes of the method it is moved to
        point = replace(planned(model, n, m, plan_truncation(model, m=m, policy="fixed", M=M), method, 8),
                        xs=(0.1, 0.4), l=l, q=block_sides(n, m, l)[1], bytes=estimate_field_bytes(d, n, M, m, method, 8))
        assert point.batch == 8
        reduce = _reduction(reduction, point, cfg.kernel, d)
        # the outputs: their batches' parts, and at the join, the workspace freed, the joined arrays beside them
        results = sum(a.nbytes for a in clt._run_replicates(cfg, point, reduce))
        assert _traced_peak(clt._run_replicates, cfg, point, reduce) <= point.bytes + results

    @pytest.mark.parametrize("replicates,batch", [(17, 7), (200, 126), (23, 10), (24, 8), (9, 1), (5, 5)])
    def test_a_chunk_runs_ceil_c_over_batch_batches_differing_by_at_most_one(self, monkeypatch, geometric_half,
                                                                             replicates, batch):
        import fieldkde.clt as clt

        seen, workspaces = [], []
        generate, workspace = clt.generate_coupled_fields, clt.CoupledWorkspace

        def recording_generate(innovations, seeds, *args):
            seen.append(len(seeds))
            return generate(innovations, seeds, *args)

        def recording_workspace(spectra, size):
            workspaces.append(size)
            return workspace(spectra, size)

        monkeypatch.setattr(clt, "generate_coupled_fields", recording_generate)
        monkeypatch.setattr(clt, "CoupledWorkspace", recording_workspace)
        cfg = _config(geometric_half, n_grid=(64,), replicates=replicates)
        point = replace(planned(geometric_half, 64, 2, plan_truncation(geometric_half, m=2, policy="fixed", M=4),
                                replicates=replicates), batch=batch)
        (rows,) = clt._run_replicates(cfg, point, lambda x, x_m, scratch: (x[:, 0],))
        assert len(rows) == sum(seen) == replicates
        assert len(seen) == -(-replicates // batch) and max(seen) - min(seen) <= 1
        assert workspaces == [max(seen)] and max(seen) <= batch


class TestRectangles:
    def test_iid_normalisation_constant(self, identity_weights):
        # independence: ||sum over rect||_2 / sqrt(vol) equals ||zeta_bar||_2
        # for every rectangle, up to Monte Carlo noise
        cfg = _config(identity_weights, n_grid=(1024,), replicates=500)
        rep = rectangle_moment_check(cfg, [4, 16, 64, 256, 1024], grid_points(cfg, "rectangles", **PLAN))
        vals = [r["zeta_normalized_l2"] for r in rep["rows"]]
        assert max(vals) / min(vals) < 1.2

    def test_geometric_bounded(self, geometric_half):
        cfg = _config(geometric_half, n_grid=(1024,), replicates=400)
        rep = rectangle_moment_check(cfg, [2**r for r in range(2, 11)], grid_points(cfg, "rectangles", delta=0.25))
        assert rep["max_min_ratio"] < 3.0
        assert rep["passed"]

    def test_rectangle_larger_than_the_grid_is_rejected(self, identity_weights):
        cfg = _config(identity_weights, n_grid=(64, 128), replicates=5)
        with pytest.raises(ValueError, match=r"rectangle \[128\] does not fit inside n=64"):
            rectangle_moment_check(cfg, [4, 128], grid_points(cfg, "rectangles", **PLAN))
        with pytest.raises(ValueError, match="need at least one rectangle"):
            rectangle_moment_check(cfg, [], grid_points(cfg, "rectangles", **PLAN))

    def test_scaling_leaves_verdict_unchanged(self):
        base = CoefficientModel(d=1, family="power_decay", q=2.5)
        doubled = CoefficientModel(d=1, family="power_decay", q=2.5, scale=2.0)
        rects = [4, 16, 64, 256]
        reps = []
        for model in (base, doubled):
            cfg = _config(model, n_grid=(256,), replicates=200)
            reps.append(rectangle_moment_check(cfg, rects, grid_points(cfg, "rectangles", delta=0.25)))
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
        rep = fixed_m_gap(cfg, grid_points(cfg, "gap", 1, **PLAN), "fixed")
        assert all(r["gap"] == 0.0 for r in rep["rows"])

    def test_fixed_gap_matches_quadrature(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(4096,),
            replicates=60,
        )
        rep = fixed_m_gap(cfg, grid_points(cfg, "gap", 2, **PLAN), "fixed")
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
        rep = fixed_m_gap(cfg, grid_points(cfg, "gap", 2, **PLAN), "fixed")
        assert rep["oracle_limit"] == pytest.approx(0.42139138362113, abs=1e-10)
        assert rep["passed"]

    def test_growing_gap_halves(self, geometric_half):
        cfg = _config(
            geometric_half,
            bandwidth=BandwidthSchedule(d=1, gamma=0.5),
            n_grid=(1024, 4096, 16384),
            replicates=60,
        )
        rep = fixed_m_gap(cfg, grid_points(cfg, "gap", x_points=(0.0,), delta=0.25), "growing")
        gaps = [r["gap"] for r in rep["rows"]]
        assert gaps[-1] <= 0.5 * gaps[0]
        assert rep["fitted_c"] > 0

