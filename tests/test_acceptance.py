"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 depends on how n^delta becomes an integer.  The truncation
schedule is m_n = round(n^(5/12)), which gives m=4 at n=32 and m=6 at n=64;
while the bandwidth halves, the residual-to-bandwidth ratio B_{m_n}/b_n then
falls from 0.185 to 0.128 (exact shell sums, independent of the kernel), so
Var(T_remainder) contracts.  Under a floor, m=5 at n=64 and the ratio rises
to 0.208 instead.  Integer truncation keeps B_{m_n}/b_n a sawtooth in n even
under rounding (it rises from n=128 to n=256), so the criterion holds for
this grid pair, not for every pair of lattice sides.
"""

import math
import time

import numpy as np
import pytest

from fieldkde import (
    BandwidthSchedule,
    CoefficientModel,
    ExperimentConfig,
    InnovationModel,
    block_decomposition_check,
    check_decay_window,
    check_hallin,
    fixed_m_gap,
    grid_points,
    kernel_by_name,
    lattice_convolve,
    lindeberg_estimate,
    rectangle_moment_check,
    run_clt_experiment,
)
from fieldkde.clt import _block_samples
from fieldkde.coefficients import coeff_box
from fieldkde.innovations import draw_lattice
from fieldkde.reporting import canonical_json

from conftest import MASTER_SEED, generator
from wu_reference import wu_reference

SIGMA0_EPAN = 0.2393653682408596  # phi(0) * 3/5
GAP_LIMIT = 0.42139138362113384  # (p_2(0) + p(0)) * 3/5 for the geometric model


def _line(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def d2_experiment():
    """Power-decay d=2 regime shared by criteria 2 and 3."""
    model = CoefficientModel(d=2, family="power_decay", q=4.0)
    cfg = ExperimentConfig(
        model=model,
        innovations=InnovationModel("gaussian"),
        kernel=kernel_by_name("gaussian"),
        bandwidth=BandwidthSchedule(d=2, gamma=1.0),
        master_seed=MASTER_SEED,
    )
    start = time.time()
    points = grid_points(cfg, "clt", (32, 64), 500, x_points=(0.0,), delta=5.0 / 12.0)
    report, table = run_clt_experiment(cfg, points, variance_band=0.15)
    return report, table, time.time() - start


def test_criterion_1_iid_baseline():
    """d=1 classical regime: variance, mean and KS of T_n at n=4096, R=1000."""
    model = CoefficientModel(d=1, family="finite_support", table=np.array([1.0]))
    cfg = ExperimentConfig(
        model=model,
        innovations=InnovationModel("gaussian"),
        kernel=kernel_by_name("epanechnikov"),
        bandwidth=BandwidthSchedule(d=1, gamma=0.2),
        master_seed=MASTER_SEED,
    )
    start = time.time()
    report, _ = run_clt_experiment(cfg, grid_points(cfg, "clt", (4096,), 1000, x_points=(0.0,), delta=0.05))
    elapsed = time.time() - start
    pt = report["points"][0]
    var_ok = abs(pt["variance"] - SIGMA0_EPAN) <= 0.10 * SIGMA0_EPAN
    mean_ok = abs(pt["mean"]) <= 3.0 * math.sqrt(SIGMA0_EPAN / 1000.0)
    ks_ok = pt["ks"]["distance"] < pt["ks"]["crit_01"]
    time_ok = elapsed < 120.0
    ok = var_ok and mean_ok and ks_ok and time_ok
    _line(
        1,
        ok,
        f"variance {pt['variance']:.5f} vs {SIGMA0_EPAN:.5f} +-10%, "
        f"mean {pt['mean']:+.5f}, KS {pt['ks']['distance']:.4f} < {pt['ks']['crit_01']:.4f}, "
        f"{elapsed:.1f}s",
    )
    assert var_ok, f"variance {pt['variance']:.5f} outside {SIGMA0_EPAN:.5f} +- 10%"
    assert mean_ok and ks_ok and time_ok


def test_criterion_2_dependent_d2(d2_experiment):
    """Power-decay d=2 regime at n=64: moments and KS against the exact oracle."""
    report, _, elapsed = d2_experiment
    pt = [p for p in report["points"] if p["n"] == 64][0]
    sigma2 = pt["sigma2_target"]
    var_ok = abs(pt["variance"] - sigma2) <= 0.15 * sigma2
    skew_ok = abs(pt["skewness"]) < 0.2
    kurt_ok = abs(pt["excess_kurtosis"]) < 0.5
    ks_ok = pt["ks"]["distance"] < pt["ks"]["crit_01"]
    time_ok = elapsed < 600.0
    ok = var_ok and skew_ok and kurt_ok and ks_ok and time_ok
    _line(
        2,
        ok,
        f"variance {pt['variance']:.5f} vs {sigma2:.5f} +-15%, skew {pt['skewness']:+.3f}, "
        f"kurtosis {pt['excess_kurtosis']:+.3f}, KS {pt['ks']['distance']:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_remainder_contraction(d2_experiment):
    """Var(T_remainder) should drop from n=32 to n=64 and sit below 0.1 Var(T_n)."""
    report, table, _ = d2_experiment
    p64 = [p for p in report["points"] if p["n"] == 64][0]
    v32 = float(np.var(table["T_remainder"][table["n"] == 32], ddof=1))
    v64 = float(np.var(table["T_remainder"][table["n"] == 64], ddof=1))
    contraction_ok = v64 < v32
    share_ok = v64 <= 0.1 * p64["variance"]
    ok = contraction_ok and share_ok
    _line(
        3,
        ok,
        f"Var(T_rem) {v32:.5f} -> {v64:.5f} (strict decrease: {contraction_ok}), "
        f"share at n=64 {v64 / p64['variance']:.4f} <= 0.1: {share_ok}",
    )
    assert share_ok
    assert contraction_ok, (
        f"Var(T_remainder) rose {v32:.5f} -> {v64:.5f}: m_n = round(n^(5/12)) should "
        "give m=4 -> 6 while b halves, so B_m/b falls 0.185 -> 0.128 at this n pair; "
        "see the module docstring"
    )


def test_criterion_4_condition_checker_table():
    """Deterministic checker table."""
    a = check_decay_window(2, 3.0, 1.0)
    t1 = a.passed and a.delta_interval == pytest.approx((1.0 / 3.0, 0.5))
    t2 = not check_decay_window(1, 0.8, 0.3).passed
    t3 = not check_decay_window(2, 3.0, 1.3).passed
    t4 = check_hallin(1, 5.0, 0.3).passed
    t5 = not check_hallin(1, 5.0, 0.4).passed
    ok = t1 and t2 and t3 and t4 and t5
    _line(4, ok, f"window {t1, t2, t3}, hallin {t4, t5}")
    assert ok


def test_criterion_5_truncation_gap():
    """Fixed m=2: gap stabilises at 0.42139; growing m_n: gap halves."""
    model = CoefficientModel(d=1, family="geometric", ratio=0.5)
    base = dict(
        model=model,
        innovations=InnovationModel("gaussian"),
        kernel=kernel_by_name("epanechnikov"),
        bandwidth=BandwidthSchedule(d=1, gamma=0.5),
        master_seed=MASTER_SEED,
    )
    cfg, n_grid = ExperimentConfig(**base), (1024, 4096, 16384)
    fixed = fixed_m_gap(cfg, grid_points(cfg, "gap", n_grid, 150, 2, x_points=(0.0,)), "fixed")
    gaps = [r["gap"] for r in fixed["rows"]]
    limit_ok = abs(gaps[-1] - GAP_LIMIT) <= 0.15 * GAP_LIMIT
    not_vanishing = gaps[-1] >= 0.5 * max(gaps)
    growing = fixed_m_gap(cfg, grid_points(cfg, "gap", n_grid, 150, x_points=(0.0,), delta=0.25), "growing")
    ggaps = [r["gap"] for r in growing["rows"]]
    halved = ggaps[-1] <= 0.5 * ggaps[0]
    ok = limit_ok and not_vanishing and halved
    _line(
        5,
        ok,
        f"fixed-m gaps {[round(g, 4) for g in gaps]} vs limit {GAP_LIMIT:.5f} "
        f"(+-15% at largest n: {limit_ok}), growing-m {ggaps[0]:.4f} -> {ggaps[-1]:.4f}",
    )
    assert ok


def test_criterion_6_block_machinery():
    """d=1 blocks: Var(Delta) strictly decreasing, blocks uncorrelated, LF2 down."""
    model = CoefficientModel(d=1, family="geometric", ratio=0.5)
    cfg = ExperimentConfig(
        model=model,
        innovations=InnovationModel("gaussian"),
        kernel=kernel_by_name("epanechnikov"),
        bandwidth=BandwidthSchedule(d=1, gamma=0.5),
        master_seed=MASTER_SEED,
    )
    # l_n = 4 * ceil(log n)
    samples = _block_samples(cfg, grid_points(cfg, "blocks", (256, 1024, 4096), 1500, 4, x_points=(0.0,)))
    dec = block_decomposition_check(cfg, samples)
    lf = lindeberg_estimate(cfg, samples, [0.5, 1.0, 2.0])
    vals = [r["var_delta"] for r in dec["rows"]]
    var_ok = all(b < a for a, b in zip(vals, vals[1:]))
    corr_ok = dec["verdicts"]["adjacent_blocks_uncorrelated"]
    lf2_ok = all(lf["verdicts"]["lf2_vanishes"].values())
    ok = var_ok and corr_ok and lf2_ok
    _line(
        6,
        ok,
        f"Var(Delta) {[round(v, 5) for v in vals]} decreasing: {var_ok}, "
        f"block corr ok: {corr_ok}, LF2 vanishing: {lf2_ok}",
    )
    assert ok


def test_criterion_7_moment_inequalities():
    """Wu constants at p=1,2 and bounded rectangle normalisation."""
    model = CoefficientModel(d=1, family="geometric", ratio=0.5)
    gauss = InnovationModel("gaussian")
    w1, w2 = wu_reference(model, gauss, [1, 2], 200_000, MASTER_SEED)
    p1_ok = abs(w1["c_hat"] - 1.0) <= 3.0 * w1["se"]
    p2_ok = abs(w2["c_hat"] - 3.0) <= 0.10 * 3.0
    cfg = ExperimentConfig(
        model=model,
        innovations=gauss,
        kernel=kernel_by_name("epanechnikov"),
        bandwidth=BandwidthSchedule(d=1, gamma=0.2),
        master_seed=MASTER_SEED,
    )
    points = grid_points(cfg, "moment_check", (1024,), 400, x_points=(0.0,), delta=0.25)
    rect = rectangle_moment_check(cfg, [2**r for r in range(2, 11)], points)
    rect_ok = rect["max_min_ratio"] < 3.0
    ok = p1_ok and p2_ok and rect_ok
    _line(
        7,
        ok,
        f"C(p=1) {w1['c_hat']:.4f} +- {w1['se']:.4f}, C(p=2) {w2['c_hat']:.4f}, "
        f"rectangle max/min {rect['max_min_ratio']:.3f} < 3",
    )
    assert ok


def test_criterion_8_engineering_invariants():
    """Convolution agreement, exact coupling, thread-count bit-identity."""
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        side = int(rng.integers(4, 20 if d == 3 else 40))
        ms = int(rng.integers(1, side + 1))
        lat = rng.standard_normal((side,) * d)
        coeffs = rng.standard_normal((ms,) * d)
        a = lattice_convolve(lat, coeffs, "direct")
        b = lattice_convolve(lat, coeffs, "fourier")
        worst = max(worst, float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300)))
    conv_ok = worst <= 1e-8

    from fieldkde import Seeds, coupled_spectra, generate_coupled_fields, plan_truncation
    from fieldkde.clt import plan_point

    coupling_ok = True
    for model in (
        CoefficientModel(d=1, family="geometric", ratio=0.5),
        CoefficientModel(d=2, family="power_decay", q=4.0),
    ):
        plan = plan_truncation(model, m=2, policy="fixed", M=12)
        spectra = coupled_spectra(model, plan_point(model, 48, 2, 0.5, plan, 9, 1, 1 << 30))
        x, x_m = generate_coupled_fields(InnovationModel("gaussian"), Seeds(MASTER_SEED, 9, [0]), spectra)
        # X - X_m is the residual: the same innovations convolved with the weights off [0, 2)^d
        tail = coeff_box(model, 12)
        tail[(slice(0, 2),) * model.d] = 0.0
        eps = draw_lattice(InnovationModel("gaussian"), generator(MASTER_SEED, 9), (48 + 12 - 1,) * model.d)
        gap = np.max(np.abs(x[0] - x_m[0] - lattice_convolve(eps, tail, "direct")))
        coupling_ok &= gap <= 1e-12 * np.max(np.abs(x))

    model = CoefficientModel(d=1, family="geometric", ratio=0.5)
    blobs = []
    for threads in (1, 4, 8):
        cfg = ExperimentConfig(
            model=model,
            innovations=InnovationModel("gaussian"),
            kernel=kernel_by_name("epanechnikov"),
            bandwidth=BandwidthSchedule(d=1, gamma=0.2),
            master_seed=MASTER_SEED,
            threads=threads,
        )
        points = grid_points(cfg, "clt", (256,), 40, x_points=(0.0,), delta=0.15)
        blobs.append(canonical_json(run_clt_experiment(cfg, points)))
    threads_ok = blobs[0] == blobs[1] == blobs[2]
    ok = conv_ok and coupling_ok and threads_ok
    _line(
        8,
        ok,
        f"conv rel err {worst:.2e} <= 1e-8, coupling exact: {coupling_ok}, "
        f"thread bit-identity: {threads_ok}",
    )
    assert ok
