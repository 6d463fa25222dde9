"""Monte Carlo verification lab for the normalised kernel density estimator.

Per replicate the statistic T_n = (n^d b)^(1/2) (f_n(x) - E f_n(x)) splits
exactly into the m-dependent part S_n(zeta_bar)/n^(d/2) built from the
truncated field and the remainder built from the coupled difference.  The
lab estimates the distribution of all three across replicates, runs the
big-block construction and its triangular-array side conditions, tracks the
moment-inequality constants on rectangles, and measures the truncation gap
under fixed and growing m.

All replicate work is deterministic in (master seed, stream, replicate), so
reports are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy import stats as sstats
from scipy.special import ndtr

from .coefficients import (
    CoefficientModel,
    check_decay_window,
    coeff_box,
    residual_sqrt_mass,
    tail_functionals,
    total_sq_mass,
)
from .field import (
    DEFAULT_MAX_FIELD_BYTES,
    TruncationPlan,
    generate_coupled_fields,
    plan_truncation,
)
from .innovations import InnovationModel, SeedSpec, spawn_rng, _draw
from .kde import (
    BandwidthSchedule,
    KernelModel,
    OracleError,
    asymptotic_variance,
    density_oracle,
    expected_kde,
)

__all__ = [
    "ExperimentConfig",
    "CltReport",
    "BlockPlan",
    "KsResult",
    "MomentError",
    "normalized_statistic",
    "run_clt_experiment",
    "block_decomposition_check",
    "lindeberg_estimate",
    "rectangle_moment_check",
    "wu_inequality_check",
    "fixed_m_gap",
    "ks_normality_test",
    "m_schedule",
]

KS_CRIT_05 = 1.358
KS_CRIT_01 = 1.628
MIN_REPLICATES_FOR_VERDICT = 100

# Seed streams: grid point ni of an experiment draws from stream offset + ni,
# so a grid longer than MAX_GRID_POINTS would reuse the next experiment's draws.
STREAM_OFFSETS = {"clt": 0, "blocks": 100, "rectangles": 200, "gap": 300, "wu": 400}
MAX_GRID_POINTS = 100


class MomentError(ValueError):
    """A moment precondition on the innovations is violated."""


def m_schedule(n: int, delta: float) -> int:
    """Truncation order m_n = floor(n^delta), at least 1."""
    return max(1, math.floor(float(n) ** delta))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    model: CoefficientModel
    innovations: InnovationModel
    kernel: KernelModel
    bandwidth: BandwidthSchedule
    n_grid: tuple
    x_points: tuple | None = None  # absolute; None -> (0, 0.5, 1) * sqrt(variance)
    delta: float | None = None  # None -> midpoint of the feasible window
    truncation_policy: str = "bandwidth_relative"
    truncation_eta: float = 0.01
    truncation_M: int | None = None
    replicates: int = 200
    master_seed: int = 20260810
    centering: str = "oracle"  # or "pooled"
    variance_band: float = 0.10
    threads: int = 1
    max_field_bytes: int = DEFAULT_MAX_FIELD_BYTES

    def __post_init__(self):
        if self.model.d != self.bandwidth.d:
            raise ValueError("model and bandwidth dimension disagree")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if len(self.n_grid) > MAX_GRID_POINTS:
            raise ValueError(f"n_grid holds at most {MAX_GRID_POINTS} points")
        if self.centering not in ("oracle", "pooled"):
            raise ValueError("centering must be 'oracle' or 'pooled'")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.x_points is not None:
            object.__setattr__(self, "x_points", tuple(float(x) for x in self.x_points))

    def resolve_delta(self) -> tuple[float, dict]:
        window = check_decay_window(
            self.model.d, self.model.decay_exponent(), self.bandwidth.gamma
        )
        if self.delta is not None:
            return self.delta, window.to_dict()
        if not window.passed:
            raise ValueError(
                "no truncation exponent supplied and the decay/bandwidth window is empty"
            )
        return window.delta_star, window.to_dict()

    def resolve_x(self) -> tuple:
        if self.x_points is not None:
            return self.x_points
        sd = math.sqrt(total_sq_mass(self.model))
        return (0.0, 0.5 * sd, 1.0 * sd)

    def resolved(self) -> dict:
        delta, window = self.resolve_delta()
        return {
            "model": self.model.to_config(),
            "innovations": self.innovations.to_config(),
            "kernel": self.kernel.name,
            "bandwidth": self.bandwidth.to_config(),
            "n_grid": list(self.n_grid),
            "x_points": list(self.resolve_x()),
            "delta": delta,
            "decay_window": window,
            "truncation": {
                "policy": self.truncation_policy,
                "eta": self.truncation_eta,
                "M": self.truncation_M,
            },
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "centering": self.centering,
            "variance_band": self.variance_band,
            # worker count changes wall time only, never numbers, so it is
            # recorded in the manifest rather than the report
        }


def _plan_for(config: ExperimentConfig, m: int, b: float) -> TruncationPlan:
    return plan_truncation(
        config.model,
        m=m,
        policy=config.truncation_policy,
        b=b,
        eta=config.truncation_eta,
        M=config.truncation_M,
    )


# ---------------------------------------------------------------------------
# replicate scheduling


def _replicate_chunk(config: ExperimentConfig, n, m, plan, stream, reduce, start, stop) -> list:
    return [
        reduce(
            generate_coupled_fields(
                config.model, config.innovations, n, m, plan,
                SeedSpec(config.master_seed, stream, r), max_bytes=config.max_field_bytes,
            )
        )
        for r in range(start, stop)
    ]


def _run_replicates(config: ExperimentConfig, n, m, plan, stream, reduce) -> list:
    """reduce(coupled fields) for replicates 0..R-1, in replicate order.

    Each of min(threads, cpu count, R) workers runs one contiguous chunk of
    replicates; replicate r always draws from SeedSpec(master, stream, r), so
    the result does not depend on the worker count.
    """
    R = config.replicates
    workers = min(config.threads, os.cpu_count() or 1, R)
    chunk = partial(_replicate_chunk, config, n, m, plan, stream, reduce)
    if workers == 1:
        return chunk(0, R)
    bounds = [R * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for part in pool.map(chunk, bounds[:-1], bounds[1:]) for row in part]


def _padded_prefix(arr: np.ndarray) -> np.ndarray:
    """Prefix sums with a zero layer in front of every axis."""
    out = arr
    for ax in range(arr.ndim):
        out = np.cumsum(out, axis=ax)
        pad = [(0, 0)] * arr.ndim
        pad[ax] = (1, 0)
        out = np.pad(out, pad)
    return out


def _window_sums(prefix: np.ndarray, l: int) -> np.ndarray:
    """Box sums over [t, t+l)^d for every offset t, from a padded prefix."""
    out = prefix
    for ax in range(prefix.ndim):
        lead = [slice(None)] * prefix.ndim
        lag = [slice(None)] * prefix.ndim
        lead[ax] = slice(l, None)
        lag[ax] = slice(0, -l)
        out = out[tuple(lead)] - out[tuple(lag)]
    return out


# ---------------------------------------------------------------------------
# normalised statistic


def _kernel_sums(fields, xs, kernel, b):
    """Raw kernel sums over the lattice for the full and truncated fields."""
    xf = fields.full.values.ravel()
    xt = fields.truncated.values.ravel()
    xs = np.asarray(xs, dtype=float)
    sums_f = np.array([float(kernel((x - xf) / b).sum()) for x in xs])
    sums_t = np.array([float(kernel((x - xt) / b).sum()) for x in xs])
    return sums_f, sums_t


def _oracle_means(oracle, kernel: KernelModel, b: float, xs, truncated=(False, True)) -> tuple:
    """Exact E f_n(x) (flag False) or E f_n^truncated(x) (flag True) at each x, one array per flag."""
    if not oracle.exact:
        raise OracleError("oracle centering needs Gaussian innovations")
    return tuple(
        np.array([expected_kde(oracle, kernel, b, x, truncated=t) for x in xs]) for t in truncated
    )


def _decompose(fn, fnm, ef, efm, scale):
    """(T_n, T_zeta, T_remainder) from raw full/truncated estimates and their centerings."""
    return scale * (fn - ef), scale * (fnm - efm), scale * ((fn - fnm) - (ef - efm))


def normalized_statistic(
    fields,
    x: float,
    kernel: KernelModel,
    b: float,
    centering: str = "oracle",
    expectations: tuple[float, float] | None = None,
):
    """(T_n, T_zeta, T_remainder) for one coupled replicate at one x.

    ``expectations`` may carry precomputed (E f_n, E f_n^truncated); with
    oracle centering and no expectations they are derived from the exact
    Gaussian oracle (non-Gaussian innovations are refused).  With pooled
    centering the caller must supply the pooled means.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    N = fields.full.n**fields.full.d
    sums_f, sums_t = _kernel_sums(fields, [x], kernel, b)
    if expectations is None:
        if centering == "pooled":
            raise ValueError("pooled centering needs precomputed pooled means")
        oracle = density_oracle(fields.model, fields.innovations, fields.m)
        ef, efm = (e[0] for e in _oracle_means(oracle, kernel, b, [x]))
    else:
        ef, efm = expectations
    return _decompose(sums_f[0] / (N * b), sums_t[0] / (N * b), ef, efm, math.sqrt(N * b))


# ---------------------------------------------------------------------------
# KS test


@dataclass(frozen=True)
class KsResult:
    distance: float
    crit_05: float
    crit_01: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "distance": self.distance,
            "crit_05": self.crit_05,
            "crit_01": self.crit_01,
            "n_samples": self.n_samples,
        }


def ks_normality_test(samples, sigma2: float) -> KsResult:
    """One-sample KS distance to N(0, sigma2) with asymptotic critical values."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample")
    if samples.size < MIN_REPLICATES_FOR_VERDICT:
        raise ValueError("KS verdict needs at least 100 samples")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    xs = np.sort(samples)
    n = xs.size
    cdf = ndtr(xs / math.sqrt(sigma2))
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    dist = float(max(np.max(up - cdf), np.max(cdf - lo)))
    root = math.sqrt(n)
    return KsResult(dist, KS_CRIT_05 / root, KS_CRIT_01 / root, n)


# ---------------------------------------------------------------------------
# main experiment


@dataclass
class CltReport:
    """Replicate statistics of T_n and its decomposition, per (n, x)."""

    config: dict
    points: list = field(default_factory=list)
    overall: str = "inconclusive"
    nonfinite: int = 0

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "points": self.points,
            "overall": self.overall,
            "nonfinite": self.nonfinite,
        }


def run_clt_experiment(config: ExperimentConfig) -> CltReport:
    """Estimate the law of T_n over independent replicates on the (n, x) grid.

    Verdict per point: "consistent" when |mean| <= 3*sqrt(sigma_x^2/R), the
    empirical variance sits within ``variance_band`` of sigma_x^2 =
    p(x) int K^2, and the KS distance to N(0, sigma_x^2) clears the 1%
    asymptotic critical value; "inconclusive" for R < 100.
    """
    model, innov, kern, bw = config.model, config.innovations, config.kernel, config.bandwidth
    delta, _ = config.resolve_delta()
    xs = config.resolve_x()
    R = config.replicates
    if config.centering == "oracle" and not innov.is_gaussian:
        raise OracleError("oracle centering needs Gaussian innovations; use pooled")
    report = CltReport(config=config.resolved())
    verdicts = []
    for ni, n in enumerate(config.n_grid):
        m = m_schedule(n, delta)
        b = bw.b(n)
        plan = _plan_for(config, m, b)
        oracle = density_oracle(model, innov, m)
        stream = STREAM_OFFSETS["clt"] + ni
        rows = _run_replicates(config, n, m, plan, stream, partial(_kernel_sums, xs=xs, kernel=kern, b=b))
        N = n**model.d
        raw_f, raw_t = (np.array(sums) / (N * b) for sums in zip(*rows))
        if config.centering == "oracle":
            ef, efm = _oracle_means(oracle, kern, b, xs)
        else:
            ef, efm = raw_f.mean(axis=0), raw_t.mean(axis=0)
        t_full, t_zeta, t_rem = _decompose(raw_f, raw_t, ef, efm, math.sqrt(N * b))
        report.nonfinite += int(np.sum(~np.isfinite(t_full)))
        for xi, x in enumerate(xs):
            T = t_full[:, xi]
            sigma2 = asymptotic_variance(float(oracle.p(x)), kern)
            entry = {
                "n": n,
                "x": x,
                "b": b,
                "m": m,
                "M": plan.M,
                "replicates": R,
                "seeds": {"master": config.master_seed, "stream": stream},
                "centering": config.centering,
                "sigma2_target": sigma2,
                "sigma2_exact_oracle": oracle.exact,
                "oracle": oracle.summary(),
                "T": T.tolist(),
                "T_zeta": t_zeta[:, xi].tolist(),
                "T_remainder": t_rem[:, xi].tolist(),
                "mean": float(T.mean()),
                "variance": float(T.var(ddof=1)) if R > 1 else 0.0,
                "skewness": float(sstats.skew(T)) if R > 2 else 0.0,
                "excess_kurtosis": float(sstats.kurtosis(T, fisher=True)) if R > 3 else 0.0,
                "remainder_second_moment": float(np.mean(t_rem[:, xi] ** 2)),
            }
            if config.centering == "pooled":
                entry["pooled_correlation"] = 1.0 / R
            if R >= MIN_REPLICATES_FOR_VERDICT:
                ks = ks_normality_test(T, sigma2)
                mean_ok = abs(entry["mean"]) <= 3.0 * math.sqrt(sigma2 / R)
                var_ok = abs(entry["variance"] - sigma2) <= config.variance_band * sigma2
                ks_ok = ks.distance < ks.crit_01
                entry["ks"] = ks.to_dict()
                entry["verdicts"] = {
                    "mean_ok": bool(mean_ok),
                    "variance_ok": bool(var_ok),
                    "ks_ok": bool(ks_ok),
                    "overall": "consistent" if (mean_ok and var_ok and ks_ok) else "fail",
                }
            else:
                entry["verdicts"] = {"overall": "inconclusive"}
            verdicts.append(entry["verdicts"]["overall"])
            report.points.append(entry)
    if any(v == "fail" for v in verdicts):
        report.overall = "fail"
    elif all(v == "consistent" for v in verdicts):
        report.overall = "consistent"
    else:
        report.overall = "inconclusive"
    return report


# ---------------------------------------------------------------------------
# big-block construction


@dataclass(frozen=True)
class BlockPlan:
    """Block side l_n and gap m_n; default l_n = m_n * ceil(log n)."""

    m: int | None = None
    delta: float | None = None
    l: int | None = None

    def resolve(self, n: int) -> tuple[int, int, int]:
        if (self.m is None) == (self.delta is None):
            raise ValueError("specify exactly one of fixed m or schedule delta")
        m_n = self.m if self.m is not None else m_schedule(n, self.delta)
        l_n = self.l if self.l is not None else m_n * math.ceil(math.log(n))
        if l_n <= m_n:
            raise ValueError(f"need l_n > m_n (got l={l_n}, m={m_n})")
        if l_n > n:
            raise ValueError(f"block side {l_n} exceeds the lattice side {n}")
        q = n // (l_n + m_n)
        return m_n, l_n, max(q, 1)


def _block_windows(fields, kernel, b, x, l, q):
    """Total and big-block sums of the truncated kernel field K((x - X_m)/b)/sqrt(b)."""
    raw = kernel((x - fields.truncated.values) / b) / math.sqrt(b)
    prefix = _padded_prefix(raw)
    total = float(prefix[(-1,) * raw.ndim])
    windows = _window_sums(prefix, l)
    idx = np.arange(q) * (l + fields.m)
    eta = windows[np.ix_(*[idx] * raw.ndim)]
    return total, eta


def _block_samples(config: ExperimentConfig, plan: BlockPlan) -> list[dict]:
    """Per-n raw block sums of the truncated kernel field (shared by checks)."""
    model, innov, kern, bw = config.model, config.innovations, config.kernel, config.bandwidth
    x = config.resolve_x()[0]
    out = []
    for ni, n in enumerate(config.n_grid):
        m, l, q = plan.resolve(n)
        b = bw.b(n)
        tplan = TruncationPlan(M=m, B_M=residual_sqrt_mass(model, m), policy="fixed")
        reduce = partial(_block_windows, kernel=kern, b=b, x=x, l=l, q=q)
        rows = _run_replicates(config, n, m, tplan, STREAM_OFFSETS["blocks"] + ni, reduce)
        totals, etas = (np.array(col) for col in zip(*rows))
        if config.centering == "oracle":
            oracle = density_oracle(model, innov, m)
            (efm,) = _oracle_means(oracle, kern, b, [x], truncated=(True,))
            e_site = math.sqrt(b) * float(efm[0])
        else:
            e_site = float(totals.mean()) / (n**model.d)
        out.append(
            {
                "n": n,
                "m": m,
                "l": l,
                "q": q,
                "b": b,
                "x": x,
                "e_site": e_site,
                "totals": totals,
                "etas": etas,
            }
        )
    return out


def block_decomposition_check(config: ExperimentConfig, plan: BlockPlan, samples=None) -> dict:
    """Gap between the full sum and the big-block sum of the truncated field.

    Per replicate Delta = (S_n(Y) - S_n(eta)) / n^(d/2); the report carries
    Var(Delta) along the n-grid, the rate proxy m_n/(l_n + m_n), and an
    independence audit of adjacent blocks (their sample correlation must sit
    within +-4/sqrt(#blocks * R)).  Verdict: Var(Delta) strictly decreasing.
    """
    samples = samples or _block_samples(config, plan)
    d = config.model.d
    rows = []
    for s in samples:
        n, m, l, q = s["n"], s["m"], s["l"], s["q"]
        center_full = (n**d) * s["e_site"]
        center_block = (l**d) * s["e_site"]
        eta_c = s["etas"] - center_block
        s_full = s["totals"] - center_full
        s_eta = eta_c.reshape(eta_c.shape[0], -1).sum(axis=1)
        delta = (s_full - s_eta) / float(n) ** (d / 2.0)
        pairs = []
        for ax in range(d):
            lead = [slice(None)] * (d + 1)
            lag = [slice(None)] * (d + 1)
            lead[ax + 1] = slice(0, -1)
            lag[ax + 1] = slice(1, None)
            if eta_c.shape[ax + 1] > 1:
                pairs.append(
                    np.stack(
                        [eta_c[tuple(lead)].ravel(), eta_c[tuple(lag)].ravel()]
                    )
                )
        if pairs:
            stacked = np.concatenate(pairs, axis=1)
            corr = float(np.corrcoef(stacked)[0, 1])
        else:
            corr = None
        n_blocks = q**d
        rows.append(
            {
                "n": n,
                "m": m,
                "l": l,
                "blocks_per_axis": q,
                "var_delta": float(np.var(delta, ddof=1)),
                "rate_proxy": m / (l + m),
                "adjacent_corr": corr,
                "corr_threshold": 4.0 / math.sqrt(n_blocks * config.replicates),
            }
        )
    vals = [r["var_delta"] for r in rows]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    corr_ok = all(
        r["adjacent_corr"] is None or abs(r["adjacent_corr"]) <= r["corr_threshold"]
        for r in rows
    )
    return {
        "name": "block_decomposition",
        "rows": rows,
        "verdicts": {
            "var_delta_decreasing": bool(decreasing),
            "adjacent_blocks_uncorrelated": bool(corr_ok),
        },
        "passed": bool(decreasing),
    }


def lindeberg_estimate(config: ExperimentConfig, plan: BlockPlan, eps, samples=None) -> dict:
    """Triangular-array side conditions on big-block sums xi of the truncated field.

    Estimates (1/l^d) E[xi^2] (should stabilise near sigma_x^2) and the
    truncated second moment (1/l^d) E[xi^2 1{|xi| > n^(d/2) eps}] (should
    vanish) on the n-grid; independent block copies across the lattice and
    replicates provide the samples.  A stricter variant that shrinks the
    threshold by m^(2d) (Heinrich) is deliberately not implemented.
    """
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps must be positive")
    samples = samples or _block_samples(config, plan)
    d = config.model.d
    oracle = density_oracle(config.model, config.innovations, samples[-1]["m"])
    x = samples[-1]["x"]
    target = asymptotic_variance(float(oracle.p(x)), config.kernel)
    rows = []
    for s in samples:
        n, l = s["n"], s["l"]
        xi = (s["etas"] - (l**d) * s["e_site"]).ravel()
        lf1 = float(np.mean(xi**2)) / l**d
        lf2 = {}
        for e in eps_list:
            thr = float(n) ** (d / 2.0) * e
            lf2[e] = float(np.mean(xi**2 * (np.abs(xi) > thr))) / l**d
        rows.append({"n": n, "m": s["m"], "l": l, "block_samples": xi.size, "lf1": lf1, "lf2": lf2})
    lf1_last = rows[-1]["lf1"]
    lf1_ok = abs(lf1_last - target) <= 0.15 * target
    lf2_ok = {}
    for e in eps_list:
        seq = [r["lf2"][e] for r in rows]
        nonincreasing = all(b <= a for a, b in zip(seq, seq[1:]))
        lf2_ok[e] = bool(nonincreasing and (seq[-1] == 0.0 or seq[-1] < seq[0]))
    return {
        "name": "lindeberg",
        "rows": rows,
        "sigma2_target": target,
        "verdicts": {"lf1_stabilises": bool(lf1_ok), "lf2_vanishes": lf2_ok},
        "passed": bool(lf1_ok and all(lf2_ok.values())),
    }


# ---------------------------------------------------------------------------
# rectangle moments


def _rectangle_sums(fields, kernel, b, x, rects):
    """Corner-rectangle sums of the truncated and remainder kernel fields, and remainder moments."""
    zeta_raw = kernel((x - fields.truncated.values) / b) / math.sqrt(b)
    diff_raw = kernel((x - fields.full.values) / b) / math.sqrt(b) - zeta_raw
    pz = _padded_prefix(zeta_raw)
    pd_ = _padded_prefix(diff_raw)
    zsums = np.array([float(pz[j]) for j in rects])
    dsums = np.array([float(pd_[j]) for j in rects])
    return zsums, dsums, float(np.sum(diff_raw)), float(np.sum(diff_raw**2))


def rectangle_moment_check(config: ExperimentConfig, rectangles, ratio_cap: float = 3.0) -> dict:
    """Normalised L2 norms of corner-rectangle sums of the truncated kernel field.

    For each rectangle j the quantity ||sum_{1<=i<=j} zeta_bar||_2 /
    sqrt(j_1...j_d) should stay within a bounded band (independence makes it
    exactly ||zeta_bar||_2); the max/min ratio across rectangles and n is the
    boundedness proxy.  The remainder field is normalised instead by
    sqrt(j_1...j_d) * (||Zbar - zetabar||_2 + sqrt(b) Delta_n) and the
    smallest constant covering the grid is reported.
    """
    model, innov, kern, bw = config.model, config.innovations, config.kernel, config.bandwidth
    if config.centering != "oracle":
        raise ValueError("rectangle check supports oracle centering only")
    if not innov.is_gaussian:
        raise OracleError("oracle centering needs Gaussian innovations")
    delta, _ = config.resolve_delta()
    x = config.resolve_x()[0]
    R = config.replicates
    rect_list = []
    for rect in rectangles:
        if np.isscalar(rect):
            rect_list.append((int(rect),) * model.d)
        else:
            tup = tuple(int(t) for t in np.atleast_1d(rect))
            if len(tup) != model.d:
                raise ValueError("rectangle arity must match dimension")
            rect_list.append(tup)
    rows = []
    norm_values = []
    fitted = []
    for ni, n in enumerate(config.n_grid):
        fit_rects = [rect for rect in rect_list if all(1 <= t <= n for t in rect)]
        if not fit_rects:
            raise ValueError(f"no requested rectangle fits inside n={n}")
        m = m_schedule(n, delta)
        b = bw.b(n)
        plan = _plan_for(config, m, b)
        ef, efm = _oracle_means(density_oracle(model, innov, m), kern, b, [x])
        ez = math.sqrt(b) * float(efm[0])
        ed = math.sqrt(b) * float(ef[0]) - ez
        reduce = partial(_rectangle_sums, kernel=kern, b=b, x=x, rects=fit_rects)
        rows_r = _run_replicates(config, n, m, plan, STREAM_OFFSETS["rectangles"] + ni, reduce)
        zs, ds, dsum, dsq = (np.array(col) for col in zip(*rows_r))
        N = n**model.d
        site_mean = float(dsum.sum()) / (R * N)
        site_m2 = float(dsq.sum()) / (R * N)
        diff_l2 = math.sqrt(max(site_m2 - 2 * ed * site_mean + ed**2, 0.0))
        f = tail_functionals(model, n, m)
        bound_unit = diff_l2 + math.sqrt(b) * f.delta_n
        for ri, rect in enumerate(fit_rects):
            vol = float(np.prod(rect))
            zc = zs[:, ri] - vol * ez
            dc = ds[:, ri] - vol * ed
            znorm = math.sqrt(float(np.mean(zc**2))) / math.sqrt(vol)
            dnorm = math.sqrt(float(np.mean(dc**2)))
            c_fit = dnorm / (math.sqrt(vol) * bound_unit) if bound_unit > 0 else 0.0
            norm_values.append(znorm)
            fitted.append(c_fit)
            rows.append(
                {
                    "n": n,
                    "rectangle": list(rect),
                    "zeta_normalized_l2": znorm,
                    "remainder_normalized_l2": dnorm / math.sqrt(vol),
                    "remainder_fitted_c": c_fit,
                }
            )
    ratio = max(norm_values) / min(norm_values)
    return {
        "name": "rectangle_moments",
        "rows": rows,
        "max_min_ratio": float(ratio),
        "remainder_max_fitted_c": float(max(fitted)),
        "ratio_cap": ratio_cap,
        "verdicts": {"bounded": bool(ratio < ratio_cap)},
        "passed": bool(ratio < ratio_cap),
    }


# ---------------------------------------------------------------------------
# moment inequality


def wu_inequality_check(
    model: CoefficientModel,
    innovations: InnovationModel,
    p: float,
    sample: int,
    master_seed: int = 20260810,
) -> dict:
    """Monte Carlo constant in E|sum_k a_k eps_k|^(2p) <= C (sum_k a_k^2)^p.

    Independent truncated draws of X_0 give C_hat = mean|X|^(2p)/(mass)^p with
    its standard error; for p=1 the identity C=1 is exact, and when the
    innovation kurtosis is known the exact fourth-moment reference is
    attached.  Requires E|eps|^(2 v 2p) < infinity.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if sample < 2:
        raise ValueError("sample must be >= 2")
    order = max(2, 2 * p)
    if innovations.max_moment_order <= order:
        raise MomentError(
            f"innovations need E|eps|^{order} < inf "
            f"(max finite order {innovations.max_moment_order})"
        )
    total = total_sq_mass(model)
    side = model.support_side()
    if side is None:
        side = 1
        while residual_sqrt_mass(model, side) > 1e-7 * math.sqrt(total):
            side *= 2
            if side > 1 << 12:
                raise ValueError("coefficient tail too slow to truncate for sampling")
    a = coeff_box(model, side).ravel()
    rng = spawn_rng(SeedSpec(master_seed, stream=STREAM_OFFSETS["wu"]))
    sum_y = 0.0
    sum_y2 = 0.0
    sum_a4 = float(np.sum(a**4))
    chunk = max(1, (1 << 22) // a.size)
    done = 0
    while done < sample:
        take = min(chunk, sample - done)
        eps = _draw(innovations, rng, (take, a.size))
        xvals = (eps * a).sum(axis=1)
        y = np.abs(xvals) ** (2 * p)
        sum_y += float(y.sum())
        sum_y2 += float((y**2).sum())
        done += take
    mean_y = sum_y / sample
    var_y = max(sum_y2 / sample - mean_y**2, 0.0)
    c_hat = mean_y / total**p
    se = math.sqrt(var_y / sample) / total**p
    ref = None
    if p == 1:
        ref = 1.0
    else:
        if innovations.name == "gaussian":
            kurt = 3.0
        elif innovations.name == "uniform":
            kurt = 9.0 / 5.0
        elif innovations.nu > 4:
            kurt = 3.0 + 6.0 / (innovations.nu - 4.0)
        else:
            kurt = None
        if kurt is not None:
            ref = (kurt - 3.0) * sum_a4 / total**2 + 3.0
    return {
        "name": "wu_moment",
        "p": p,
        "sample": sample,
        "c_hat": float(c_hat),
        "se": float(se),
        "weight_mass": float(total),
        "truncation_side": side,
        "reference_c": ref,
        "seeds": {"master": master_seed, "stream": STREAM_OFFSETS["wu"]},
    }


# ---------------------------------------------------------------------------
# truncation gap


def _squared_gap(fields, kernel, b, x):
    """Site mean of (K((x - X_m)/b) - K((x - X)/b))^2 / b."""
    kt = kernel((x - fields.truncated.values) / b)
    kf = kernel((x - fields.full.values) / b)
    return float(np.mean((kt - kf) ** 2)) / b


def fixed_m_gap(
    config: ExperimentConfig,
    m: int | None = None,
    n_grid=None,
    mode: str = "fixed",
    band: float = 0.15,
) -> dict:
    """Second moment of the site-level gap zeta - Z along the n-grid.

    ``fixed`` mode keeps m constant; the gap then stabilises at the strictly
    positive limit (p_m(x) + p(x)) * int K^2 because the cross moment
    E(Z zeta) ~ b * p_joint(x, x) vanishes with the bandwidth.  ``growing``
    mode follows m_n = floor(n^delta) and must trend to zero, bounded by a
    fitted multiple of B_{m_n}/b_n + b_n.
    """
    if mode not in ("fixed", "growing"):
        raise ValueError("mode must be 'fixed' or 'growing'")
    if mode == "fixed" and (m is None or m < 1):
        raise ValueError("fixed mode needs m >= 1")
    if not config.innovations.is_gaussian:
        raise OracleError("the truncation-gap oracle needs Gaussian innovations")
    config = replace(config, n_grid=n_grid or config.n_grid)
    x = config.resolve_x()[0]
    delta = config.resolve_delta()[0] if mode == "growing" else None
    rows = []
    for ni, n in enumerate(config.n_grid):
        m_n = m if mode == "fixed" else m_schedule(n, delta)
        b = config.bandwidth.b(n)
        plan = _plan_for(config, m_n, b)
        reduce = partial(_squared_gap, kernel=config.kernel, b=b, x=x)
        gaps = np.array(_run_replicates(config, n, m_n, plan, STREAM_OFFSETS["gap"] + ni, reduce))
        rows.append(
            {
                "n": n,
                "m": m_n,
                "b": b,
                "gap": float(gaps.mean()),
                "se": float(gaps.std(ddof=1) / math.sqrt(gaps.size)) if gaps.size > 1 else 0.0,
                "residual_ratio": residual_sqrt_mass(config.model, m_n) / b,
            }
        )
    gaps = [r["gap"] for r in rows]
    report = {"name": "truncation_gap", "mode": mode, "x": x, "rows": rows}
    if mode == "fixed":
        oracle = density_oracle(config.model, config.innovations, m)
        limit = asymptotic_variance(float(oracle.p_m(x)), config.kernel) + asymptotic_variance(
            float(oracle.p(x)), config.kernel
        )
        stabilised = abs(gaps[-1] - limit) <= band * limit
        not_vanishing = gaps[-1] >= 0.5 * max(gaps)
        report.update(
            oracle_limit=limit,
            verdicts={
                "positive_limit": bool(stabilised and not_vanishing),
                "stabilised": bool(stabilised),
                "not_vanishing": bool(not_vanishing),
            },
            passed=bool(stabilised and not_vanishing),
        )
    else:
        bounds = [r["residual_ratio"] + r["b"] for r in rows]
        fitted_c = max(g / bd for g, bd in zip(gaps, bounds))
        halved = gaps[-1] <= 0.5 * gaps[0]
        report.update(
            fitted_c=float(fitted_c),
            verdicts={"gap_halves": bool(halved)},
            passed=bool(halved),
        )
    return report
