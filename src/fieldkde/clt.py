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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .coefficients import (
    CoefficientModel,
    check_decay_window,
    coeff_box,
    delta_n,
    m_schedule,
    residual_sqrt_mass,
    total_sq_mass,
)
from .field import (
    DEFAULT_MAX_FIELD_BYTES,
    CoupledWorkspace,
    FieldSizeError,
    TruncationPlan,
    coupled_spectra,
    estimate_field_bytes,
    generate_coupled_fields,
    plan_truncation,
)
from .innovations import InnovationModel, Seeds, _draw
from .kde import (
    BandwidthSchedule,
    KernelModel,
    _kernel_sum,
    _kernel_values,
    asymptotic_variance,
    density_oracle,
    expected_kde,
)
from .special import ndtr

__all__ = [
    "ExperimentConfig",
    "CltReport",
    "BlockPlan",
    "KsResult",
    "MomentError",
    "run_clt_experiment",
    "block_decomposition_check",
    "lindeberg_estimate",
    "rectangle_moment_check",
    "wu_inequality_check",
    "fixed_m_gap",
    "ks_normality_test",
    "m_schedule",
    "worker_pool",
]

KS_CRIT_05 = 1.358
KS_CRIT_01 = 1.628
MIN_REPLICATES_FOR_VERDICT = 100

# Seed streams: grid point ni of an experiment draws from stream offset + ni,
# so a grid longer than MAX_GRID_POINTS would reuse the next experiment's draws.
STREAM_OFFSETS = {"clt": 0, "blocks": 100, "rectangles": 200, "gap": 300, "wu": 400}
MAX_GRID_POINTS = 100

# A batch holds as many replicates as keep their innovation lattices within
# this many bytes, so small lattices share each numpy call while a d=2 FFT
# at n = 256, measured slower when batched, runs one replicate at a time.
BATCH_BYTES = 1 << 20

# The moment-inequality sample is drawn, scaled and summed one block of this
# many bytes of draws at a time, so each block is reused while it sits in L2
# cache and the sample's memory does not grow with its size.  Block b draws
# from its own key (master, STREAM_OFFSETS["wu"], b), so like STREAM_OFFSETS
# this constant fixes which key draws which samples: changing it changes the
# Wu reports.
WU_BLOCK_BYTES = 1 << 19


class MomentError(ValueError):
    """A moment precondition on the innovations is violated."""


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
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.x_points is not None:
            object.__setattr__(self, "x_points", tuple(float(x) for x in self.x_points))
            if not self.x_points or not all(map(math.isfinite, self.x_points)):
                raise ValueError("x_points must be nonempty and finite")

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


def _batch_size(d: int, n: int, M: int, max_bytes: int) -> int:
    """Replicates per batch: lattices within BATCH_BYTES, estimated peaks within ``max_bytes``."""
    by_budget = BATCH_BYTES // (8 * (n + M - 1) ** d)
    return max(1, min(by_budget, max_bytes // estimate_field_bytes(d, n, M)))


def _replicate_chunk(config: ExperimentConfig, n, m, plan, stream, reduce, start, stop) -> list:
    """reduce(X, X_m, scratch) of each batch of replicates start..stop-1, in replicate order.

    One workspace, allocated at the chunk's batch size, serves every batch:
    its generation buffers, and as ``scratch`` two of them the fields no
    longer need.  The chunk's seeds are hashed in one pass.
    """
    spectra = coupled_spectra(config.model, n, m, plan, max_bytes=config.max_field_bytes)
    size = min(_batch_size(config.model.d, n, plan.M, config.max_field_bytes), max(stop - start, 1))
    work = CoupledWorkspace(spectra, size)
    seeds = Seeds(config.master_seed, stream, range(start, stop))
    batches = []
    for lo in range(0, stop - start, size):
        batch = seeds[lo:lo + size]
        fields = generate_coupled_fields(config.model, config.innovations, n, m, plan, batch, spectra, work)
        # each output is copied into its own C-ordered array: the next batch
        # overwrites the workspace, a view would keep a batch's prefix sums
        # alive until the join, and row sums round by layout
        batches.append(tuple(np.array(out, order="C") for out in reduce(*fields, work.scratch(len(batch)))))
    return batches


# the process pool of the open worker_pool() scope, and its worker count; None outside any scope
_scope: dict | None = None


@contextmanager
def worker_pool():
    """Scope in which every parallel ``_run_replicates`` shares one process pool.

    The pool starts with the first call that needs one and is shut down
    when the outermost scope exits, by error too; an inner scope uses the
    outer one's.  Workers fork from the process as it is when the pool
    starts, so they see what was patched before that.
    """
    global _scope
    if _scope is not None:
        yield
        return
    _scope = {"pool": None, "workers": 0}
    try:
        yield
    finally:
        pool, _scope = _scope["pool"], None
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _pool(workers: int) -> ProcessPoolExecutor:
    """The open scope's pool, restarted when a run asks for another worker count."""
    if _scope["workers"] != workers:
        if _scope["pool"] is not None:
            _scope["pool"].shutdown()
        _scope.update(pool=ProcessPoolExecutor(max_workers=workers), workers=workers)
    return _scope["pool"]


def _map_chunks(task, count: int, threads: int) -> list:
    """The lists task(start, stop) over min(threads, cpu count, count) contiguous ranges of 0..count-1, joined.

    Each range is one task of the ``worker_pool`` of min(threads, cpu
    count) processes, or a single range runs in this process.  ``task``
    gives each index the same output whatever range holds it, so the result
    does not depend on the worker count.
    """
    workers = min(threads, os.cpu_count() or 1)
    chunks = min(workers, count)
    if chunks == 1:
        return task(0, count)
    bounds = [count * w // chunks for w in range(chunks + 1)]
    with worker_pool():
        parts = _pool(workers).map(task, bounds[:-1], bounds[1:])
        return [out for part in parts for out in part]


def _run_replicates(config: ExperimentConfig, n, m, plan, stream, reduce) -> tuple:
    """reduce(X, X_m, scratch) over replicates 0..R-1: a tuple of arrays with R rows in replicate order.

    ``reduce`` takes the two fields of a batch, each with a leading
    replicate axis, and two scratch arrays of the fields' shape; the fields
    are views that stay valid for the call only.  It returns a tuple of
    arrays with one row per replicate.  The replicates split into chunks
    by ``_map_chunks``.  A chunk runs in batches of ``_batch_size`` and
    builds the coefficient spectra once; replicate r always draws from
    (master, stream, r), and a batch gives the same bits as one replicate
    at a time, so the result depends on neither the worker count nor the
    batch size.  Each output is joined once from C-ordered parts.
    """
    chunk = partial(_replicate_chunk, config, n, m, plan, stream, reduce)
    batches = _map_chunks(chunk, config.replicates, config.threads)
    return tuple(np.concatenate(parts) for parts in zip(*batches))


def _padded_prefix(arr: np.ndarray) -> np.ndarray:
    """Prefix sums with a zero layer in front of every axis but the first (replicate) axis.

    Each axis is summed in place into the interior of one zero-fronted
    array; a cumulative sum runs in order, so the bits are those of a
    fresh array per axis.
    """
    out = np.zeros(arr.shape[:1] + tuple(s + 1 for s in arr.shape[1:]))
    interior = out[(slice(None),) + (slice(1, None),) * (arr.ndim - 1)]
    np.cumsum(arr, axis=1, out=interior)
    for ax in range(2, arr.ndim):
        np.cumsum(interior, axis=ax, out=interior)
    return out


# ---------------------------------------------------------------------------
# normalised statistic


def _kernel_sums(x, x_m, scratch, xs, kernel, b):
    """Raw kernel sums over the lattice at each point of ``xs``, of X and of X_m: two (B, len(xs)) arrays."""
    axes = tuple(range(1, x.ndim))  # the lattice axes of a batch

    def sums(values):
        return np.stack([_kernel_sum(kernel, point, values, b, axes, scratch) for point in xs], axis=1)

    sums_f = sums(x)
    return sums_f, sums_f if x_m is x else sums(x_m)


def _decompose(fn, fnm, ef, efm, scale):
    """(T_n, T_zeta, T_remainder) from raw full/truncated estimates and their centerings."""
    return scale * (fn - ef), scale * (fnm - efm), scale * ((fn - fnm) - (ef - efm))


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


_MOMENT_KEYS = ("mean", "variance", "skewness", "excess_kurtosis", "remainder_second_moment")


def _skew_kurtosis(T: np.ndarray) -> tuple[float, float]:
    """Biased skewness and excess kurtosis of ``T``, both NaN for zero variance.

    The operations and their order are those of scipy.stats.skew and
    scipy.stats.kurtosis, which give the same bits; importing scipy.stats
    would cost every process more than half a second.
    """
    mean = T.mean(keepdims=True)
    d = T - mean
    m2 = np.mean(d**2)
    if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
        return math.nan, math.nan
    m3 = np.mean(d**2 * d)
    m4 = np.mean((d**2) ** 2)
    return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


def _moments(T: np.ndarray, t_rem: np.ndarray) -> dict:
    R = T.size
    skew, kurt = _skew_kurtosis(T)
    return {
        "mean": float(T.mean()),
        "variance": float(T.var(ddof=1)) if R > 1 else 0.0,
        "skewness": skew if R > 2 else 0.0,
        "excess_kurtosis": kurt if R > 3 else 0.0,
        "remainder_second_moment": float(np.mean(t_rem**2)),
    }


def _finite_or_null(values: np.ndarray) -> list:
    return [v if math.isfinite(v) else None for v in values.tolist()]


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
    asymptotic critical value; "inconclusive" for R < 100.  A point with a
    non-finite T, T_zeta or T_remainder fails whatever R is: those values
    and the point's moments are reported as null, and ``nonfinite`` counts
    the (n, x, replicate) rows that hold them.
    """
    model, innov, kern, bw = config.model, config.innovations, config.kernel, config.bandwidth
    delta, _ = config.resolve_delta()
    xs = config.resolve_x()
    R = config.replicates
    report = CltReport(config=config.resolved())
    verdicts = []
    for ni, n in enumerate(config.n_grid):
        m = m_schedule(n, delta)
        b = bw.b(n)
        plan = _plan_for(config, m, b)
        oracle = density_oracle(model, innov, m)
        stream = STREAM_OFFSETS["clt"] + ni
        sums = _run_replicates(config, n, m, plan, stream, partial(_kernel_sums, xs=xs, kernel=kern, b=b))
        N = n**model.d
        raw_f, raw_t = (s / (N * b) for s in sums)
        ef, efm = (expected_kde(oracle, kern, b, xs, truncated=t) for t in (False, True))
        t_full, t_zeta, t_rem = _decompose(raw_f, raw_t, ef, efm, math.sqrt(N * b))
        bad_rows = ~(np.isfinite(t_full) & np.isfinite(t_zeta) & np.isfinite(t_rem))
        report.nonfinite += int(np.sum(bad_rows))
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
                "sigma2_target": sigma2,
                "oracle": oracle.summary(),
                "T": _finite_or_null(T),
                "T_zeta": _finite_or_null(t_zeta[:, xi]),
                "T_remainder": _finite_or_null(t_rem[:, xi]),
            }
            nonfinite = int(np.sum(bad_rows[:, xi]))
            entry.update(dict.fromkeys(_MOMENT_KEYS) if nonfinite else _moments(T, t_rem[:, xi]))
            if nonfinite:
                entry["verdicts"] = {"overall": "fail", "nonfinite": nonfinite}
            elif R >= MIN_REPLICATES_FOR_VERDICT:
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


def _block_windows(x, x_m, scratch, kernel, b, point, m, l, q):
    """Per replicate, total and big-block sums of the truncated kernel field K((point - X_m)/b)/sqrt(b)."""
    raw = _kernel_values(kernel, point, x_m, b, scratch)
    raw /= math.sqrt(b)
    d = raw.ndim - 1
    prefix = _padded_prefix(raw)
    # the q^d windows [t, t+l)^d at offsets t = idx, one prefix difference per axis at those indices
    idx = np.arange(q) * (l + m)
    windows = prefix
    for ax in range(1, d + 1):
        windows = np.take(windows, idx + l, axis=ax) - np.take(windows, idx, axis=ax)
    return prefix[(slice(None),) + (-1,) * d], windows


def _block_samples(config: ExperimentConfig, plan: BlockPlan) -> list[dict]:
    """Per-n raw block sums of the truncated kernel field (shared by checks)."""
    model, innov, kern, bw = config.model, config.innovations, config.kernel, config.bandwidth
    x = config.resolve_x()[0]
    out = []
    for ni, n in enumerate(config.n_grid):
        m, l, q = plan.resolve(n)
        b = bw.b(n)
        tplan = TruncationPlan(M=m, B_M=residual_sqrt_mass(model, m), policy="fixed")
        reduce = partial(_block_windows, kernel=kern, b=b, point=x, m=m, l=l, q=q)
        totals, etas = _run_replicates(config, n, m, tplan, STREAM_OFFSETS["blocks"] + ni, reduce)
        e_site = math.sqrt(b) * expected_kde(density_oracle(model, innov, m), kern, b, x, truncated=True)
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


def block_decomposition_check(config: ExperimentConfig, samples: list[dict]) -> dict:
    """Gap between the full sum and the big-block sum of the truncated field.

    Per replicate Delta = (S_n(Y) - S_n(eta)) / n^(d/2); the report carries
    Var(Delta) along the n-grid, the rate proxy m_n/(l_n + m_n), and an
    independence audit of adjacent blocks (their sample correlation must sit
    within +-4/sqrt(#blocks * R)).  Verdict: Var(Delta) strictly decreasing.
    ``samples`` are the block sums of ``_block_samples``.
    """
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


def lindeberg_estimate(config: ExperimentConfig, samples: list[dict], eps) -> dict:
    """Triangular-array side conditions on big-block sums xi of the truncated field.

    Estimates (1/l^d) E[xi^2] (should stabilise near sigma_x^2) and the
    truncated second moment (1/l^d) E[xi^2 1{|xi| > n^(d/2) eps}] (should
    vanish) on the n-grid; independent block copies across the lattice and
    replicates, the block sums of ``_block_samples``, provide the samples.
    A stricter variant that shrinks the threshold by m^(2d) (Heinrich) is
    deliberately not implemented.
    """
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps must be positive")
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


def _rectangle_sums(x, x_m, scratch, kernel, b, point, rects):
    """Corner-rectangle sums of the truncated and remainder kernel fields, and remainder moments."""
    zeta_raw = _kernel_values(kernel, point, x_m, b, scratch)
    zeta_raw /= math.sqrt(b)
    diff_raw = _kernel_values(kernel, point, x, b) / math.sqrt(b) - zeta_raw
    pz = _padded_prefix(zeta_raw)
    pd_ = _padded_prefix(diff_raw)
    zsums = np.stack([pz[(slice(None),) + j] for j in rects], axis=1)
    dsums = np.stack([pd_[(slice(None),) + j] for j in rects], axis=1)
    axes = tuple(range(1, diff_raw.ndim))
    return zsums, dsums, np.sum(diff_raw, axis=axes), np.sum(diff_raw**2, axis=axes)


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
    delta, _ = config.resolve_delta()
    x = config.resolve_x()[0]
    R = config.replicates
    n_min = min(config.n_grid)
    rect_list = []
    for rect in rectangles:
        tup = (int(rect),) * model.d if np.isscalar(rect) else tuple(int(t) for t in np.atleast_1d(rect))
        if len(tup) != model.d:
            raise ValueError("rectangle arity must match dimension")
        if not all(1 <= t <= n_min for t in tup):
            raise ValueError(f"rectangle {list(tup)} does not fit inside n={n_min}")
        rect_list.append(tup)
    rows = []
    norm_values = []
    fitted = []
    for ni, n in enumerate(config.n_grid):
        m = m_schedule(n, delta)
        b = bw.b(n)
        plan = _plan_for(config, m, b)
        oracle = density_oracle(model, innov, m)
        ez = math.sqrt(b) * expected_kde(oracle, kern, b, x, truncated=True)
        ed = math.sqrt(b) * expected_kde(oracle, kern, b, x) - ez
        reduce = partial(_rectangle_sums, kernel=kern, b=b, point=x, rects=rect_list)
        zs, ds, dsum, dsq = _run_replicates(config, n, m, plan, STREAM_OFFSETS["rectangles"] + ni, reduce)
        N = n**model.d
        site_mean = float(dsum.sum()) / (R * N)
        site_m2 = float(dsq.sum()) / (R * N)
        diff_l2 = math.sqrt(max(site_m2 - 2 * ed * site_mean + ed**2, 0.0))
        bound_unit = diff_l2 + math.sqrt(b) * delta_n(model, n)
        for ri, rect in enumerate(rect_list):
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


def _wu_block_sums(innovations, a, master_seed, sample, rows, orders, start, stop) -> list:
    """Per block start..stop-1 of the moment-inequality sample, a (len(orders), 2) array of
    the sums of |X|^(2p) and |X|^(4p) over that block, one row per order.

    Block b holds samples [b*rows, (b+1)*rows) and draws them from the key
    (master, STREAM_OFFSETS["wu"], b) into one reused buffer, so its sums do
    not depend on which range holds it.
    """
    seeds = Seeds(master_seed, STREAM_OFFSETS["wu"], range(start, stop))
    buffer, x = np.empty((rows, a.size)), np.empty(rows)
    out = []
    for i, block in enumerate(range(start, stop)):
        take = min(rows, sample - block * rows)
        eps, abs_x = buffer[:take], x[:take]
        _draw(innovations, seeds[i], eps.shape, out=eps)
        np.multiply(eps, a, out=eps)
        np.abs(np.sum(eps, axis=1, out=abs_x), out=abs_x)
        sums = np.empty((len(orders), 2))
        for j, q in enumerate(orders):
            y = abs_x ** (2 * q)
            sums[j] = y.sum(), (y**2).sum()
        out.append(sums)
    return out


def wu_inequality_check(
    model: CoefficientModel,
    innovations: InnovationModel,
    p,
    sample: int,
    master_seed: int = 20260810,
    max_bytes: int = DEFAULT_MAX_FIELD_BYTES,
    threads: int = 1,
):
    """Monte Carlo constant in E|sum_k a_k eps_k|^(2p) <= C (sum_k a_k^2)^p.

    Independent truncated draws of X_0 give C_hat = mean|X|^(2p)/(mass)^p with
    its standard error; for p=1 the identity C=1 is exact, and when the
    innovation kurtosis is known the exact fourth-moment reference is
    attached.  Requires E|eps|^(2 v 2p) < infinity.  ``p`` is a sequence of
    orders; the list of their reports comes from one sample of X_0, with the
    same numbers as one call per order.  The sample is drawn in keyed blocks
    of ``WU_BLOCK_BYTES`` of draws (``_wu_block_sums``), split over workers
    by ``_map_chunks``; the blocks' sums are added in block order here, so
    the reports do not depend on ``threads``.  The coefficient box, one
    block (twice, for the laws whose draws are copied in), a block's |X|
    with its two power temporaries and the sums of every block must fit in
    ``max_bytes``, checked before any is allocated.
    """
    orders = list(p)
    if sample < 2:
        raise ValueError("sample must be >= 2")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    for q in orders:
        if q not in (1, 2):
            raise ValueError("p must be 1 or 2")
        order = max(2, 2 * q)
        if innovations.max_moment_order <= order:
            raise MomentError(
                f"innovations need E|eps|^{order} < inf "
                f"(max finite order {innovations.max_moment_order})"
            )
    if not orders:
        return []
    total = total_sq_mass(model)
    side = model.support_side()
    if side is None:
        side = 1
        while residual_sqrt_mass(model, side) > 1e-7 * math.sqrt(total):
            side *= 2
            if side > 1 << 12:
                raise ValueError("coefficient tail too slow to truncate for sampling")
    size = side**model.d
    rows = min(max(1, WU_BLOCK_BYTES // (8 * size)), sample)  # samples per keyed block
    blocks = -(-sample // rows)
    need = 8 * (size + 2 * rows * size + 3 * rows) + 16 * len(orders) * blocks
    if need > max_bytes:
        raise FieldSizeError(
            f"the moment-inequality sample's coefficient box of side {side}, its draw block, "
            f"|X| and the block sums need about {need} bytes (> cap {max_bytes})"
        )
    a = coeff_box(model, side).ravel()
    task = partial(_wu_block_sums, innovations, a, master_seed, sample, rows, orders)
    sums = np.zeros((len(orders), 2))  # per order: sum |X|^(2p), sum |X|^(4p)
    for part in _map_chunks(task, blocks, threads):
        sums += part
    sum_a4 = float(np.sum(a**4))
    kurt = innovations.kurtosis
    reports = []
    for q, (sum_y, sum_y2) in zip(orders, sums.tolist()):
        mean_y = sum_y / sample
        var_y = max(sum_y2 / sample - mean_y**2, 0.0)
        c_hat = mean_y / total**q
        se = math.sqrt(var_y / sample) / total**q
        ref = None
        if q == 1:
            ref = 1.0
        elif kurt is not None:
            ref = (kurt - 3.0) * sum_a4 / total**2 + 3.0
        reports.append({
            "name": "wu_moment",
            "p": q,
            "sample": sample,
            "c_hat": float(c_hat),
            "se": float(se),
            "weight_mass": float(total),
            "truncation_side": side,
            "reference_c": ref,
            "seeds": {"master": master_seed, "stream": STREAM_OFFSETS["wu"]},
        })
    return reports


# ---------------------------------------------------------------------------
# truncation gap


def _squared_gap(x, x_m, scratch, kernel, b, point):
    """Per replicate, site mean of (K((point - X_m)/b) - K((point - X)/b))^2 / b."""
    kt = _kernel_values(kernel, point, x_m, b, scratch)
    kf = _kernel_values(kernel, point, x, b)
    return (np.mean((kt - kf) ** 2, axis=tuple(range(1, kf.ndim))) / b,)


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
    mode follows m_n = round(n^delta) and must trend to zero, bounded by a
    fitted multiple of B_{m_n}/b_n + b_n.
    """
    if mode not in ("fixed", "growing"):
        raise ValueError("mode must be 'fixed' or 'growing'")
    if mode == "fixed" and (m is None or m < 1):
        raise ValueError("fixed mode needs m >= 1")
    config = replace(config, n_grid=n_grid or config.n_grid)
    x = config.resolve_x()[0]
    delta = config.resolve_delta()[0] if mode == "growing" else None
    rows = []
    for ni, n in enumerate(config.n_grid):
        m_n = m if mode == "fixed" else m_schedule(n, delta)
        b = config.bandwidth.b(n)
        plan = _plan_for(config, m_n, b)
        reduce = partial(_squared_gap, kernel=config.kernel, b=b, point=x)
        (gaps,) = _run_replicates(config, n, m_n, plan, STREAM_OFFSETS["gap"] + ni, reduce)
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
