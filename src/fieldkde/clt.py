"""Monte Carlo verification lab for the normalised kernel density estimator.

Per replicate the statistic T_n = (n^d b)^(1/2) (f_n(x) - E f_n(x)) splits
exactly into the m-dependent part S_n(zeta_bar)/n^(d/2) built from the
truncated field and the remainder built from the coupled difference.  The
lab estimates the distribution of all three across replicates, runs the
big-block construction and its triangular-array side conditions, tracks the
moment-inequality constants on rectangles, and measures the truncation gap
under fixed and growing m.

All replicate work is deterministic in (master seed, stream, replicate), so
reports are bit-identical for any thread count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .coefficients import (
    CoefficientModel,
    ParameterError,
    check_decay_window,
    delta_n,
    m_schedule,
    residual_sqrt_mass,
    total_sq_mass,
    unit_masses,
)
from .field import (
    DEFAULT_MAX_FIELD_BYTES,
    CoupledWorkspace,
    TruncationPlan,
    _layout,
    _nbytes,
    convolution_method,
    coupled_spectra,
    generate_coupled_fields,
    plan_truncation,
)
from .fourier import next_fast_len
from .innovations import KEY_CHUNK, InnovationModel, Seeds
from .kde import (
    BandwidthSchedule,
    KernelModel,
    _out_of_reach,
    _kernel_sum,
    _kernel_values,
    asymptotic_variance,
    density_oracle,
    expected_kde,
)
from .special import ndtr

__all__ = [
    "ExperimentConfig",
    "GridPoint",
    "KsResult",
    "run_clt_experiment",
    "block_decomposition_check",
    "block_sides",
    "lindeberg_estimate",
    "rectangle_moment_check",
    "wu_inequality_check",
    "fixed_m_gap",
    "grid_points",
    "ks_normality_test",
    "m_schedule",
]

KS_CRIT_05 = 1.358
KS_CRIT_01 = 1.628
MIN_REPLICATES_FOR_VERDICT = 100
# the KS test takes the normal CDF of its sorted sample this many values at a time
KS_CHUNK = 1 << 10

# Seed streams: grid point ni of an experiment draws from stream offset + ni,
# so a grid longer than MAX_GRID_POINTS would reuse the next experiment's draws.
STREAM_OFFSETS = {"clt": 0, "blocks": 100, "moment_check": 200, "gap": 300}
MAX_GRID_POINTS = 100

# A batch holds as many replicates as keep their innovation lattices within
# this many bytes, so small lattices share each numpy call while a d=2 FFT
# at n = 256, measured slower when batched, runs one replicate at a time.
BATCH_BYTES = 1 << 20

# fixed-m-gap's last gap must lie within this share of its positive limit
GAP_BAND = 0.15


@dataclass(frozen=True)
class ExperimentConfig:
    """The run-wide settings every subcommand shares: the models, the seed, the threads and the memory cap."""

    model: CoefficientModel
    innovations: InnovationModel
    kernel: KernelModel
    bandwidth: BandwidthSchedule
    master_seed: int = 20260810
    threads: int = 1
    max_field_bytes: int = DEFAULT_MAX_FIELD_BYTES

    def __post_init__(self):
        if self.model.d != self.bandwidth.d:
            raise ValueError("model and bandwidth dimension disagree")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")


# ---------------------------------------------------------------------------
# the plan of a grid point, and replicate scheduling


@dataclass(frozen=True)
class GridPoint:
    """One point of an experiment's n-grid, planned before any replicate is drawn.

    The fields are generated at truncation ``m`` under ``truncation``, and
    replicate r of its ``replicates`` draws from (master, ``stream``, r);
    ``P`` is the FFT side (None on the direct path), and ``bytes`` what one
    thread holds for a batch.  ``rows`` counts the CLI's table rows (0 outside it).  Blocks
    carry their side ``l`` and ``q`` per axis.  At each x of ``xs``, the x's
    its experiment tests, a point holds p(x) int K^2, p_m(x) int K^2 and the
    centerings E f_n(x) of X and of X_m, with its density oracle's summary.
    """

    n: int
    m: int
    b: float
    truncation: TruncationPlan
    stream: int
    replicates: int
    method: str
    P: int | None
    batch: int
    bytes: int
    draws: int
    rows: int = 0
    l: int | None = None
    q: int | None = None
    xs: tuple = ()
    sigma2_target: tuple | None = None
    sigma2_truncated: tuple | None = None
    centering: tuple | None = None
    oracle: dict | None = None


def _batch_size(lattice: int, spectra: int, per: int, max_bytes: int) -> int:
    """Replicates per batch: their lattices within BATCH_BYTES, the spectra and ``per`` each within ``max_bytes``."""
    return max(1, min(BATCH_BYTES // lattice, (max_bytes - spectra) // per))


def plan_point(model: CoefficientModel, n, m, b, truncation, stream, replicates, max_bytes, **extra) -> GridPoint:
    """The GridPoint of ``replicates`` at (n, m) under ``truncation``, its bytes those of ``_layout``.

    Its bytes may exceed ``max_bytes``, at one replicate per batch; ``check_cap`` rejects such a point.
    """
    d, M = model.d, truncation.M
    if n < 1 or not 1 <= m <= M:
        raise ValueError(f"need n >= 1 and 1 <= m <= M (got n={n}, m={m}, M={M})")
    method = convolution_method(model, n, M, max_bytes)
    spectra, work, headroom = _layout(d, n, m, M, method, 1)
    fixed, per = _nbytes(*spectra.values()), _nbytes(*work.values(), *headroom.values())
    batch = min(_batch_size(_nbytes(work["lattices"]), fixed, per, max_bytes), replicates)
    P = next_fast_len(n + M - 1) if method == "fourier" else None
    return GridPoint(n, m, b, truncation, stream, replicates, method, P, batch, fixed + batch * per,
                     replicates * math.prod(work["lattices"][0]), **extra)


def check_cap(points, max_bytes: int) -> tuple:
    """``points``, or a ParameterError at the first whose batch holds more than ``max_bytes`` in one thread."""
    for p in points:
        if p.bytes > max_bytes:
            raise ParameterError("limits.max_field_bytes", f"coupled generation with M = {p.truncation.M} holds "
                                 f"{p.bytes} bytes for a batch of {p.batch} (> cap {max_bytes}) at n = {p.n}")
    return points


def truncation_at(n: int, model: CoefficientModel, **request) -> TruncationPlan:
    """``plan_truncation(model, **request)`` for grid point n, its ``ParameterError`` naming n."""
    try:
        return plan_truncation(model, **request)
    except ParameterError as exc:
        raise ParameterError(exc.key, f"{exc} at n = {n}") from None


def grid_points(config: ExperimentConfig, experiment: str, n_grid, replicates: int, m: int | None = None,
                l: int | None = None, x_points=None, delta: float | None = None, **truncation) -> tuple:
    """The GridPoint of each n of ``n_grid``, each of ``replicates``, every one planned before any is drawn.

    The grid holds 1 to ``MAX_GRID_POINTS`` points and R is at least 1, or
    ``ValueError``.  ``experiment`` is a key of ``STREAM_OFFSETS``, the
    config section whose keys a refusal names.  m_n is ``m``, or the
    schedule round(n^delta) where ``m`` is None, with ``delta`` else the
    midpoint of the decay window.
    The fields are generated under ``truncation``, the keywords of
    ``plan_truncation``, but for "blocks", whose points carry the sides l_n
    and q_n of ``block_sides(n, m_n, l)`` and are generated at M = m_n.  A
    point's ``xs`` are every x of ``x_points`` for "clt" and the first for
    the others, where None stands for (0, 0.5, 1) standard deviations of the
    field; its oracle figures are taken there from one density oracle per
    distinct m.  A point no truncation meets, one whose blocks do not fit,
    an x where the field's density is 0, which has no limit law to test, or
    an m where the oracle has no density raises ``ParameterError``, naming
    its n.  The memory cap is left to ``check_cap``.
    """
    model, kern = config.model, config.kernel
    if not (1 <= len(n_grid) <= MAX_GRID_POINTS and replicates >= 1):
        raise ValueError(f"need 1 to {MAX_GRID_POINTS} grid points and a replicate, got {len(n_grid)} and {replicates}")
    if x_points is None:
        sd = math.sqrt(total_sq_mass(model))
        x_points = (0.0, 0.5 * sd, sd)
    xs = tuple(float(x) for x in x_points)
    if not xs or not all(map(math.isfinite, xs)):
        raise ValueError("x_points must be nonempty and finite")
    xs = xs if experiment == "clt" else xs[:1]
    if m is None and delta is None:
        delta = check_decay_window(model.d, model.decay_exponent(), config.bandwidth.gamma).delta_star
        if delta is None:
            raise ParameterError("schedule.delta", "must be a number where m_n follows the schedule and "
                                 "the decay/bandwidth window is empty, got null")
    oracles, points = {}, []
    for ni, n in enumerate(n_grid):
        b, extra = config.bandwidth.b(n), {}
        m_n = m_schedule(n, delta) if m is None else m
        if experiment == "blocks":
            extra["l"], extra["q"] = block_sides(n, m_n, l)
            plan = TruncationPlan(M=m_n, B_M=residual_sqrt_mass(model, m_n), policy="fixed")
        else:
            plan = truncation_at(n, model, m=m_n, b=b, **truncation)
        if m_n not in oracles:
            try:
                oracles[m_n] = density_oracle(model, config.innovations, m_n)
            except ValueError as exc:  # named by the key that set m_n
                key = "schedule.delta" if m is None else f"{experiment}.m"
                raise ParameterError(key, f"{exc}, at m = {m_n} and n = {n}") from None
        oracle = oracles[m_n]
        sigma2 = tuple(asymptotic_variance(float(oracle.p(x)), kern) for x in xs)
        if 0.0 in sigma2:
            raise ParameterError(f"{experiment}.x_points", f"the field's density is 0 at x = {xs[sigma2.index(0.0)]}, "
                                 f"so T_n has no limit variance there, at n = {n}")
        points.append(plan_point(
            model, n, m_n, b, plan, STREAM_OFFSETS[experiment] + ni, replicates, config.max_field_bytes,
            sigma2_target=sigma2, sigma2_truncated=tuple(asymptotic_variance(float(oracle.p_m(x)), kern) for x in xs),
            centering=tuple(tuple(expected_kde(oracle, kern, b, xs, truncated=t).tolist()) for t in (False, True)),
            oracle=oracle.summary(), xs=xs, **extra,
        ))
    return tuple(points)


def _run_replicates(config: ExperimentConfig, point: GridPoint, reduce) -> tuple:
    """reduce(X, X_m, scratch) over the point's replicates 0..R-1: a tuple of arrays with R rows in replicate order.

    ``reduce`` takes the two fields of a batch, each with a leading
    replicate axis, and two scratch arrays of the fields' shape; the fields
    are views that stay valid for the call only, and it may overwrite
    them.  It returns a tuple of arrays with one row per replicate.  The
    coefficient spectra are built once and the replicates' keys hashed
    once.  R splits into k = min(T ceil(R / (T batch)), R) batches
    whose sizes differ by at most one, T = min(threads, cpu count, R), and T
    workers take them from one queue, each with a workspace of the largest
    batch and a generator of its own: the calling thread and T - 1 pool
    threads.  A batch that fails empties the queue, so no batch starts
    after it, and the call raises its error once every worker has stopped.
    Replicate r always draws from (master, stream, r), and a batch gives
    the same bits as one replicate at a time, so the result depends on
    neither the thread count nor the batch size.  Each output is joined
    once, in replicate order, from C-ordered parts.  The point's batch must
    fit in the config's ``max_field_bytes``: ``ParameterError`` otherwise,
    before any draw.
    """
    check_cap((point,), config.max_field_bytes)
    count = point.replicates
    workers = min(config.threads, os.cpu_count() or 1, count)
    k = min(workers * -(-count // (workers * point.batch)), count)
    edges = [count * i // k for i in range(k + 1)]
    spectra = coupled_spectra(config.model, point)
    seeds = Seeds(config.master_seed, point.stream, range(count))
    # every workspace is allocated here: glibc gives each thread its own malloc
    # arena, which would keep a pool thread's freed workspace after the call
    works = [CoupledWorkspace(spectra, -(-count // k)) for _ in range(workers)]
    # the queue: one iterator of batch indices, whose next() is atomic under the GIL
    todo, batches = iter(range(k)), [None] * k

    def worker(work, seeds):
        try:
            for i in todo:
                lo, hi = edges[i], edges[i + 1]
                fields = generate_coupled_fields(config.innovations, seeds[lo:hi], spectra, work)
                # each output is copied into its own C-ordered array: the next batch
                # overwrites the workspace, and row sums round by layout
                batches[i] = tuple(np.array(out, order="C") for out in reduce(*fields, work.scratch(hi - lo)))
        except BaseException:
            deque(todo, maxlen=0)  # empty the queue
            raise

    # threads start only on submit, so a single worker starts none; leaving the
    # block joins them, by error too
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        rest = [pool.submit(worker, work, seeds.copy()) for work in works[1:]]
        worker(works[0], seeds)
        for part in rest:
            part.result()
    del works  # the workspaces are freed before the join
    return tuple(np.concatenate(parts) for parts in zip(*batches))


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
    # beside the sorted copy, one chunk's CDF and its gaps to the ranks (i + 1)/n and i/n
    gaps = []
    for start in range(0, n, KS_CHUNK):
        cdf = ndtr(xs[start : start + KS_CHUNK] / math.sqrt(sigma2))
        ranks = np.arange(start, start + cdf.size)
        gaps += [np.max((ranks + 1) / n - cdf), np.max(cdf - ranks / n)]
    dist = float(np.max(gaps))
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
    """The moments of ``T``, with null for the skewness and kurtosis of a ``T`` without variance."""
    R = T.size
    skew, kurt = (v if math.isfinite(v) else None for v in _skew_kurtosis(T))
    return {
        "mean": float(T.mean()),
        "variance": float(T.var(ddof=1)) if R > 1 else 0.0,
        "skewness": skew if R > 2 else 0.0,
        "excess_kurtosis": kurt if R > 3 else 0.0,
        "remainder_second_moment": float(np.mean(t_rem**2)),
    }


def result_bytes(replicates: int, per: int) -> int:
    """Bytes an experiment holds beside the fields: ``per`` bytes of results a replicate, and the replicates' keys.

    ``Seeds`` holds 16 bytes of keys a replicate through a grid point's run,
    and hashes them ``KEY_CHUNK`` replicates at a time, at a peak of 117
    bytes a replicate of the chunk (traced with tracemalloc), counted as 120.
    """
    return replicates * (per + 16) + min(replicates, KEY_CHUNK) * 120


def clt_result_bytes(points) -> int:
    """``result_bytes`` of ``run_clt_experiment``: its table's six columns a (n, x, replicate) row; at the point
    reduced, nine doubles a (x, replicate), the kernel sums of X and X_m (or their chunk parts), the estimates, T,
    T_zeta, T_remainder and two temporaries of a column; and a sorted copy of one x's T for the KS test."""
    xs = len(points[0].xs)
    return result_bytes(points[0].replicates, 8 * (6 * len(points) * xs + 9 * xs + 1))


def run_clt_experiment(config: ExperimentConfig, points, variance_band: float = 0.10) -> tuple[dict, dict]:
    """Estimate the law of T_n over independent replicates on the (n, x) grid: the report and the replicate table.

    The report holds the statistics of each (n, x) under ``points``, the
    ``overall`` verdict and ``nonfinite``; the
    replicate values are not part of it.  Verdict per point: "consistent"
    when |mean| <= 3*sqrt(sigma_x^2/R), the empirical variance sits within
    ``variance_band`` of sigma_x^2 = p(x) int K^2, and the KS distance to
    N(0, sigma_x^2) clears the 1% asymptotic critical value; "inconclusive"
    for R < 100.  A point with a
    non-finite T, T_zeta or T_remainder fails whatever R is: its moments
    are null, and ``nonfinite`` counts the (n, x, replicate) rows that hold
    one.  The table holds the arrays n, x, replicate, T, T_zeta and
    T_remainder, a row per (n, x, replicate) in that order, with NaN for a
    non-finite value.  ``points`` are ``grid_points(config, "clt", n_grid, R)``,
    each testing the same x's.
    """
    model, kern = config.model, config.kernel
    xs = points[0].xs
    R = points[0].replicates
    report = {"points": [], "nonfinite": 0}
    rows = R * len(xs)  # table rows per grid point
    table = {
        "n": np.repeat([point.n for point in points], rows),
        "x": np.tile(np.repeat(np.asarray(xs, dtype=float), R), len(points)),
        "replicate": np.tile(np.arange(R), len(points) * len(xs)),
        **{name: np.empty(len(points) * rows) for name in ("T", "T_zeta", "T_remainder")},
    }
    for i, point in enumerate(points):
        n, m, b = point.n, point.m, point.b
        sums = _run_replicates(config, point, partial(_kernel_sums, xs=xs, kernel=kern, b=b))
        N = n**model.d
        raw_f, raw_t = (s / (N * b) for s in sums)
        ef, efm = (np.array(c) for c in point.centering)
        t_full, t_zeta, t_rem = _decompose(raw_f, raw_t, ef, efm, math.sqrt(N * b))
        bad_rows = ~(np.isfinite(t_full) & np.isfinite(t_zeta) & np.isfinite(t_rem))
        report["nonfinite"] += int(np.sum(bad_rows))
        for name, values in zip(("T", "T_zeta", "T_remainder"), (t_full, t_zeta, t_rem)):
            table[name][i * rows:(i + 1) * rows] = np.where(np.isfinite(values), values, math.nan).T.ravel()
        for xi, x in enumerate(xs):
            T = t_full[:, xi]
            sigma2 = point.sigma2_target[xi]
            entry = {
                "n": n,
                "x": x,
                "b": b,
                "m": m,
                "M": point.truncation.M,
                "replicates": R,
                "seeds": {"master": config.master_seed, "stream": point.stream},
                "sigma2_target": sigma2,
                "oracle": point.oracle,
            }
            nonfinite = int(np.sum(bad_rows[:, xi]))
            entry.update(dict.fromkeys(_MOMENT_KEYS) if nonfinite else _moments(T, t_rem[:, xi]))
            if nonfinite:
                entry["verdicts"] = {"overall": "fail", "nonfinite": nonfinite}
            elif R >= MIN_REPLICATES_FOR_VERDICT:
                ks = ks_normality_test(T, sigma2)
                mean_ok = abs(entry["mean"]) <= 3.0 * math.sqrt(sigma2 / R)
                var_ok = abs(entry["variance"] - sigma2) <= variance_band * sigma2
                ks_ok = ks.distance < ks.crit_01
                entry["ks"] = asdict(ks)
                entry["verdicts"] = {
                    "mean_ok": bool(mean_ok),
                    "variance_ok": bool(var_ok),
                    "ks_ok": bool(ks_ok),
                    "overall": "consistent" if (mean_ok and var_ok and ks_ok) else "fail",
                }
            else:
                entry["verdicts"] = {"overall": "inconclusive"}
            report["points"].append(entry)
    verdicts = {entry["verdicts"]["overall"] for entry in report["points"]}
    report["overall"] = "fail" if "fail" in verdicts else "consistent" if verdicts == {"consistent"} else "inconclusive"
    return report, table


# ---------------------------------------------------------------------------
# big-block construction


def block_sides(n: int, m: int, l: int | None = None) -> tuple[int, int]:
    """Block side l_n, by default m * ceil(log n), and blocks per axis q_n at n, with gap ``m`` between blocks.

    Sides not above the gap or beyond the lattice raise ``ParameterError`` on ``blocks.l``.
    """
    l_n = m * math.ceil(math.log(n)) if l is None else l
    if l_n <= m:
        raise ParameterError("blocks.l", f"need l_n > m_n at n = {n} (got l={l_n}, m={m})")
    if l_n > n:
        raise ParameterError("blocks.l", f"block side {l_n} exceeds the lattice side {n}")
    return l_n, max(n // (l_n + m), 1)


# below this share of a replicate's sites in reach of the point, _block_windows
# sums its windows from those sites alone.  The dense path pays a window sum
# and a total on top of the kernel, so this is not _kernel_values' rule.  Live
# over dense time per batch on a 2-vCPU host (numpy 2.4), at d = 1, n = 256,
# 1024 and 4096 (batches of 375, 125 and 30) and d = 2, n = 64 and 128
# (29 and 7): Epanechnikov 0.37-0.85 at shares 0.1-4.3%, 0.94-0.97 at 5% and
# 1.18-1.41 at 8.7-10%; triangular 0.51-0.77 at 1-4.3% and 1.03-1.22 at
# 6.5-8.7%; Gaussian 0.57-0.73 at 5-10% (d = 1), 0.93-0.94 at 11.6% (d = 2),
# 1.06 at 20% and 1.44-1.46 at 23%
BLOCK_LIVE_SHARE = {"epanechnikov": 0.05, "gaussian": 0.10, "triangular": 0.05}


def _block_windows(x, x_m, scratch, kernel, b, point, m, l, q):
    """Per replicate, total and big-block sums of the truncated kernel field K((point - X_m)/b)/sqrt(b).

    The windows are [t, t+l)^d, t = k(l + m), q per axis.  A replicate with
    fewer than ``BLOCK_LIVE_SHARE`` of its sites within reach of ``point``
    sums those sites alone, in site order, by ``np.bincount`` over its index
    and their windows.  The others, gathered into the second scratch array
    when the batch holds such a replicate, sum the kernel values of every
    site, each window from one read-only view with axes (replicate, q, l,
    ..., q, l), as a reshape would not do where q(l + m) exceeds n.  Either
    sum is within rounding of the other, and the rule looks at each
    replicate alone, so its sums do not depend on the rest of its batch.
    """
    u, out = scratch
    count, d, per = len(u), u.ndim - 1, u[0].size
    axes = tuple(range(1, d + 1))
    np.subtract(point, x_m, out=u)
    dead = _out_of_reach(kernel, u, b)
    sparse = per - dead.sum(axis=axes, dtype=np.int32) < BLOCK_LIVE_SHARE[kernel.name] * per
    totals, windows = np.empty(count), np.empty((count,) + (q,) * d)
    rows = np.flatnonzero(sparse)
    if rows.size:
        # the sparse replicates' sites in reach, in site order, and their kernel values
        index, offsets = np.divmod(np.flatnonzero(np.logical_not(dead[rows])), per)
        terms = u.reshape(count, per)[rows[index], offsets]
        terms /= b
        kernel(terms, out=terms)
        window, inside = index, np.ones(index.size, dtype=bool)
        for t in np.unravel_index(offsets, u.shape[1:]):
            k, r = np.divmod(t, l + m)
            inside &= (r < l) & (k < q)
            window = window * q + k
        totals[rows] = np.bincount(index, terms, rows.size)
        windows[rows] = np.bincount(window[inside], terms[inside], rows.size * q**d).reshape((-1,) + (q,) * d)
    if rows.size < count:
        full = np.flatnonzero(np.logical_not(sparse))
        v = np.take(u, full, axis=0, out=out[: full.size], mode="clip") if rows.size else u
        v /= b
        values = kernel(v, out=(u if rows.size else out)[: full.size])
        steps = values.strides[1:]
        strides = values.strides[:1] + tuple(s for step in steps for s in ((l + m) * step, step))
        blocks = as_strided(values, values.shape[:1] + (q, l) * d, strides, writeable=False)
        totals[full] = values.sum(axis=axes)
        windows[full] = blocks.sum(axis=tuple(range(2, blocks.ndim, 2)))
    root_b = math.sqrt(b)
    totals /= root_b
    windows /= root_b
    return totals, windows


def _block_samples(config: ExperimentConfig, points) -> list[tuple]:
    """(point, totals, big-block sums) of the truncated kernel field at each "blocks" grid point (shared by checks)."""
    out = []
    for point in points:
        reduce = partial(_block_windows, kernel=config.kernel, b=point.b, point=point.xs[0], m=point.m, l=point.l,
                         q=point.q)
        out.append((point, *_run_replicates(config, point, reduce)))
    return out


def block_result_bytes(config: ExperimentConfig, points, eps) -> int:
    """``result_bytes`` of ``_block_samples``: each replicate's total and q^d block sums at every point, twice at the
    join, or once beside the checks' copies of the largest point's: 2d for the pairs, 2 + len(eps)/8 for Lindeberg."""
    d = config.model.d
    sums, largest = sum(1 + p.q**d for p in points), max(p.q**d for p in points)
    return result_bytes(points[0].replicates, max(16 * sums, 8 * sums + largest * max(16 * d, 16 + len(eps))))


def block_decomposition_check(config: ExperimentConfig, samples: list[tuple]) -> dict:
    """Gap between the full sum and the big-block sum of the truncated field.

    Per replicate Delta = (S_n(Y) - S_n(eta)) / n^(d/2); the report carries
    Var(Delta) along the n-grid, the rate proxy m_n/(l_n + m_n), and an
    independence audit of adjacent blocks (their sample correlation must sit
    within +-4/sqrt(#blocks * R)).  Verdict: Var(Delta) strictly decreasing.
    ``samples`` are the (point, totals, etas) of ``_block_samples``.
    Adjacent block sums without variance, as at an x no site reaches or
    where every site has one kernel value, have no correlation: ``ParameterError``.
    """
    d = config.model.d
    rows = []
    for point, totals, etas in samples:
        n, m, l, q = point.n, point.m, point.l, point.q
        e_site = math.sqrt(point.b) * point.centering[1][0]
        center_full = (n**d) * e_site
        center_block = (l**d) * e_site
        s_full = totals - center_full
        s_eta = (etas - center_block).reshape(etas.shape[0], -1).sum(axis=1)
        delta = (s_full - s_eta) / float(n) ** (d / 2.0)
        corr = None
        if q > 1:
            # row 0 holds every lead block and row 1 the next block along the
            # same axis, centred, axis after axis; then np.corrcoef's steps,
            # centring the rows in place instead of in a copy
            part = etas.size // q * (q - 1)
            pairs = np.empty((2, d * part))
            for ax in range(1, d + 1):
                for row, cut in enumerate((slice(0, -1), slice(1, None))):
                    blocks = etas[(slice(None),) * ax + (cut,)]
                    out = pairs[row, (ax - 1) * part : ax * part].reshape(blocks.shape)
                    np.subtract(blocks, center_block, out=out)
            if not np.ptp(pairs, axis=1).all():
                raise ParameterError(
                    "blocks.x_points", f"at x = {point.xs[0]} the adjacent big-block sums of the truncated kernel "
                    f"field take one value in every replicate at n = {n}, so their correlation is undefined: x lies "
                    "beyond the kernel's reach of the field's values, or the field's spread lies far below the "
                    "bandwidth"
                )
            pairs -= pairs.mean(axis=1)[:, None]
            c = np.dot(pairs, pairs.T)
            c *= np.true_divide(1, pairs.shape[1] - 1)
            stddev = np.sqrt(np.diag(c))
            c /= stddev[:, None]
            c /= stddev[None, :]
            corr = float(np.clip(c[0, 1], -1, 1))
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
                "corr_threshold": 4.0 / math.sqrt(n_blocks * point.replicates),
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


def lindeberg_estimate(config: ExperimentConfig, samples: list[tuple], eps) -> dict:
    """Triangular-array side conditions on big-block sums xi of the truncated field.

    Estimates (1/l^d) E[xi^2] (should stabilise near sigma_x^2) and the
    truncated second moment (1/l^d) E[xi^2 1{|xi| > n^(d/2) eps}] (should
    vanish) on the n-grid; independent block copies across the lattice and
    replicates, the big-block sums of ``_block_samples``, provide the samples.
    A stricter variant that shrinks the threshold by m^(2d) (Heinrich) is
    deliberately not implemented.
    """
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps must be positive")
    d = config.model.d
    target = samples[-1][0].sigma2_target[0]
    rows = []
    for point, _, etas in samples:
        n, l = point.n, point.l
        e_site = math.sqrt(point.b) * point.centering[1][0]
        # one array takes |xi| and then xi^2, which has the bits of a square of xi
        xi2 = np.abs((etas - (l**d) * e_site).ravel())
        over = [xi2 > float(n) ** (d / 2.0) * e for e in eps_list]
        np.square(xi2, out=xi2)
        lf1 = float(np.mean(xi2)) / l**d
        kept = np.empty_like(xi2)
        lf2 = {e: float(np.mean(np.multiply(xi2, mask, out=kept))) / l**d for e, mask in zip(eps_list, over)}
        rows.append({"n": n, "m": point.m, "l": l, "block_samples": xi2.size, "lf1": lf1, "lf2": lf2})
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
    """Corner-rectangle sums of the truncated and remainder kernel fields, and remainder moments.

    The truncated field's values go into the second scratch array, and the
    full field's into the first, which takes x - X_i too: the fields are
    only read, as on the FFT path they are strided views, for which numpy
    would allocate buffers.  Each rectangle [0, j)^d is summed as a box
    slice, and the remainder's square goes into the second array once the
    truncated field's sums are taken.
    """
    root_b = math.sqrt(b)
    zeta = _kernel_values(kernel, point, x_m, b, scratch)
    diff = _kernel_values(kernel, point, x, b, (scratch[0], scratch[0]))
    diff -= zeta
    axes = tuple(range(1, diff.ndim))

    def boxes(a):  # one sum per replicate and rectangle
        return np.stack([a[(slice(None),) + tuple(map(slice, rect))].sum(axis=axes) for rect in rects], 1) / root_b

    zsums, dsums = boxes(zeta), boxes(diff)
    return zsums, dsums, np.sum(diff, axis=axes) / root_b, np.sum(np.square(diff, out=zeta), axis=axes) / b


def _rectangle_rows(config: ExperimentConfig, point: GridPoint, rects) -> list:
    """The rows of ``rectangle_moment_check`` at one grid point; its replicate sums are freed on return."""
    model, n, b, x = config.model, point.n, point.b, point.xs[0]
    ez = math.sqrt(b) * point.centering[1][0]
    ed = math.sqrt(b) * point.centering[0][0] - ez
    reduce = partial(_rectangle_sums, kernel=config.kernel, b=b, point=x, rects=rects)
    zs, ds, dsum, dsq = _run_replicates(config, point, reduce)
    sites = point.replicates * n**model.d
    site_mean = float(dsum.sum()) / sites
    site_m2 = float(dsq.sum()) / sites
    diff_l2 = math.sqrt(max(site_m2 - 2 * ed * site_mean + ed**2, 0.0))
    bound_unit = diff_l2 + math.sqrt(b) * delta_n(model, n)
    rows = []
    for ri, rect in enumerate(rects):
        vol = float(np.prod(rect))
        zc = zs[:, ri] - vol * ez
        dc = ds[:, ri] - vol * ed
        znorm = math.sqrt(float(np.mean(zc**2))) / math.sqrt(vol)
        dnorm = math.sqrt(float(np.mean(dc**2)))
        rows.append({
            "n": n,
            "rectangle": list(rect),
            "zeta_normalized_l2": znorm,
            "remainder_normalized_l2": dnorm / math.sqrt(vol),
            "remainder_fitted_c": dnorm / (math.sqrt(vol) * bound_unit) if bound_unit > 0 else 0.0,
        })
    if not zs.any() or 0.0 in (row["zeta_normalized_l2"] for row in rows):
        raise ParameterError(
            "moment_check.x_points", f"at x = {x} the truncated kernel field sums to 0 over every rectangle in every "
            f"replicate or to its centering over one rectangle in every replicate, at n = {n}, so the rectangle norms "
            "measure its centering alone or vanish: x lies beyond the kernel's reach of the field's values, or the "
            "field's spread lies far below the bandwidth"
        )
    return rows


def rectangle_result_bytes(points, rectangles) -> int:
    """``result_bytes`` of ``rectangle_moment_check``: each replicate's rectangle sums of both fields, the remainder's
    total and square sum, twice at the join (a point's are freed before the next runs), and two centred sums."""
    return result_bytes(points[0].replicates, 8 * (2 * (2 * len(rectangles) + 2) + 2))


def rectangle_moment_check(config: ExperimentConfig, rectangles, points, ratio_cap: float = 3.0) -> dict:
    """Normalised L2 norms of corner-rectangle sums of the truncated kernel field.

    For each rectangle j the quantity ||sum_{1<=i<=j} zeta_bar||_2 /
    sqrt(j_1...j_d) should stay within a bounded band (independence makes it
    exactly ||zeta_bar||_2); the max/min ratio across rectangles and n is the
    boundedness proxy.  The remainder field is normalised instead by
    sqrt(j_1...j_d) * (||Zbar - zetabar||_2 + sqrt(b) Delta_n) and the
    smallest constant covering the grid is reported.  ``points`` are
    ``grid_points(config, "moment_check", n_grid, R)``.  A point where every
    rectangle sum is 0 in every replicate, as at an x no site reaches, has
    norms of its centering alone, and one where a rectangle's norm is 0, as
    where every site has one kernel value, has no ratio: ``ParameterError``.
    """
    model = config.model
    n_min = min(p.n for p in points)
    rect_list = []
    for rect in rectangles:
        tup = (int(rect),) * model.d if np.isscalar(rect) else tuple(int(t) for t in np.atleast_1d(rect))
        if len(tup) != model.d:
            raise ValueError("rectangle arity must match dimension")
        if not all(1 <= t <= n_min for t in tup):
            raise ValueError(f"rectangle {list(tup)} does not fit inside n={n_min}")
        rect_list.append(tup)
    if not rect_list:
        raise ValueError("need at least one rectangle")
    rows = [row for point in points for row in _rectangle_rows(config, point, rect_list)]
    norms = [row["zeta_normalized_l2"] for row in rows]
    ratio = max(norms) / min(norms)
    return {
        "name": "rectangle_moments",
        "rows": rows,
        "max_min_ratio": float(ratio),
        "remainder_max_fitted_c": float(max(row["remainder_fitted_c"] for row in rows)),
        "ratio_cap": ratio_cap,
        "verdicts": {"bounded": bool(ratio < ratio_cap)},
        "passed": bool(ratio < ratio_cap),
    }


# ---------------------------------------------------------------------------
# moment inequality


def wu_inequality_check(model: CoefficientModel, innovations: InnovationModel, orders) -> list:
    """The constant C_p = E|X_0|^(2p) / (sum_k a_k^2)^p of E|sum_k a_k eps_k|^(2p) <= C_p (sum_k a_k^2)^p.

    One report per order p of ``orders``, each with the weight mass sum a^2
    and the exact constant ``reference_c``: 1 at p=1, and
    3 + (kappa - 3) sum a^4 / (sum a^2)^2 at p=2, with kappa the innovation
    kurtosis and the ratio of the weights at unit scale (``unit_masses``).
    Innovations without a finite E|eps|^(2 v 2p) raise ``ParameterError`` on
    ``moment_check.wu_p``, before any report is made.
    """
    for q in orders:
        if q not in (1, 2):
            raise ValueError("p must be 1 or 2")
        order = max(2, 2 * q)
        if innovations.max_moment_order <= order:
            raise ParameterError("moment_check.wu_p", f"innovations need E|eps|^{order} < inf "
                                 f"(max finite order {innovations.max_moment_order})")
    square, fourth = unit_masses(model)
    return [{
        "name": "wu_moment",
        "p": q,
        "weight_mass": float(total_sq_mass(model)),
        "reference_c": 1.0 if q == 1 else (innovations.kurtosis - 3.0) * fourth / square**2 + 3.0,
    } for q in orders]


# ---------------------------------------------------------------------------
# truncation gap


def _squared_gap(x, x_m, scratch, kernel, b, point):
    """Per replicate, site mean of (K((point - X_m)/b) - K((point - X)/b))^2 / b, in the two scratch arrays."""
    gap = _kernel_values(kernel, point, x_m, b, scratch)
    gap -= _kernel_values(kernel, point, x, b, (scratch[0], scratch[0]))
    return (np.mean(np.square(gap, out=gap), axis=tuple(range(1, gap.ndim))) / b,)


def _gap_row(config: ExperimentConfig, point: GridPoint) -> dict:
    """The row of ``fixed_m_gap`` at one grid point; its replicate gaps are freed on return."""
    reduce = partial(_squared_gap, kernel=config.kernel, b=point.b, point=point.xs[0])
    (gaps,) = _run_replicates(config, point, reduce)
    return {
        "n": point.n,
        "m": point.m,
        "b": point.b,
        "gap": float(gaps.mean()),
        "se": float(gaps.std(ddof=1) / math.sqrt(gaps.size)) if gaps.size > 1 else 0.0,
        "residual_ratio": residual_sqrt_mass(config.model, point.m) / point.b,
    }


def gap_result_bytes(points) -> int:
    """``result_bytes`` of ``fixed_m_gap``: each replicate's squared gap, twice at the join of one point's."""
    return result_bytes(points[0].replicates, 2 * 8)


def fixed_m_gap(config: ExperimentConfig, points, mode: str) -> dict:
    """Second moment of the site-level gap zeta - Z along the n-grid.

    ``fixed`` mode keeps m constant; the gap then stabilises at the strictly
    positive limit (p_m(x) + p(x)) * int K^2, within ``GAP_BAND`` of it,
    because the cross moment E(Z zeta) ~ b * p_joint(x, x) vanishes with the
    bandwidth.  ``growing`` mode follows m_n = round(n^delta) and must trend
    to zero, bounded by a fitted multiple of B_{m_n}/b_n + b_n.  ``points``
    are ``grid_points(config, "gap", n_grid, R, m)``, with m None in ``growing`` mode.
    """
    rows = [_gap_row(config, point) for point in points]
    gaps = [r["gap"] for r in rows]
    report = {"name": "truncation_gap", "mode": mode, "x": points[-1].xs[0], "rows": rows}
    if mode == "fixed":
        limit = points[-1].sigma2_truncated[0] + points[-1].sigma2_target[0]
        stabilised = abs(gaps[-1] - limit) <= GAP_BAND * limit
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
