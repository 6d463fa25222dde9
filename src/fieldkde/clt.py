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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .coefficients import (
    CoefficientModel,
    check_decay_window,
    delta_n,
    m_schedule,
    residual_sqrt_mass,
    total_fourth_mass,
    total_sq_mass,
)
from .field import (
    DEFAULT_MAX_FIELD_BYTES,
    CoupledWorkspace,
    FieldSizeError,
    TruncationError,
    TruncationPlan,
    convolution_method,
    coupled_spectra,
    estimate_field_bytes,
    generate_coupled_fields,
    plan_truncation,
)
from .fourier import next_fast_len
from .innovations import InnovationModel, Seeds
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
    "GridPoint",
    "KsResult",
    "MomentError",
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
STREAM_OFFSETS = {"clt": 0, "blocks": 100, "rectangles": 200, "gap": 300}
MAX_GRID_POINTS = 100

# A batch holds as many replicates as keep their innovation lattices within
# this many bytes, so small lattices share each numpy call while a d=2 FFT
# at n = 256, measured slower when batched, runs one replicate at a time.
BATCH_BYTES = 1 << 20

# fixed-m-gap's last gap must lie within this share of its positive limit
GAP_BAND = 0.15


class MomentError(ValueError):
    """A precondition of an experiment's moments fails: on the innovations, a density oracle at m, a limit
    variance, rectangle norm or block variance of 0, or block sides that do not fit the lattice.

    ``key`` is the key of the experiment's config section that decides it, or the dotted path of a shared
    section's key.
    """

    def __init__(self, message: str, key: str = "x_points"):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    """What the replicate engine and the experiments read to reproduce one experiment bit-for-bit."""

    model: CoefficientModel
    innovations: InnovationModel
    kernel: KernelModel
    bandwidth: BandwidthSchedule
    n_grid: tuple
    replicates: int = 200
    master_seed: int = 20260810
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


# ---------------------------------------------------------------------------
# the plan of a grid point, and replicate scheduling


@dataclass(frozen=True)
class GridPoint:
    """One point of an experiment's n-grid, planned before any replicate is drawn.

    The fields are generated at truncation ``m`` under ``truncation``, and
    replicate r draws from (master, ``stream``, r); ``P`` is the FFT side
    (None on the direct path), and ``bytes`` what one thread holds for a
    batch.  ``rows`` counts the CLI's table rows (0 outside it).  Blocks
    carry their side ``l`` and ``q`` per axis.  At each x of ``xs``, the x's
    its experiment tests, a point holds p(x) int K^2, p_m(x) int K^2 and the
    centerings E f_n(x) of X and of X_m, with its density oracle's summary.
    """

    n: int
    m: int
    b: float
    truncation: TruncationPlan
    stream: int
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


def _batch_size(d: int, n: int, M: int, spectra: int, per: int, max_bytes: int) -> int:
    """Replicates per batch: lattices within BATCH_BYTES, the spectra and ``per`` a replicate within ``max_bytes``."""
    return max(1, min(BATCH_BYTES // (8 * (n + M - 1) ** d), (max_bytes - spectra) // per))


def plan_point(model: CoefficientModel, n, m, b, truncation, stream, replicates, max_bytes, **extra) -> GridPoint:
    """The GridPoint of ``replicates`` at (n, m) under ``truncation``, its figures from ``estimate_field_bytes``.

    Its bytes may exceed ``max_bytes``, at one replicate per batch; ``check_cap`` rejects such a point.
    """
    d, M = model.d, truncation.M
    if n < 1 or not 1 <= m <= M:
        raise ValueError(f"need n >= 1 and 1 <= m <= M (got n={n}, m={m}, M={M})")
    method = convolution_method(model, n, M, max_bytes)
    spectra = estimate_field_bytes(d, n, M, m, method, 0)
    per = estimate_field_bytes(d, n, M, m, method, 1) - spectra
    batch = min(_batch_size(d, n, M, spectra, per, max_bytes), replicates)
    P = next_fast_len(n + M - 1) if method == "fourier" else None
    return GridPoint(n, m, b, truncation, stream, method, P, batch, estimate_field_bytes(d, n, M, m, method, batch),
                     replicates * (n + M - 1) ** d, **extra)


def check_cap(points, max_bytes: int) -> tuple:
    """``points``, or FieldSizeError at the first whose batch holds more than ``max_bytes`` in one thread."""
    for p in points:
        if p.bytes > max_bytes:
            raise FieldSizeError(f"coupled generation with M = {p.truncation.M} holds {p.bytes} bytes for a batch "
                                 f"of {p.batch} (> cap {max_bytes}) at n = {p.n}")
    return points


def truncation_at(n: int, model: CoefficientModel, **request) -> TruncationPlan:
    """``plan_truncation(model, **request)`` for grid point n, its ``TruncationError`` naming n."""
    try:
        return plan_truncation(model, **request)
    except TruncationError as exc:
        raise TruncationError(exc.key, f"{exc} at n = {n}") from None


def grid_points(config: ExperimentConfig, experiment: str, m: int | None = None, l: int | None = None,
                x_points=None, delta: float | None = None, **truncation) -> tuple:
    """The GridPoint of each n of the grid, every one planned before any is drawn.

    m_n is ``m``, or the schedule round(n^delta) where ``m`` is None, with
    ``delta`` else the midpoint of the decay window.  The fields are
    generated under ``truncation``, the keywords of ``plan_truncation``, but
    for "blocks", whose points carry the sides l_n and q_n of
    ``block_sides(n, m_n, l)`` and are generated at M = m_n.  A point's
    ``xs`` are every x of ``x_points`` for "clt" and the first for the
    others, where None stands for (0, 0.5, 1) standard deviations of the
    field; its oracle figures are taken there from one density oracle per
    distinct m.  A point no truncation meets raises ``TruncationError``, and
    one whose blocks do not fit, an x where the field's density is 0, which
    has no limit law to test, or an m where the oracle has no density,
    ``MomentError``, each naming its n.  The memory cap is left to
    ``check_cap``.
    """
    model, kern = config.model, config.kernel
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
            raise ValueError("config key schedule.delta must be a number where m_n follows the schedule and "
                             "the decay/bandwidth window is empty, got null")
    oracles, points = {}, []
    for ni, n in enumerate(config.n_grid):
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
                raise MomentError(f"{exc}, at m = {m_n} and n = {n}", "schedule.delta" if m is None else "m") from None
        oracle = oracles[m_n]
        sigma2 = tuple(asymptotic_variance(float(oracle.p(x)), kern) for x in xs)
        if 0.0 in sigma2:
            raise MomentError(f"the field's density is 0 at x = {xs[sigma2.index(0.0)]}, so T_n has no limit "
                              f"variance there, at n = {n}")
        points.append(plan_point(
            model, n, m_n, b, plan, STREAM_OFFSETS[experiment] + ni, config.replicates, config.max_field_bytes,
            sigma2_target=sigma2, sigma2_truncated=tuple(asymptotic_variance(float(oracle.p_m(x)), kern) for x in xs),
            centering=tuple(tuple(expected_kde(oracle, kern, b, xs, truncated=t).tolist()) for t in (False, True)),
            oracle=oracle.summary(), xs=xs, **extra,
        ))
    return tuple(points)


def _replicate_chunk(config: ExperimentConfig, point: GridPoint, reduce, work: CoupledWorkspace, start, stop) -> list:
    """reduce(X, X_m, scratch) of each batch of replicates start..stop-1 at ``point``, in replicate order.

    The fewest batches that fit ``work``, their sizes within one, share it:
    its generation buffers, and as ``scratch`` two of them the fields no
    longer need.  The chunk's seeds are hashed in one pass.
    """
    count = stop - start
    k = -(-count // len(work.lattices))
    edges = [-(-count * i // k) for i in range(k + 1)]
    seeds = Seeds(config.master_seed, point.stream, range(start, stop))
    batches = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        fields = generate_coupled_fields(config.innovations, seeds[lo:hi], work.spectra, work)
        # each output is copied into its own C-ordered array: the next batch
        # overwrites the workspace, and row sums round by layout
        batches.append(tuple(np.array(out, order="C") for out in reduce(*fields, work.scratch(hi - lo))))
    return batches


def _run_replicates(config: ExperimentConfig, point: GridPoint, reduce) -> tuple:
    """reduce(X, X_m, scratch) over replicates 0..R-1 at ``point``: a tuple of arrays with R rows in replicate order.

    ``reduce`` takes the two fields of a batch, each with a leading
    replicate axis, and two scratch arrays of the fields' shape; the fields
    are views that stay valid for the call only, and it may overwrite
    them.  It returns a tuple of arrays with one row per replicate.  The
    coefficient spectra are built once, and the replicates split into
    min(threads, cpu count, R) contiguous chunks, each with a workspace of
    its own: the first runs on the calling thread, every other on a pool
    thread of its own.  A chunk of c replicates runs k = ceil(c / batch)
    batches, and its workspace holds ceil(c / k).  Replicate r always draws
    from (master, stream, r), and a batch gives the same bits as one
    replicate at a time, so the result depends on neither the thread count
    nor the batch size.  Each output is joined once, in replicate order,
    from C-ordered parts.  The point's batch must fit in the config's
    ``max_field_bytes``: ``FieldSizeError`` otherwise, before any draw.
    """
    check_cap((point,), config.max_field_bytes)
    count = config.replicates
    chunks = min(config.threads, os.cpu_count() or 1, count)
    bounds = [count * c // chunks for c in range(chunks + 1)]
    spectra = coupled_spectra(config.model, point)
    # every workspace is allocated here: glibc gives each thread its own malloc
    # arena, which would keep a pool thread's freed workspace after the call
    tasks = [partial(_replicate_chunk, config, point, reduce,
                     CoupledWorkspace(spectra, _even_batch(hi - lo, point.batch)), lo, hi)
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    # threads start only on submit, so a single chunk starts none; leaving the
    # block joins them, by error too
    with ThreadPoolExecutor(max(chunks - 1, 1)) as pool:
        rest = [pool.submit(task) for task in tasks[1:]]
        batches = tasks[0]() + [out for part in rest for out in part.result()]
    del tasks  # the workspaces are freed before the join
    return tuple(np.concatenate(parts) for parts in zip(*batches))


def _even_batch(count: int, batch: int) -> int:
    """The largest of k = ceil(count / batch) batches that split ``count`` evenly: ceil(count / k)."""
    return -(-count // -(-count // batch))


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """``a``, overwritten in place by its prefix sums along every axis but the first (replicate) axis."""
    for ax in range(1, a.ndim):
        np.cumsum(a, axis=ax, out=a)
    return a


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


def result_bytes(points: int, xs: int, replicates: int) -> int:
    """Bytes ``run_clt_experiment`` holds for its replicate results at their peak, beside the fields.

    The table holds six 8-byte columns over every (n, x, replicate) row.  At
    the grid point being reduced the engine holds nine doubles per (x,
    replicate): the kernel sums of X and X_m (or their chunk parts), the
    estimates, T, T_zeta, T_remainder and two temporaries of a table column;
    the KS test of one x holds its sorted copy, one per replicate (8 bytes
    with tracemalloc), beside one chunk of ``KS_CHUNK`` values.
    """
    return 8 * replicates * (6 * points * xs + 9 * xs + 1)


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
    non-finite value.  ``points`` are ``grid_points(config, "clt")``, each
    testing the same x's.
    """
    model, kern = config.model, config.kernel
    xs = points[0].xs
    R = config.replicates
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

    Sides not above the gap or beyond the lattice raise ``MomentError`` on the ``l`` key.
    """
    l_n = m * math.ceil(math.log(n)) if l is None else l
    if l_n <= m:
        raise MomentError(f"need l_n > m_n at n = {n} (got l={l_n}, m={m})", "l")
    if l_n > n:
        raise MomentError(f"block side {l_n} exceeds the lattice side {n}", "l")
    return l_n, max(n // (l_n + m), 1)


def _block_windows(x, x_m, scratch, kernel, b, point, m, l, q):
    """Per replicate, total and big-block sums of the truncated kernel field K((point - X_m)/b)/sqrt(b)."""
    prefix = _kernel_values(kernel, point, x_m, b, scratch)
    prefix /= math.sqrt(b)
    _prefix_sums(prefix)
    # the q^d windows [t, t+l)^d at offsets t = idx: per axis, the sum to t + l - 1 less that to t - 1, 0 at t = 0
    idx = np.arange(q) * (l + m)
    windows = prefix
    for ax in range(1, prefix.ndim):
        upper = np.take(windows, idx + l - 1, axis=ax)
        upper[(slice(None),) * ax + (slice(1, None),)] -= np.take(windows, idx[1:] - 1, axis=ax)
        windows = upper
    return prefix.reshape(len(prefix), -1)[:, -1], windows


def _block_samples(config: ExperimentConfig, points) -> list[tuple]:
    """(point, totals, big-block sums) of the truncated kernel field at each "blocks" grid point (shared by checks)."""
    out = []
    for point in points:
        reduce = partial(_block_windows, kernel=config.kernel, b=point.b, point=point.xs[0], m=point.m, l=point.l,
                         q=point.q)
        out.append((point, *_run_replicates(config, point, reduce)))
    return out


def block_decomposition_check(config: ExperimentConfig, samples: list[tuple]) -> dict:
    """Gap between the full sum and the big-block sum of the truncated field.

    Per replicate Delta = (S_n(Y) - S_n(eta)) / n^(d/2); the report carries
    Var(Delta) along the n-grid, the rate proxy m_n/(l_n + m_n), and an
    independence audit of adjacent blocks (their sample correlation must sit
    within +-4/sqrt(#blocks * R)).  Verdict: Var(Delta) strictly decreasing.
    ``samples`` are the (point, totals, etas) of ``_block_samples``.
    Adjacent block sums without variance, as at an x no site reaches, have
    no correlation: ``MomentError``.
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
                raise MomentError(
                    f"at x = {point.xs[0]} the adjacent big-block sums of the truncated kernel field take one value "
                    f"in every replicate at n = {n}, so their correlation is undefined: x lies beyond the "
                    "kernel's reach of the field's values"
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
    full field's into the first, with x - X_i taken in ``x`` itself; the
    remainder's sum and square, into the second, are taken before its
    prefix sums overwrite it.
    """
    root_b = math.sqrt(b)
    zeta = _kernel_values(kernel, point, x_m, b, scratch)
    zeta /= root_b
    diff = _kernel_values(kernel, point, x, b, (x, scratch[0]))
    diff /= root_b
    diff -= zeta
    corners = (slice(None),) + tuple(np.array(rects).T - 1)  # one sum per replicate and rectangle
    zsums = _prefix_sums(zeta)[corners]
    axes = tuple(range(1, diff.ndim))
    dsum, dsq = np.sum(diff, axis=axes), np.sum(np.square(diff, out=zeta), axis=axes)
    return zsums, _prefix_sums(diff)[corners], dsum, dsq


def rectangle_moment_check(config: ExperimentConfig, rectangles, points, ratio_cap: float = 3.0) -> dict:
    """Normalised L2 norms of corner-rectangle sums of the truncated kernel field.

    For each rectangle j the quantity ||sum_{1<=i<=j} zeta_bar||_2 /
    sqrt(j_1...j_d) should stay within a bounded band (independence makes it
    exactly ||zeta_bar||_2); the max/min ratio across rectangles and n is the
    boundedness proxy.  The remainder field is normalised instead by
    sqrt(j_1...j_d) * (||Zbar - zetabar||_2 + sqrt(b) Delta_n) and the
    smallest constant covering the grid is reported.  ``points`` are
    ``grid_points(config, "rectangles")``.  A point where every rectangle
    sum is 0 in every replicate, as at an x no site reaches, has norms of
    its centering alone: ``MomentError``.
    """
    model, kern = config.model, config.kernel
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
    if not rect_list:
        raise ValueError("need at least one rectangle")
    rows = []
    norm_values = []
    fitted = []
    for point in points:
        n, b, x = point.n, point.b, point.xs[0]
        ez = math.sqrt(b) * point.centering[1][0]
        ed = math.sqrt(b) * point.centering[0][0] - ez
        reduce = partial(_rectangle_sums, kernel=kern, b=b, point=x, rects=rect_list)
        zs, ds, dsum, dsq = _run_replicates(config, point, reduce)
        if not zs.any():
            raise MomentError(
                f"at x = {x} the truncated kernel field sums to 0 over every rectangle in every replicate "
                f"at n = {n}, so the rectangle norms measure its centering alone: "
                "x lies beyond the kernel's reach of the field's values"
            )
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


def wu_inequality_check(model: CoefficientModel, innovations: InnovationModel, orders) -> list:
    """The constant C_p = E|X_0|^(2p) / (sum_k a_k^2)^p of E|sum_k a_k eps_k|^(2p) <= C_p (sum_k a_k^2)^p.

    One report per order p of ``orders``, each with the weight mass sum a^2
    and the exact constant ``reference_c``: 1 at p=1, and
    3 + (kappa - 3) sum a^4 / (sum a^2)^2 at p=2, with kappa the innovation
    kurtosis.  Innovations without a finite E|eps|^(2 v 2p) raise
    ``MomentError`` on the ``wu_p`` key, before any report is made.
    """
    for q in orders:
        if q not in (1, 2):
            raise ValueError("p must be 1 or 2")
        order = max(2, 2 * q)
        if innovations.max_moment_order <= order:
            raise MomentError(
                f"innovations need E|eps|^{order} < inf (max finite order {innovations.max_moment_order})", "wu_p"
            )
    total = total_sq_mass(model)
    return [{
        "name": "wu_moment",
        "p": q,
        "weight_mass": float(total),
        "reference_c": 1.0 if q == 1 else (innovations.kurtosis - 3.0) * total_fourth_mass(model) / total**2 + 3.0,
    } for q in orders]


# ---------------------------------------------------------------------------
# truncation gap


def _squared_gap(x, x_m, scratch, kernel, b, point):
    """Per replicate, site mean of (K((point - X_m)/b) - K((point - X)/b))^2 / b, in the scratch arrays and ``x``."""
    gap = _kernel_values(kernel, point, x_m, b, scratch)
    gap -= _kernel_values(kernel, point, x, b, (x, scratch[0]))
    return (np.mean(np.square(gap, out=gap), axis=tuple(range(1, gap.ndim))) / b,)


def fixed_m_gap(config: ExperimentConfig, points, mode: str) -> dict:
    """Second moment of the site-level gap zeta - Z along the n-grid.

    ``fixed`` mode keeps m constant; the gap then stabilises at the strictly
    positive limit (p_m(x) + p(x)) * int K^2, within ``GAP_BAND`` of it,
    because the cross moment E(Z zeta) ~ b * p_joint(x, x) vanishes with the
    bandwidth.  ``growing`` mode follows m_n = round(n^delta) and must trend
    to zero, bounded by a fitted multiple of B_{m_n}/b_n + b_n.  ``points``
    are ``grid_points(config, "gap", m)``, with m None in ``growing`` mode.
    """
    rows = []
    for point in points:
        n, m_n, b = point.n, point.m, point.b
        reduce = partial(_squared_gap, kernel=config.kernel, b=b, point=point.xs[0])
        (gaps,) = _run_replicates(config, point, reduce)
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
