"""Coefficient families on the positive orthant of Z^d and their tail functionals.

A coefficient model assigns a weight a_k to every multi-index k >= 0 of Z^d
(zero elsewhere, which makes the driven moving-average field causal).  The
dependence the coefficients induce is summarised by

    A_k     = sqrt( sum_{i >= k} a_i^2 )
    A[n]    = max over axes of A at (n,1,...,1), (1,n,1,...,1), ...
    B_m     = sqrt( sum_{i >= 0, |i|_inf >= m} a_i^2 )
    Delta_n = sum_{k in [1,n]^d} A_{k-1} / prod_t sqrt(k_t)

and the checkers below decide whether a (coefficients, bandwidth, truncation
schedule) combination lies in the regime where the normalised kernel density
estimator of the field's marginal has a Gaussian limit.

Supported families: power decay a_i = c*(1+|i|_inf)^(-q) with q > d/2,
geometric a_i = r^(i_1+...+i_d) with 0 < r < 1, and finite tables.  Radial
sums for the power family are closed forms in Hurwitz zeta values, so no
series is truncated: the functionals are exact up to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .special import zeta

__all__ = [
    "CoefficientModel",
    "ConditionReport",
    "ParameterError",
    "delta_n",
    "coeff_box",
    "box_mass",
    "total_sq_mass",
    "unit_masses",
    "residual_sqrt_mass",
    "check_decay_window",
    "check_hallin",
    "check_machkouri_qsum",
    "check_condition_c",
    "m_schedule",
    "model_from_config",
]

FAMILIES = ("power_decay", "geometric", "finite_support")
# parameters that belong to one family; another family rejects them
_FAMILY_OF = {"q": "power_decay", "scale": "power_decay", "ratio": "geometric", "table": "finite_support"}


class ParameterError(ValueError):
    """The package's one exception class: a refusal that one config key decides, ``key`` that key in full."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class CoefficientModel:
    """Rule k -> a_k on the positive orthant, plus decay metadata.

    ``beta`` optionally declares the exponent of a bound A[n] <= c1 * n^(-beta);
    when absent, ``decay_exponent`` derives it from the family (q - d/2 for
    power decay, +inf for geometric and finite tables).  A parameter of
    another family is rejected; ``scale`` defaults to 1.  Weights whose
    square sum is 0 or beyond the float range are rejected, naming the
    family's ``scale``, ``ratio`` or ``table``.
    """

    d: int
    family: str
    q: float | None = None
    scale: float | None = None
    ratio: float | None = None
    table: np.ndarray | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError("coefficient.d", "dimension must be a positive integer")
        if self.family not in FAMILIES:
            raise ParameterError("coefficient.family", f"unknown coefficient family {self.family!r}")
        for key, family in _FAMILY_OF.items():
            if getattr(self, key) is not None and family != self.family:
                raise ParameterError(f"coefficient.{key}", f"belongs to the {family} family, not to {self.family}")
        if self.family == "power_decay":
            if self.scale is None:
                object.__setattr__(self, "scale", 1.0)
            if self.q is None or self.q <= self.d / 2.0:
                raise ParameterError(
                    "coefficient.q", f"power-decay requires q > d/2 for square summability (got q={self.q}, d={self.d})"
                )
            if self.scale == 0:
                raise ParameterError("coefficient.scale", "power-decay scale must be nonzero")
        elif self.family == "geometric":
            if self.ratio is None or not (0.0 < self.ratio < 1.0):
                raise ParameterError("coefficient.ratio", f"geometric ratio must lie in (0, 1), got {self.ratio}")
        else:
            try:
                tab = np.asarray(self.table, dtype=float)
            except ValueError:  # a ragged table
                tab = None
            if self.table is None or tab is None or tab.ndim != self.d or not np.all(np.isfinite(tab)):
                raise ParameterError("coefficient.table", f"finite_support needs a {self.d}-dimensional table of "
                                     "finite values, one list of equal length per axis")
            object.__setattr__(self, "table", tab)
        if self.beta is not None and self.beta <= 0:
            raise ParameterError("coefficient.beta", f"declared decay exponent must be positive, got {self.beta}")
        with np.errstate(over="ignore"):  # a table's square sum beyond the float range is inf
            try:
                mass = total_sq_mass(self)
            except OverflowError:  # a float power beyond the float range
                mass = math.inf
        if not 0.0 < mass < math.inf:
            where = "underflows to 0" if mass == 0.0 else "lies beyond the float range" if mass > 0.0 else "is NaN"
            if self.family == "geometric":  # (1 - r^2)^(-d) >= 1 can only overflow
                raise ParameterError("coefficient.ratio", f"coefficient.ratio = {self.ratio} in d = {self.d} "
                                     "dimensions gives the weights a square sum (1 - r^2)^(-d) beyond the float range")
            if self.family == "power_decay":
                raise ParameterError("coefficient.scale", f"the power-decay weights' square sum scale^2 * sum "
                                     f"(1+|k|_inf)^(-2q) {where}")
            if not self.table.any():
                raise ParameterError("coefficient.table", "finite_support needs a nonzero weight, got a table of zeros")
            raise ParameterError("coefficient.table", f"the table's square sum {where}")

    def decay_exponent(self) -> float:
        if self.beta is not None:
            return self.beta
        if self.family == "power_decay":
            return self.q - self.d / 2.0
        return math.inf

    def support_side(self) -> int | None:
        """Side of the smallest cube containing all nonzero a_k, or None."""
        if self.table is None:
            return None
        return int(max(ax.max() for ax in np.nonzero(self.table))) + 1

    def to_config(self) -> dict:
        cfg = {"family": self.family, "d": self.d}
        if self.family == "power_decay":
            cfg["q"] = self.q
            cfg["scale"] = self.scale
        elif self.family == "geometric":
            cfg["ratio"] = self.ratio
        else:
            cfg["table"] = np.asarray(self.table).tolist()
        if self.beta is not None:
            cfg["beta"] = self.beta
        return cfg


def model_from_config(cfg: dict) -> CoefficientModel:
    return CoefficientModel(**cfg)


# ---------------------------------------------------------------------------
# evaluation


def coeff_box(model: CoefficientModel, side: int) -> np.ndarray:
    """Array of a_k on the cube [0, side)^d."""
    if side < 1:
        raise ValueError("side must be >= 1")
    d = model.d
    if model.family == "power_decay":
        axes = np.ix_(*[np.arange(side)] * d)
        radial = reduce(np.maximum, axes) if d > 1 else axes[0]
        return model.scale * (1.0 + radial) ** (-model.q)
    if model.family == "geometric":
        pows = model.ratio ** np.arange(side, dtype=float)
        return reduce(np.multiply, np.ix_(*[pows] * d)) if d > 1 else pows.copy()
    out = np.zeros((side,) * d)
    tab = model.table
    sl = tuple(slice(0, min(side, s)) for s in tab.shape)
    out[sl] = tab[sl]
    return out


# ---------------------------------------------------------------------------
# radial sums for the power family
#
# For a_i = c*(1+|i|_inf)^(-q) and any j inside a cube [0, L)^d, the mass of
# {i >= j} outside the cube is a shell series
#     sum_{s >= L} [prod(s+1-j_t) - prod(s-j_t)] * c^2 (1+s)^(-2q),
# whose bracket is a degree-(d-1) polynomial in s.  With the power moments
# P_r = sum_{s >= L} s^r c^2 (1+s)^(-2q) in closed form, the outside mass is
# an O(1) combination per index.  Expanding s^r = (t-1)^r with t = 1+s gives
#     P_r = c^2 sum_k C(r,k) (-1)^(r-k) zeta(2q-k, L+1)
# in Hurwitz zeta values; 2q-k > 1 for every k <= d-1 is exactly q > d/2.


def _power_moments(d: int, p: float, start: int, scale: float = 1.0) -> np.ndarray:
    """P_0..P_{d-1} with P_r = sum_{s>=start} s^r scale^2 (1+s)^(-p), p = 2q for the weights a_i^2.

    Summed from s >= 1, with the s = 0 term added exactly: from s = 0 the
    alternating binomial sum cancels (up to ~6e-14 relative at d=3, p=8);
    from s >= 1 it stays within 3e-15 of 40-digit values for start <= 300.
    """
    z = zeta(p - np.arange(d), max(start, 1) + 1.0)
    P = np.array(
        [sum(math.comb(r, k) * (-1) ** (r - k) * z[k] for k in range(r + 1)) for r in range(d)]
    )
    if start == 0:
        P[0] += 1.0
    return scale**2 * P


def _elementary_coeffs(offsets) -> list[np.ndarray]:
    """Coefficients (ascending in s) of prod_t (s + x_t) over a broadcast grid."""
    coeffs = [np.array(1.0)]
    for x in offsets:
        new = [None] * (len(coeffs) + 1)
        new[0] = x * coeffs[0]
        for r in range(1, len(coeffs)):
            new[r] = coeffs[r - 1] + x * coeffs[r]
        new[len(coeffs)] = coeffs[-1]
        coeffs = [np.asarray(c, dtype=float) for c in new]
    return coeffs


def _power_outside_mass(model: CoefficientModel, side: int) -> np.ndarray:
    """sum_{i >= j, |i|_inf >= side} a_i^2 for every j in [0, side)^d."""
    d = model.d
    P = _power_moments(d, 2.0 * model.q, side, model.scale)
    j_axes = [np.arange(side, dtype=float).reshape([-1 if t == ax else 1 for t in range(d)])
              for ax in range(d)]
    plus = _elementary_coeffs([1.0 - j for j in j_axes])
    minus = _elementary_coeffs([-j for j in j_axes])
    out = np.zeros((side,) * d)
    for r in range(d):
        out = out + (plus[r] - minus[r]) * P[r]
    return out


def _power_mass(d: int, p: float, m: int, scale: float = 1.0) -> float:
    """sum_{i >= 0, |i|_inf >= m} scale^2 (1+|i|_inf)^(-p), at p = 2q the power-decay sum of a_i^2 off [0, m)^d."""
    P = _power_moments(d, p, m, scale)
    return float(sum(math.comb(d, r) * P[r] for r in range(d)))


# ---------------------------------------------------------------------------
# scalar mass helpers


def total_sq_mass(model: CoefficientModel) -> float:
    """sum_{k >= 0} a_k^2."""
    if model.family == "power_decay":
        return _power_mass(model.d, 2.0 * model.q, 0, model.scale)
    if model.family == "geometric":
        return (1.0 - model.ratio**2) ** (-model.d)
    return float(np.sum(model.table**2))


def unit_masses(model: CoefficientModel) -> tuple[float, float]:
    """(sum u^2, sum u^4) in closed form for the weights at unit scale, u = a / s with s the power-decay scale, a
    table's largest |entry|, or 1 for geometric weights.  Their ratio is sum a^4 / (sum a^2)^2, which is free of the
    scale, while the model's own sum of a^4 may underflow or overflow."""
    d = model.d
    if model.family == "power_decay":
        return _power_mass(d, 2.0 * model.q, 0), _power_mass(d, 4.0 * model.q, 0)
    if model.family == "geometric":
        r2 = model.ratio**2
        return (1.0 - r2) ** (-d), (1.0 - r2**2) ** (-d)
    u2 = (model.table / np.max(np.abs(model.table))) ** 2
    return float(np.sum(u2)), float(np.sum(u2**2))


def box_mass(model: CoefficientModel, m: int) -> float:
    """sum_{k in [0, m)^d} a_k^2."""
    if m < 1:
        return 0.0
    if model.family == "geometric":
        r2 = model.ratio**2
        return float(((1.0 - r2**m) / (1.0 - r2)) ** model.d)
    if model.family == "power_decay":
        return float(np.sum(coeff_box(model, m) ** 2))
    tab = model.table
    sl = tuple(slice(0, min(m, s)) for s in tab.shape)
    return float(np.sum(tab[sl] ** 2))


def residual_sqrt_mass(model: CoefficientModel, m: int) -> float:
    """B_m = sqrt( sum over i >= 0 with |i|_inf >= m of a_i^2 )."""
    if m < 1:
        return math.sqrt(total_sq_mass(model))
    if model.family == "geometric":
        r2 = model.ratio**2
        val = (1.0 - (1.0 - r2**m) ** model.d) / (1.0 - r2) ** model.d
        return math.sqrt(max(val, 0.0))
    if model.family == "power_decay":
        return math.sqrt(_power_mass(model.d, 2.0 * model.q, m, model.scale))
    return math.sqrt(max(total_sq_mass(model) - box_mass(model, m), 0.0))


# ---------------------------------------------------------------------------
# Delta_n


# the A-table is one float64 array of side max(n + 1, support side)
MAX_TABLE_BYTES = 1 << 28


def _suffix_box_sums(arr: np.ndarray) -> np.ndarray:
    """S[j] = sum_{i >= j within the array} arr[i]."""
    out = arr
    for ax in range(arr.ndim):
        out = np.flip(np.cumsum(np.flip(out, ax), axis=ax), ax)
    return out


def _delta_weights(n: int, d: int) -> np.ndarray:
    w = 1.0 / np.sqrt(np.arange(1, n + 1, dtype=float))
    return reduce(np.multiply, np.ix_(*[w] * d)) if d > 1 else w


def _a_table(model: CoefficientModel, side: int) -> np.ndarray:
    """A_j on [0, side)^d for the power family and finite tables.

    ``side`` must cover a finite table's support.  For the power family the
    orthant tails outside the cube are added through the Hurwitz zeta
    moments of ``_power_moments``, so every entry is exact up to rounding.
    Raises ``ValueError`` above ``MAX_TABLE_BYTES``.
    """
    if (side**model.d) * 8 > MAX_TABLE_BYTES:
        raise ValueError(f"A-table of side {side}^{model.d} exceeds the {MAX_TABLE_BYTES} byte cap")
    sq = _suffix_box_sums(coeff_box(model, side) ** 2)
    if model.family == "power_decay":
        sq = sq + _power_outside_mass(model, side)
    return np.sqrt(np.maximum(sq, 0.0))


def delta_n(model: CoefficientModel, n: int) -> float:
    """Delta_n = sum_{k in [1,n]^d} A_{k-1} / prod_t sqrt(k_t).

    Geometric tails factor over the axes, A_j = (1-r^2)^(-d/2) r^(j_1+...+j_d),
    so Delta_n is the d-th power of a one-axis sum.  The other families sum
    an A-table of side max(n + 1, support side); the side decides which part
    of each tail the zeta moments carry, so another side moves Delta_n in the
    last bits.  Raises ``ValueError`` for n < 1 and through ``_a_table``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = model.d
    if model.family == "geometric":
        r = model.ratio
        kk = np.arange(1, n + 1, dtype=float)
        return (1.0 - r * r) ** (-d / 2.0) * float(np.sum(r ** (kk - 1.0) / np.sqrt(kk))) ** d
    a_table = _a_table(model, max(n + 1, model.support_side() or 0))
    return float(np.sum(a_table[(slice(0, n),) * d] * _delta_weights(n, d)))


# ---------------------------------------------------------------------------
# condition checkers


@dataclass
class ConditionReport:
    """Outcome of one deterministic or trend-based regime check."""

    name: str
    passed: bool
    verdict: str
    details: dict = field(default_factory=dict)
    delta_interval: tuple[float, float] | None = None
    delta_star: float | None = None
    thresholds: dict = field(default_factory=dict)
    grid_rows: list = field(default_factory=list)


def _exact(x) -> Fraction:
    # Fraction(float) is exact (floats are binary rationals), so strict
    # comparisons below are decided without rounding
    return Fraction(x)


def m_schedule(n: int, delta: float) -> int:
    """Truncation order m_n: the integer nearest to n^delta, at least 1.

    Rounding keeps |m_n - n^delta| <= 1/2 with no downward bias, so every
    rate condition on m_n = n^delta + O(1) still holds.  A floor would let
    float error decide at exact integer powers (64**(1/3) evaluates to
    3.9999999999999996); n^delta is never a half-integer for rational delta,
    so rounding has no such edge.  B_{m_n}/b_n remains a sawtooth in n.
    """
    return max(1, math.floor(float(n) ** delta + 0.5))


def check_decay_window(d: int, beta: float, gamma: float) -> ConditionReport:
    """Feasibility of a power-law decay/bandwidth pair.

    With A[n] <= c1 * n^(-beta) and b_n = c2 * n^(-gamma), the truncation
    schedule m_n = round(n^delta) (``m_schedule``) works for every delta in
    the open interval (gamma/beta, min(gamma/d, 1 - gamma/d)); the pair passes iff
    gamma < d*beta/(d+beta) and beta > d, both strict.
    """
    if d < 1 or gamma <= 0 or beta <= 0:
        raise ValueError("d, beta, gamma must be positive")
    fd, fg = _exact(d), _exact(gamma)
    if math.isinf(beta):
        beta_ok = True
        gamma_ok = fg < fd
        lo = Fraction(0)
    else:
        fb = _exact(beta)
        beta_ok = fb > fd
        gamma_ok = fg < fd * fb / (fd + fb)
        lo = fg / fb
    hi = min(fg / fd, 1 - fg / fd)
    passed = bool(beta_ok and gamma_ok)
    star = float(lo + hi) / 2.0 if passed else None
    return ConditionReport(
        name="decay_window",
        passed=passed,
        verdict="pass" if passed else "fail",
        details={
            "beta_gt_d": bool(beta_ok),
            "gamma_below_threshold": bool(gamma_ok),
            "gamma_threshold": float(fd * _exact(beta) / (fd + _exact(beta)))
            if not math.isinf(beta)
            else float(d),
            "interval_lo": float(lo),
            "interval_hi": float(hi),
        },
        delta_interval=(float(lo), float(hi)) if passed else None,
        delta_star=star,
    )


def check_hallin(d: int, q: float, gamma: float) -> ConditionReport:
    """Hallin-style sufficient condition for |a_i| <= C |i|_inf^(-q), b_n = n^(-gamma).

    That route needs q > max(d+3, 2d+1/2) together with
    d - gamma*(2q-1+6d)/(2q-1-4d) > 0.  The report also evaluates the weaker
    window route obtained by taking beta = q - d/2, i.e. q > 3d/2 with
    gamma < d*(q-d/2)/(q+d/2), so callers can compare the two regimes.
    """
    if d < 1 or q <= 0 or gamma <= 0:
        raise ValueError("d, q, gamma must be positive")
    fd, fq, fg = _exact(d), _exact(q), _exact(gamma)
    window_q_ok = fq > 3 * fd / 2
    window_gamma_bound = fd * (fq - fd / 2) / (fq + fd / 2)
    window_ok = bool(window_q_ok and fg < window_gamma_bound)
    denom = 2 * fq - 1 - 4 * fd
    q_ok = fq > max(fd + 3, 2 * fd + Fraction(1, 2))
    details = {
        "hallin_q_ok": bool(q_ok),
        "window_pass": window_ok,
        "window_q_ok": bool(window_q_ok),
        "window_gamma_bound": float(window_gamma_bound),
    }
    if denom <= 0:
        details["exponent_defined"] = False
        return ConditionReport(
            name="hallin",
            passed=False,
            verdict="fail",
            details={**details, "reason": "2q-1-4d <= 0: bandwidth exponent undefined"},
        )
    ratio = (2 * fq - 1 + 6 * fd) / denom
    bw_ok = fd - fg * ratio > 0
    details.update(
        exponent_defined=True,
        exponent_ratio=float(ratio),
        hallin_bandwidth_ok=bool(bw_ok),
        hallin_gamma_bound=float(fd / ratio),
    )
    passed = bool(q_ok and bw_ok)
    return ConditionReport(
        name="hallin", passed=passed, verdict="pass" if passed else "fail", details=details
    )


def check_machkouri_qsum(model: CoefficientModel, q: float) -> ConditionReport:
    """Exact verdict on sum_{i >= 0} |i|_inf^q |a_i| < infinity for a finite q >= 0.

    Finite tables and geometric weights always converge.  Power decay
    c*(1+|i|_inf)^(-q_a) puts (s+1)^d - s^d ~ d*s^(d-1) weights on the shell
    |i|_inf = s, whose terms then behave like s^(q + d - 1 - q_a): the sum
    converges iff q < q_a - d, compared as exact rationals.  The convergent
    q = 5d/2 benchmark and the weaker q > d regime are reported for comparison.
    """
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"q must be finite and >= 0, got {q}")
    if model.family == "power_decay":
        bound = _exact(model.q) - model.d
        passed, q_bound = _exact(q) < bound, float(bound)
    else:
        passed, q_bound = True, "inf"
    return ConditionReport(
        name="qsum",
        passed=passed,
        verdict="pass" if passed else "fail",
        details={
            "q": q,
            "q_bound": q_bound,
            "elm_benchmark_q": 2.5 * model.d,
            "weaker_regime_q_gt_d": bool(q > model.d),
        },
    )


# a vanishing sequence of check_condition_c "pass"es when it ends below STRICT_RATIO times its first
# value, and "pass (trend)" when it ends below TREND_RATIO times it
STRICT_RATIO = 0.1
TREND_RATIO = 1.0


def _seq_verdict(values) -> dict:
    vals = [float(v) for v in values]
    half = len(vals) // 2
    tail = vals[half:] if len(vals) > 1 else vals
    nonincreasing = all(b <= a for a, b in zip(tail, tail[1:]))
    shrinks = vals[-1] < tail[0] or vals[-1] == 0.0
    first = vals[0]
    below_strict = vals[-1] <= STRICT_RATIO * first if first > 0 else vals[-1] == 0.0
    below_trend = vals[-1] <= TREND_RATIO * first if first > 0 else vals[-1] == 0.0
    if nonincreasing and shrinks and below_strict:
        verdict = "pass"
    elif nonincreasing and shrinks and below_trend:
        verdict = "pass (trend)"
    else:
        verdict = "fail"
    return {
        "values": vals,
        "decreasing_last_half": bool(nonincreasing and shrinks),
        "final_over_initial": vals[-1] / first if first > 0 else 0.0,
        "verdict": verdict,
    }


def check_condition_c(model: CoefficientModel, bandwidth, delta: float, n_grid) -> ConditionReport:
    """Evaluate the four vanishing-limit sequences for the schedule m_n = round(n^delta).

    The sequences are sqrt(b_n)*Delta_n, B_{m_n}/b_n, m_n^d*b_n and
    m_n^d*log(n)^d/(n^d*b_n).  Limits cannot be decided on a finite grid, so
    the verdict combines two routes: a theorem-backed "pass (window)" when
    the model's decay exponent puts delta strictly inside the feasible
    interval of ``check_decay_window``, and a numeric "pass (trend)" when all
    four sequences decrease over the last half of the grid and end below
    ``TREND_RATIO`` times their initial value (``STRICT_RATIO`` marks the
    stricter per-sequence "pass").  Raw sequences are always attached.
    """
    if not (0.0 < delta < 1.0):
        raise ParameterError("schedule.delta", f"the conditions' schedule needs delta in (0, 1), got {delta}")
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing with length >= 3")
    d = model.d
    gamma = bandwidth.gamma
    rows = []
    for n in n_grid:
        m_n = m_schedule(n, delta)
        b = bandwidth.b(n)
        rows.append(
            {
                "n": n,
                "m_n": m_n,
                "b_n": b,
                "sqrt_b_delta": math.sqrt(b) * delta_n(model, n),
                "residual_over_b": residual_sqrt_mass(model, m_n) / b,
                "m_vol_times_b": (m_n**d) * b,
                "m_logs_over_nb": (m_n**d) * math.log(n) ** d / ((float(n) ** d) * b),
            }
        )
    per_seq = {
        k: _seq_verdict([row[k] for row in rows])
        for k in ("sqrt_b_delta", "residual_over_b", "m_vol_times_b", "m_logs_over_nb")
    }
    trend_pass = all(v["verdict"] != "fail" for v in per_seq.values())

    beta_eff = model.decay_exponent()
    window = check_decay_window(d, beta_eff, gamma)
    in_window = False
    if window.passed:
        lo, hi = window.delta_interval
        in_window = lo < delta < hi
    if in_window:
        verdict, passed = "pass (window)", True
    elif trend_pass:
        verdict, passed = "pass (trend)", True
    else:
        verdict, passed = "fail", False
    return ConditionReport(
        name="schedule_limits",
        passed=passed,
        verdict=verdict,
        details={
            "delta": delta,
            "gamma": gamma,
            "beta": beta_eff if not math.isinf(beta_eff) else "inf",
            "window_pass": window.passed,
            "delta_in_window": in_window,
            "sequences": per_seq,
        },
        delta_interval=window.delta_interval,
        delta_star=window.delta_star,
        thresholds={"strict_ratio": STRICT_RATIO, "trend_ratio": TREND_RATIO},
        grid_rows=rows,
    )
