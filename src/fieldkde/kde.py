"""Kernels, bandwidth schedules, the kernel density estimator, and density oracles.

For Gaussian innovations the marginal density of the field and of its
truncated version is an explicit normal law, so the estimator's
centering E f_n(x) and the limit variance p(x) * int K^2 are closed forms
instead of estimates.  Non-Gaussian innovations get a diagnostic-only Monte
Carlo oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .coefficients import (
    CoefficientModel,
    box_mass,
    coeff_box,
    total_sq_mass,
)
from .innovations import InnovationModel, SeedSpec, spawn_rng

__all__ = [
    "KernelModel",
    "BandwidthSchedule",
    "DensityOracle",
    "OracleError",
    "kernel_by_name",
    "kde_estimate",
    "expected_kde",
    "asymptotic_variance",
    "density_oracle",
    "sup_abs_normal_diff",
]

SQRT2PI = math.sqrt(2.0 * math.pi)


class OracleError(RuntimeError):
    """Raised when an exact density oracle is required but unavailable."""


def _epanechnikov(u):
    u = np.asarray(u, dtype=float)
    # tested as |u| > 1, not |u| <= 1, so that a NaN stays NaN
    return np.where(np.abs(u) > 1.0, 0.0, 0.75 * (1.0 - u * u))


# exp(w) is exactly 0.0 for w below this: it is under half the smallest
# subnormal, 2**-1075 = exp(-745.13...)
EXP_ZERO_FLOOR = -746.0


def _gaussian_kernel(u):
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        return np.exp(-0.5 * u * u) / SQRT2PI
    # same operations in the same order as the scalar branch, in one buffer
    w = -0.5 * u
    w *= u
    live = w >= EXP_ZERO_FLOOR
    if not live.all():
        # numpy's exp is ~20x slower on an argument whose result is 0, and
        # with b -> 0 most are; send it 0 there and zero the result instead.
        # Clipping first keeps -inf * 0 from becoming NaN; NaN stays NaN.
        np.maximum(w, EXP_ZERO_FLOOR, out=w)
        w *= live
        np.exp(w, out=w)
        w *= live
    else:
        np.exp(w, out=w)
    w /= SQRT2PI
    return w


def _triangular(u):
    u = np.asarray(u, dtype=float)
    return np.maximum(1.0 - np.abs(u), 0.0)


_KERNELS = {
    "epanechnikov": _epanechnikov,
    "gaussian": _gaussian_kernel,
    "triangular": _triangular,
}


@dataclass(frozen=True)
class KernelModel:
    """Nonnegative unit-mass kernel with its regularity constants.

    ``roughness`` is int K^2 and ``abs_first_moment`` is int |u| K(u) du;
    both are exact values.
    """

    name: str
    sup_value: float
    lipschitz: float
    roughness: float
    support_radius: float
    abs_first_moment: float

    def __call__(self, u):
        return _KERNELS[self.name](u)

    def to_config(self) -> str:
        return self.name


_KERNEL_MODELS = {
    "epanechnikov": KernelModel(
        name="epanechnikov",
        sup_value=0.75,
        lipschitz=1.5,
        roughness=0.6,
        support_radius=1.0,
        abs_first_moment=0.375,
    ),
    "gaussian": KernelModel(
        name="gaussian",
        sup_value=1.0 / SQRT2PI,
        lipschitz=math.exp(-0.5) / SQRT2PI,
        roughness=1.0 / (2.0 * math.sqrt(math.pi)),
        support_radius=math.inf,
        abs_first_moment=math.sqrt(2.0 / math.pi),
    ),
    "triangular": KernelModel(
        name="triangular",
        sup_value=1.0,
        lipschitz=1.0,
        roughness=2.0 / 3.0,
        support_radius=1.0,
        abs_first_moment=1.0 / 3.0,
    ),
}


def kernel_by_name(name: str) -> KernelModel:
    try:
        return _KERNEL_MODELS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}") from None


@dataclass(frozen=True)
class BandwidthSchedule:
    """b_n = c2 * n^(-gamma); gamma in (0, d) keeps n^d * b_n -> infinity."""

    d: int
    gamma: float
    c2: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma < self.d):
            raise ValueError("gamma must lie in (0, d)")
        if self.c2 <= 0:
            raise ValueError("c2 must be positive")

    def b(self, n: int) -> float:
        return self.c2 * float(n) ** (-self.gamma)

    def to_config(self) -> dict:
        return {"gamma": self.gamma, "c2": self.c2}


def _kernel_sum(kernel, x, values, b, axis=None):
    """sum_i K((x - X_i)/b) over the array ``values``, or over its ``axis``, at one scalar ``x``."""
    u = x - values
    u /= b
    return kernel(u).sum(axis=axis)


def kde_estimate(values, x, b: float, kernel: KernelModel):
    """Kernel density estimate (1/(N b)) * sum_i K((x - X_i)/b).

    ``values`` is any array of field values; ``x`` may be scalar or array.
    Each x is one kernel sum over the N values, so memory stays at a few
    arrays of N doubles however many points are asked for.  The estimate is
    invariant under any permutation of the values.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    data = np.asarray(values, dtype=float).ravel()
    if data.size == 0:
        raise ValueError("field must be nonempty")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([_kernel_sum(kernel, xi, data, b) for xi in xs]) / data.size / b
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def asymptotic_variance(px: float, kernel: KernelModel) -> float:
    """Limit variance p(x) * int K^2 of the normalised estimator."""
    if px < 0:
        raise ValueError("density value must be nonnegative")
    return px * kernel.roughness


# ---------------------------------------------------------------------------
# density oracles


def _normal_pdf(x, v):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x / v) / math.sqrt(2.0 * math.pi * v)


def sup_abs_normal_diff(v1: float, v2: float) -> float:
    """sup_x |N(0,v1).pdf(x) - N(0,v2).pdf(x)|, by closed-form critical points.

    The derivative vanishes at x = 0 and at x^2 = 3 ln(v2/v1) * v1 v2/(v2-v1)
    (for v1 != v2); the sup is the largest |difference| over those points.
    """
    if v1 <= 0 or v2 <= 0:
        raise ValueError("variances must be positive")
    if v1 == v2:
        return 0.0
    lo, hi = min(v1, v2), max(v1, v2)
    cands = [0.0]
    x2 = 3.0 * math.log(hi / lo) * lo * hi / (hi - lo)
    cands.append(math.sqrt(x2))
    return max(abs(float(_normal_pdf(x, v1) - _normal_pdf(x, v2))) for x in cands)


@dataclass
class DensityOracle:
    """Marginal and truncated density data for one model at one m.

    Exact mode (Gaussian innovations): all densities are centered normals
    with variances from the coefficient masses.  Diagnostic mode: histogram
    estimates with standard errors, usable for reporting but refused by the
    exact centering.
    """

    exact: bool
    m: int
    variance: float
    truncated_variance: float
    sup_marginal: float
    sup_truncated: float
    sup_gap: float
    density_regularity: str
    diagnostics: dict = field(default_factory=dict)

    def p(self, x):
        if self.exact:
            return _normal_pdf(x, self.variance)
        return np.interp(
            np.asarray(x, dtype=float),
            self.diagnostics["grid"],
            self.diagnostics["marginal"],
        )

    def p_m(self, x):
        if self.exact:
            return _normal_pdf(x, self.truncated_variance)
        return np.interp(
            np.asarray(x, dtype=float),
            self.diagnostics["grid"],
            self.diagnostics["truncated"],
        )

    def summary(self) -> dict:
        return {
            "exact": self.exact,
            "m": self.m,
            "variance": self.variance,
            "truncated_variance": self.truncated_variance,
            "sup_marginal": self.sup_marginal,
            "sup_truncated": self.sup_truncated,
            "sup_gap": self.sup_gap,
            "density_regularity": self.density_regularity,
        }


def _mc_marginals(model, innovations, m, sample, seed):
    """Histogram density estimates of X_0 and its m-truncation."""
    rng = spawn_rng(seed)
    side = 64 if model.d == 1 else 24
    side = max(side, m)
    a = coeff_box(model, side).ravel()
    a_m = coeff_box(model, side).copy()
    mask = np.zeros_like(a_m, dtype=bool)
    mask[(slice(0, m),) * model.d] = True
    a_m[~mask] = 0.0
    a_m = a_m.ravel()
    vals = np.empty(sample)
    vals_m = np.empty(sample)
    chunk = max(1, (1 << 22) // a.size)
    from .innovations import _draw  # local: chunked draws share one generator

    for lo in range(0, sample, chunk):
        hi = min(lo + chunk, sample)
        eps = _draw(innovations, rng, (hi - lo, a.size))
        vals[lo:hi] = eps @ a
        vals_m[lo:hi] = eps @ a_m
    lim = max(np.abs(vals).max(), np.abs(vals_m).max())
    bins = np.linspace(-lim, lim, 121)
    grid = 0.5 * (bins[:-1] + bins[1:])
    width = bins[1] - bins[0]
    h, _ = np.histogram(vals, bins=bins)
    h_m, _ = np.histogram(vals_m, bins=bins)
    dens = h / (sample * width)
    dens_m = h_m / (sample * width)
    se = np.sqrt(np.maximum(dens, 1e-12) / (sample * width))
    return {
        "grid": grid,
        "marginal": dens,
        "truncated": dens_m,
        "se": se,
        "sample": sample,
    }


def density_oracle(
    model: CoefficientModel,
    innovations: InnovationModel,
    m: int,
    mc_sample: int = 200_000,
    seed: SeedSpec | None = None,
) -> DensityOracle:
    """Exact density of X_0 and of its m-truncation (Gaussian case).

    The marginal is N(0, v) with v = sum a_k^2 and the truncated marginal is
    N(0, v_m) with v_m the mass of [0, m)^d.  For non-Gaussian innovations a
    histogram-based diagnostic oracle is returned instead (``exact=False``).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    v = total_sq_mass(model)
    v_m = box_mass(model, m)
    if v_m <= 0:
        raise ValueError("truncated field is degenerate (no mass in [0, m)^d)")
    regularity = (
        "lipschitz-certified" if innovations.lipschitz_density else "not certified"
    )
    if not innovations.is_gaussian:
        diag = _mc_marginals(
            model, innovations, m, mc_sample, seed or SeedSpec(master=0x5EED, stream=977)
        )
        dens, dens_m = diag["marginal"], diag["truncated"]
        return DensityOracle(
            exact=False,
            m=m,
            variance=v,
            truncated_variance=v_m,
            sup_marginal=float(dens.max()),
            sup_truncated=float(dens_m.max()),
            sup_gap=float(np.max(np.abs(dens - dens_m))),
            density_regularity=regularity,
            diagnostics=diag,
        )
    return DensityOracle(
        exact=True,
        m=m,
        variance=v,
        truncated_variance=v_m,
        sup_marginal=1.0 / math.sqrt(2.0 * math.pi * v),
        sup_truncated=1.0 / math.sqrt(2.0 * math.pi * v_m),
        sup_gap=sup_abs_normal_diff(v_m, v),
        density_regularity=regularity,
    )


# even moments mu_2j = int u^(2j) K(u) du of the compact kernels
_EVEN_MOMENTS = {
    "epanechnikov": lambda j: 3.0 / ((2 * j + 1) * (2 * j + 3)),
    "triangular": lambda j: 2.0 / ((2 * j + 1) * (2 * j + 2)),
}


def _cdf_form(name: str, a, beta: float):
    """int K(u) phi(a - beta u) du for a >= 0 from Phi and phi.

    Exact, but it cancels away about (1/beta)^3 of its digits.  Upper-tail
    probabilities are ``ndtr(-z)``, never 1 - Phi(z).
    """
    z1, z2 = a - beta, a + beta
    if name == "epanechnikov":  # 3/(4 beta^3) int_z1^z2 (t - z1)(z2 - t) phi(t) dt
        mass = np.where(z1 > 0, ndtr(-z1) - ndtr(-z2), ndtr(z2) - ndtr(z1))
        bracket = z2 * _normal_pdf(z1, 1.0) - z1 * _normal_pdf(z2, 1.0) - (1.0 + z1 * z2) * mass
        return 0.75 / beta**3 * bracket
    # triangular: second difference of G(z) = z Phi(z) + phi(z) = max(z, 0) + H(|z|)
    # over beta^2; the max(z, 0) parts sum to max(beta - a, 0) exactly
    def H(z):
        return _normal_pdf(z, 1.0) - z * ndtr(-z)

    return (np.maximum(beta - a, 0.0) + H(z2) - 2.0 * H(a) + H(np.abs(z1))) / beta**2


def _moment_series(name: str, a, beta: float):
    """int K(u) phi(a - beta u) du as sum_j mu_2j P_2j; it cancels for large beta.

    P_n = beta^n He_n(a) phi(a) / n! (He: probabilists' Hermite polynomials)
    is the u^n coefficient of phi(a - beta u).  He's recurrence gives
    P_(n+1) = beta (a P_n - beta P_(n-1)) / (n+1), so nothing overflows.
    """
    moment = _EVEN_MOMENTS[name]
    prev = _normal_pdf(a, 1.0)
    cur = beta * a * prev
    total = moment(0) * prev
    for j in range(1, 200):  # the bound only stops non-finite input; finite input converges first
        even = beta * (a * cur - beta * prev) / (2 * j)
        odd = beta * (a * even - beta * cur) / (2 * j + 1)
        total = total + moment(j) * even
        if np.all(np.abs(even) + np.abs(odd) <= 1e-17 * np.abs(total)):
            break
        prev, cur = even, odd
    return total


def expected_kde(oracle: DensityOracle, kernel: KernelModel, b: float, x, truncated: bool = False):
    """E f_n(x) = int K(u) p(x - b u) du in closed form, for scalar or array ``x``.

    p is N(0, v), v the truncated variance when ``truncated``.  The Gaussian
    kernel gives the N(0, v + b^2) density.  For the compact kernels, with
    s = sqrt(v) and beta = b/s, it is (1/s) int K(u) phi(|x|/s - beta u) du:
    the Phi/phi form for beta >= 1, the moment series for beta < 1.
    Independent of n.  Refuses diagnostic oracles: pooled-mean centering is
    the supported route for non-Gaussian innovations.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    if not oracle.exact:
        raise OracleError("exact centering needs Gaussian innovations; use pooled centering")
    v = oracle.truncated_variance if truncated else oracle.variance
    xs = np.asarray(x, dtype=float)
    if kernel.name == "gaussian":
        out = _normal_pdf(xs, v + b * b)
    else:
        s = math.sqrt(v)
        form = _cdf_form if b >= s else _moment_series
        out = form(kernel.name, np.abs(xs) / s, b / s) / s
    return float(out) if xs.ndim == 0 else out
