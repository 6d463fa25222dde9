"""Kernels, bandwidth schedules, the kernel density estimator, and density oracles.

The density oracle gives the marginal density p of the field, p_m of its
m-truncation and the centering E f_n(x) for every innovation law: in
closed form for Gaussian innovations, otherwise by Fourier inversion of
phi_X(t) = prod_k phi_eps(a_k t) with a certified error bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientModel, ParameterError, box_mass, coeff_box, residual_sqrt_mass, total_sq_mass
from .innovations import UNIFORM_HALF_WIDTH, InnovationModel
from .special import erfc, ndtr

__all__ = [
    "KernelModel",
    "BandwidthSchedule",
    "DensityOracle",
    "kernel_by_name",
    "kde_estimate",
    "expected_kde",
    "asymptotic_variance",
    "density_oracle",
    "sup_abs_normal_diff",
]

SQRT2PI = math.sqrt(2.0 * math.pi)


# Each kernel writes into ``out`` when it is given and returns it; ``out`` may be ``u`` itself.


def _epanechnikov(u, out=None):
    u = np.asarray(u, dtype=float)
    # 0.75 max(1 - u^2, 0): u^2 rounds above 1 exactly when |u| > 1, and a NaN stays NaN
    w = np.multiply(u, u, out=np.empty(u.shape) if out is None else out)
    np.subtract(1.0, w, out=w)
    np.maximum(w, 0.0, out=w)
    return np.multiply(w, 0.75, out=w)


# the least w at which exp(w) / sqrt(2 pi) is a normal double: the Gaussian
# kernel is exactly 0.0 where -u^2/2 falls below it, so each of its nonzero
# values is at least DBL_MIN = 2**-1022 and its exp never returns a subnormal.
# The rounded log(DBL_MIN sqrt(2 pi)) = -707.4774799990595 gives a kernel
# value just under DBL_MIN; one ulp of w above it, just over.  Only values
# below DBL_MIN = 2.2e-308 differ from exp(-u^2/2) / sqrt(2 pi).
EXP_ZERO_FLOOR = math.nextafter(math.log(sys.float_info.min * SQRT2PI), 0.0)
# every kernel here is exactly 0.0 for |u| beyond this: the compact ones past
# their support radius, the Gaussian where -u^2/2 falls below the floor
KERNEL_REACH = math.sqrt(-2.0 * EXP_ZERO_FLOOR)


def _gaussian_kernel(u, out=None):
    """exp(-u^2/2) / sqrt(2 pi), and exactly 0.0 where -u^2/2 < ``EXP_ZERO_FLOOR``."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        return _gaussian_kernel(u.reshape(1))[0]
    w = np.multiply(u, u, out=out)
    w *= -0.5
    live = w >= EXP_ZERO_FLOOR
    if not live.all():
        # numpy's exp is ~20x slower on an argument whose result is 0, and
        # ~180x on one whose result is subnormal; with b -> 0 most arguments
        # are below the floor, so send it 0 there and zero the result
        # instead.  Clipping first keeps -inf * 0 from becoming NaN; NaN
        # stays NaN.
        np.maximum(w, EXP_ZERO_FLOOR, out=w)
        w *= live
        np.exp(w, out=w)
        w *= live
    else:
        np.exp(w, out=w)
    w /= SQRT2PI
    return w


def _triangular(u, out=None):
    u = np.asarray(u, dtype=float)
    w = np.abs(u, out=np.empty(u.shape) if out is None else out)
    np.subtract(1.0, w, out=w)
    return np.maximum(w, 0.0, out=w)


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

    def __call__(self, u, out=None):
        return _KERNELS[self.name](u, out)


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


def _reach(kernel, b):
    """Distance from x beyond which K((x - X)/b) is exactly 0.0.

    The margin keeps rounding in (x - X)/b from dropping a site whose term is nonzero.
    """
    return min(kernel.support_radius, KERNEL_REACH) * (1.0 + 1e-9) * b


def _out_of_reach(kernel, u, b):
    """Where the differences ``u`` = x - X_i lie beyond ``_reach``, as a fresh boolean array; NaN lies in reach."""
    reach = _reach(kernel, b)
    dead = u > reach
    dead |= u < -reach
    return dead


# below this share of the sites in reach of x, _kernel_values evaluates the
# kernel at those sites alone.  Finding them costs two comparisons, a count
# and an index per site, about what a compact kernel costs everywhere; the
# Gaussian's exp costs more.  Live over dense time on a 2-vCPU host (numpy
# 2.4), over one field of 256^2, 500 of 256 and 21 of 64^2: Gaussian
# 0.33-0.63 at shares 0.5-5%, 0.71-0.78 at 25% and 0.91-1.44 at 50%;
# Epanechnikov 0.65-0.80 at 2% and 0.91-1.08 at 5%; triangular 0.83-1.06 at
# 2% and 1.13-1.32 at 5%
LIVE_SITE_SHARE = {"epanechnikov": 0.02, "gaussian": 0.25, "triangular": 0.02}


def _kernel_values(kernel, x, values, b, scratch=None):
    """K((x - X_i)/b) for the array ``values`` at one scalar ``x``.

    ``scratch``, two C-ordered arrays shaped like ``values``, takes x - X_i
    and the kernel values in place of fresh arrays; the result is its second
    array, which may be the first.  When fewer than ``LIVE_SITE_SHARE`` of the sites lie within
    ``_reach`` of x, the kernel runs at those sites alone and every other
    site gets the exact 0.0 the kernel gives it, so the bits are those of
    the evaluation at every site.  A NaN difference counts as in reach.
    """
    u, out = np.empty((2,) + np.shape(values)) if scratch is None else scratch
    np.subtract(x, values, out=u)
    dead = _out_of_reach(kernel, u, b)
    if dead.size - np.count_nonzero(dead) >= LIVE_SITE_SHARE[kernel.name] * dead.size:
        u /= b
        return kernel(u, out=out)
    sites = np.flatnonzero(np.logical_not(dead, out=dead))
    near = u.take(sites)
    near /= b
    out.fill(0.0)
    out.reshape(-1)[sites] = kernel(near)
    return out


def _kernel_sum(kernel, x, values, b, axis=None, scratch=None):
    """sum_i K((x - X_i)/b) over the array ``values``, or over its ``axis``, at one scalar ``x``."""
    return _kernel_values(kernel, x, values, b, scratch).sum(axis=axis)


def _windowed_sums(kernel, xs, data, b):
    """sum_i K((x - X_i)/b) at each of the points ``xs`` over the values of ``data``, from the sites in reach.

    The values are copied once, in C order, and the copy is sorted in place;
    each x evaluates the kernel only on the sorted sites within ``_reach``
    of it, with the subtract-then-divide of ``_kernel_values``, and sums
    that window in sorted order.  Every other site's term is the kernel's
    exact 0.0, so the sum is within rounding of ``_kernel_sum``'s, and does
    not depend on the order of ``data``.
    """
    ordered = np.array(data, dtype=float, order="C").ravel()
    ordered.sort()
    reach = _reach(kernel, b)
    lo = np.searchsorted(ordered, xs - reach, side="left")
    hi = np.searchsorted(ordered, xs + reach, side="right")
    sums = np.empty(xs.size)
    for j, xi in enumerate(xs):
        u = xi - ordered[lo[j]:hi[j]]
        u /= b
        sums[j] = kernel(u).sum()
    # a NaN datum sorts last and lies in no window, and a NaN x has an empty
    # one, but either makes the full sum NaN
    sums[np.isnan(xs) | np.isnan(ordered[-1])] = np.nan
    return sums


def kde_estimate(values, x, b: float, kernel: KernelModel):
    """Kernel density estimate (1/(N b)) * sum_i K((x - X_i)/b).

    ``values`` is any array of field values; ``x`` may be scalar or array.
    The kernel sums are ``_windowed_sums``: one sort, then at each x the
    kernel on the sites within its reach only, summed in sorted order.
    Memory stays at one sorted copy of the N values and one window's terms
    however many points are asked for.  The estimate has the same bits under
    any permutation of the values.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    count = np.size(values)
    if count == 0:
        raise ValueError("field must be nonempty")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = _windowed_sums(kernel, xs, values, b) / count / b
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
    with np.errstate(over="ignore"):  # the density is 0 where x^2 overflows
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

    Gaussian innovations: centered normals.  Other laws: phi of X and of X_m
    on the nodes ``t`` with weights ``w``, within ``error_bound`` of the true
    densities; ``sup_gap`` is then the bound (1/pi) int |phi_X - phi_(X_m)|.
    """

    m: int
    variance: float
    truncated_variance: float
    sup_marginal: float = 0.0
    sup_truncated: float = 0.0
    sup_gap: float = 0.0
    density_regularity: str = ""
    error_bound: float = 0.0
    t: np.ndarray | None = None
    w: np.ndarray | None = None
    phi: np.ndarray | None = None
    phi_m: np.ndarray | None = None
    half_period: float = math.inf

    def invert(self, x, f):
        """sum_j w_j f_j cos(t_j x) for scalar or array ``x``, clipped at 0; 0 from half the period on."""
        xs = np.asarray(x, dtype=float)
        wf = self.w * f
        out = np.array([max(np.dot(np.cos(self.t * xi), wf), 0.0) if abs(xi) < self.half_period else 0.0
                        for xi in xs.ravel()])
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def p(self, x):
        return _normal_pdf(x, self.variance) if self.phi is None else self.invert(x, self.phi)

    def p_m(self, x):
        return _normal_pdf(x, self.truncated_variance) if self.phi is None else self.invert(x, self.phi_m)

    def summary(self) -> dict:
        names = ("m", "variance", "truncated_variance", "sup_marginal", "sup_truncated", "sup_gap",
                 "density_regularity", "error_bound")
        return {name: getattr(self, name) for name in names}


def _innovation_cf(innovations: InnovationModel, s):
    """phi_eps(s) for s >= 0, the characteristic function of one unit-variance innovation."""
    if innovations.name == "gaussian":
        return np.exp(-0.5 * s * s)
    if innovations.name == "uniform":
        return np.sinc(UNIFORM_HALF_WIDTH * s / math.pi)
    return _bessel_form(0.5 * innovations.nu, math.sqrt(innovations.nu - 2.0) * s)


def _scipy_special():
    """scipy.special, imported on first use: the inversion oracle's kv, gamma and spherical_jn.

    A fractional-order Bessel K, and spherical_jn below 1, have no short port
    with scipy's bits; Gaussian runs never reach them and never load scipy.
    """
    import scipy.special

    return scipy.special


def _bessel_form(mu: float, z):
    """psi_mu(z) = z^mu K_mu(z) / (Gamma(mu) 2^(mu-1)), phi of the unit-variance t(2 mu) at z/sqrt(2 mu - 2).

    K_mu overflows at large orders, so the order climbs from k in (1, 2] by the
    positive sum psi_(k+1) = psi_k + z^2 psi_(k-1) / (4 k (k-1)).  Below z = 1e-8,
    psi_k is 1 - z^2/(4 (k-1)); psi_(k-1) enters only times z^2 and is taken as 1.
    """
    k = mu - math.ceil(mu - 2.0)
    sp = _scipy_special()

    def low(order, near_zero):
        with np.errstate(invalid="ignore", over="ignore"):
            return np.where(z > 1e-8, z**order * sp.kv(order, z) / (sp.gamma(order) * 2.0 ** (order - 1.0)), near_zero)

    prev, cur = low(k - 1.0, 1.0), low(k, 1.0 - z * z / (4.0 * (k - 1.0)))
    for step in range(math.ceil(mu - 2.0)):
        prev, cur = cur, cur + z * z * prev / (4.0 * (k + step) * (k + step - 1.0))
    return cur


def _envelope_tail(innovations: InnovationModel, weights: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Upper bound on int_T^inf |prod_k phi_eps(a_k t)| dt at each T, from ``weights`` |a_k| in descending order.

    Uniform: |sinc x| <= 1/|x| on the J largest weights, minimised over J >= 2.  Student t and
    Gaussian: the largest weight alone, with int_Z^inf z^mu K_mu(z) dz <= Z^mu K_(mu+1)(Z) for t.
    """
    a = weights[0]
    if innovations.name == "uniform":
        logs = np.cumsum(np.log(UNIFORM_HALF_WIDTH * weights))[1:, np.newaxis]
        J = np.arange(2, weights.size + 1)[:, np.newaxis]
        return np.exp(np.min(-logs - (J - 1) * np.log(T) - np.log(J - 1), axis=0))
    if innovations.name == "gaussian":
        return math.sqrt(0.5 * math.pi) / a * erfc(a * T / math.sqrt(2.0))
    mu, c = 0.5 * innovations.nu, math.sqrt(innovations.nu - 2.0) * a
    return 2.0 * mu * _bessel_form(mu + 1.0, c * T) / (c * c * T)  # Z^mu K_(mu+1)(Z) / (Gamma(mu) 2^(mu-1) c)


def _box_cf(innovations: InnovationModel, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """prod_k phi_eps(a_k t), one factor per distinct weight raised to its count."""
    out = np.ones_like(t)
    for a, count in zip(*np.unique(weights, return_counts=True)):
        out *= _innovation_cf(innovations, a * t) ** count
    return out


def _inverted(oracle: DensityOracle, model: CoefficientModel, innovations: InnovationModel) -> DensityOracle:
    """``oracle`` with its densities from Fourier inversion, for any innovation law.

    phi_(X_m) is exact; phi_X is exact on [0, L)^d and exp(-B_L^2 t^2/2) off
    it.  The trapezoid nodes t_j = j h give the density periodised with
    period 2 pi/h = 4 R.  ``error_bound`` adds bounds on the tail
    replacement, on the integral beyond the last node and on the aliasing;
    README, "Density oracles", gives L, R, the nodes and each bound.

    An oracle whose m is None has X as its truncation, and L grows from 1.
    Raises ``ParameterError`` on ``innovations.name`` for uniform innovations
    with fewer than two nonzero weights in [0, m)^d, or in [0, L)^d when m is
    None: that density has jumps and its phi is not integrable.
    """
    v, sd = oracle.variance, math.sqrt(oracle.variance)
    L = oracle.m or 1
    while residual_sqrt_mass(model, L) ** 2 > 1e-13 * v and (2 * L) ** model.d <= 1 << 16:
        L *= 2

    def nonzero(a):  # the nonzero |a_k| of a box, in descending order
        return np.sort(np.abs(a[a != 0.0]))[::-1]

    box = nonzero(coeff_box(model, L))
    box_m = box if oracle.m is None else nonzero(coeff_box(model, oracle.m))
    if innovations.name == "uniform" and box_m.size < 2:
        where = "" if oracle.m is None else " in [0, m)^d"
        raise ParameterError("innovations.name", f"uniform innovations need two nonzero weights{where}: with one, "
                             "that density has jumps and its characteristic function is not integrable")
    tail = residual_sqrt_mass(model, L) ** 2
    radius = 128.0 * sd
    if innovations.name == "uniform" and UNIFORM_HALF_WIDTH * box.sum() + 8.0 * sd < radius:
        radius, aliasing = UNIFORM_HALF_WIDTH * box.sum() + 8.0 * sd, 0.0
    elif innovations.kurtosis is None:
        aliasing = 1.052 * 2.0 * v / radius**3  # 1.052 >= (1 - 2^-3) zeta(3)
    else:  # 1.0046 >= (1 - 2^-5) zeta(5); sum a^4 over the tail is at most B_L^4
        aliasing = 1.0046 * (12.0 * v * v + max(innovations.kurtosis - 3.0, 0.0) * (np.sum(box**4) + tail**2)) / radius**5
    h = 0.5 * math.pi / radius
    grid = h * 2.0 ** (np.arange(8 * 19 + 1) / 8.0)

    def cutoff(weights):
        envelope = _envelope_tail(innovations, weights[:128], grid)
        k = min(int(np.sum(envelope > 1e-15)), grid.size - 1)  # the envelope falls with T
        return math.ceil(grid[k] / h - 1e-9) + 1, float(envelope[k]) / math.pi

    size_box, truncation = cutoff(box)
    size, truncation_m = (size_box, truncation) if oracle.m is None else cutoff(box_m)
    t = h * np.arange(size)
    w = np.full(size, h / math.pi)
    w[0] *= 0.5
    phi_box = np.zeros(size)
    phi_box[:size_box] = _box_cf(innovations, box, t[:size_box])
    replacement = tail * float(np.dot(w, t * t * np.abs(phi_box)))
    phi = phi_box * np.exp(-0.5 * tail * t * t)
    out = replace(
        oracle, t=t, w=w, phi=phi, phi_m=phi if oracle.m is None else _box_cf(innovations, box_m, t),
        half_period=2.0 * radius, error_bound=max(replacement + truncation, truncation_m) + aliasing,
    )
    out.sup_marginal, out.sup_truncated = out.p(0.0), out.p_m(0.0)
    out.sup_gap = float(np.dot(w, np.abs(out.phi - out.phi_m)))
    return out


def density_oracle(model: CoefficientModel, innovations: InnovationModel, m: int | None) -> DensityOracle:
    """Density of X_0 and of its m-truncation, for any innovation law; m None builds X_0's alone, as its own truncation.

    Gaussian innovations: N(0, v) with v = sum a_k^2 and N(0, v_m) with v_m
    the mass of [0, m)^d, in closed form with ``error_bound`` 0.  Other laws:
    Fourier inversion (``_inverted``), whose sups are the values at 0.
    """
    if m is not None and m < 1:
        raise ValueError("m must be >= 1")
    v = total_sq_mass(model)
    v_m = v if m is None else box_mass(model, m)
    if v_m <= 0:
        raise ValueError("truncated field is degenerate (no mass in [0, m)^d)")
    regularity = "lipschitz-certified" if innovations.lipschitz_density else "not certified"
    if innovations.name != "gaussian":
        return _inverted(DensityOracle(m, v, v_m, density_regularity=regularity), model, innovations)
    peak, peak_m = (1.0 / math.sqrt(2.0 * math.pi * var) for var in (v, v_m))
    return DensityOracle(m, v, v_m, peak, peak_m, sup_abs_normal_diff(v_m, v), regularity)


# characteristic functions int K(v) e^(iuv) dv of the kernels at u >= 0; the
# Epanechnikov one, 3 (sin u - u cos u)/u^3, is 3 j_1(u)/u without the cancellation near 0
_KERNEL_CFS = {
    "epanechnikov": lambda u: np.where(u > 0.0, 3.0 * _scipy_special().spherical_jn(1, u) / np.maximum(u, 1e-300), 1.0),
    "gaussian": lambda u: np.exp(-0.5 * u * u),
    "triangular": lambda u: np.sinc(u / (2.0 * math.pi)) ** 2,
}


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
    """E f_n(x) = int K(u) p(x - b u) du, for scalar or array ``x``.

    p is the oracle's marginal, or its truncated one when ``truncated``.
    Gaussian innovations, p = N(0, v): the Gaussian kernel gives the
    N(0, v + b^2) density; for the compact kernels, with s = sqrt(v) and
    beta = b/s, it is (1/s) int K(u) phi(|x|/s - beta u) du, from the Phi/phi
    form for beta >= 1 and from the moment series for beta < 1; a beta whose
    powers leave the float range raises ``ParameterError`` on
    ``bandwidth.c2``.  Other laws: the oracle's inversion with the kernel's
    characteristic function at b t, within ``oracle.error_bound``.
    Independent of n.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    if oracle.phi is not None:
        return oracle.invert(x, (oracle.phi_m if truncated else oracle.phi) * _KERNEL_CFS[kernel.name](b * oracle.t))
    v = oracle.truncated_variance if truncated else oracle.variance
    xs = np.asarray(x, dtype=float)
    if kernel.name == "gaussian":
        out = _normal_pdf(xs, v + b * b)
    else:
        s = math.sqrt(v)
        form = _cdf_form if b >= s else _moment_series
        try:
            with np.errstate(over="ignore"):  # phi is 0 where z^2 overflows
                out = form(kernel.name, np.abs(xs) / s, b / s) / s
        except OverflowError:  # a power of b / s in _cdf_form
            raise ParameterError("bandwidth.c2", f"the bandwidth b = {b:g} spans {b / s:g} standard deviations of "
                                 "the field, too many for the centering E f_n(x) in floats") from None
    return float(out) if xs.ndim == 0 else out
