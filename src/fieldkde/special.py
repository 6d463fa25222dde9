"""The normal CDF and the Hurwitz zeta function (for q <= 1e8), bit for bit as scipy.special gives them.

scipy.special computes ``ndtr``, ``erfc`` and ``zeta`` with the cephes
algorithms; importing scipy costs every process about a third of a second,
so these ports repeat cephes' operations in its order.  exp and pow come
from libm through ``math``: numpy's SIMD exp differs from libm in the last
bit on some hosts.  The rational forms are evaluated on whole arrays, as
IEEE products and sums give the same bits in any order of elements.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "erfc", "zeta"]

SQRT1_2 = math.sqrt(0.5)
MAXLOG = 7.09782712893383996843e2
MACHEP = 1.11022302462515654042e-16

# erfc(x) = exp(-x^2) P(x)/Q(x) on [1, 8) and R(x)/S(x) beyond; erf(x) = x T(x^2)/U(x^2) below 1;
# coefficients from the highest power down
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# Euler-Maclaurin divisors (2k)!/B_2k of the Hurwitz zeta tail
_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
      -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
      1.8152105401943546773e17, -7.1661652561756670113e18)


def _polevl(x, coef):
    """Horner's rule, as cephes' polevl."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _erf_small(x):
    """erf(x) for |x| < 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def erfc(a):
    """Complementary error function, cephes ``erfc``."""
    a = np.asarray(a, dtype=float)
    x = np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        z = -a * a
        live = (x >= 1.0) & (z >= -MAXLOG)  # below -MAXLOG, exp(z) underflows and erfc is 0 or 2
        e = np.zeros_like(a)
        e[live] = np.fromiter(map(math.exp, z[live]), float, int(np.count_nonzero(live)))
        y = np.where(x < 8.0, e * _polevl(x, _P) / _polevl(x, _Q), e * _polevl(x, _R) / _polevl(x, _S))
        y = np.where(live, y, 0.0)
        y = np.where(np.isnan(a), a, np.where(a < 0, 2.0 - y, y))
        return np.where(x < 1.0, 1.0 - _erf_small(a), y)[()]


def ndtr(a):
    """Standard normal CDF, cephes ``ndtr``: erf near 0, erfc of |x| beyond sqrt(1/2)."""
    x = np.asarray(a, dtype=float) * SQRT1_2
    z = np.abs(x)
    tail = 0.5 * erfc(z)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(z < SQRT1_2, 0.5 + 0.5 * _erf_small(x), np.where(x > 0, 1.0 - tail, tail))[()]


def _hurwitz(x: float, q: float) -> float:
    """zeta(x, q) by Euler-Maclaurin summation, cephes ``zeta`` for x > 1 and 0 < q <= 1e8, the same sum beyond."""
    s, a, i, b = math.pow(q, -x), q, 0, 0.0
    if s == 0.0:  # q^(-x) underflows, and so does every later term
        return s
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for div in _A:
        a *= x + k
        b /= w
        t = a * b / div
        s = s + t
        if abs(t / s) < MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def zeta(x, q: float) -> np.ndarray:
    """Hurwitz zeta sum_{k>=0} (k + q)^(-x) at each x > 1 of the sequence ``x``, for q > 0.

    Beyond q = 1e8, where cephes switches to an asymptotic form, scipy's last bit may differ.
    """
    return np.array([_hurwitz(float(v), float(q)) for v in x])
