"""Adaptive Simpson quadrature for smooth 1-d integrands.

The tests' numerical reference: closed forms in the package, such as the
exact centering E f_n(x), are checked against it.  The default absolute
tolerance is tight (1e-10).
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["adaptive_simpson"]


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Recursive interval halving with Richardson extrapolation of the two
    Simpson estimates; each half inherits half the tolerance budget.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = _simpson(flo, flm, fmid, mid - lo)
        right = _simpson(fmid, frm, fhi, hi - mid)
        err = (left + right - whole) / 15.0
        if depth >= max_depth or abs(err) <= eps:
            return left + right + err
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth + 1
        )

    fa_ = f(a)
    fb_ = f(b)
    m = 0.5 * (a + b)
    fm_ = f(m)
    whole = _simpson(fa_, fm_, fb_, b - a)
    return recurse(a, b, fa_, fm_, fb_, whole, tol, 0)
