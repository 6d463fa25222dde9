"""Shell-by-shell power moments for power-decay coefficients.

The tests' reference for the Hurwitz zeta moments in the package: the series
P_r = sum_{s >= start} s^r c^2 (1+s)^(-2q) is summed directly in blocks of
2^16 shells, up to 2^26 shells, until an integral bound certifies the
remainder below ``target``.  That certification fails when 2q - d is small.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shell_power_moments"]

_SHELL_BLOCK = 1 << 16
_MAX_SHELLS = 1 << 26


def shell_power_moments(model, start: int, target: float):
    """(P_0..P_{d-1}, remainder_bound), or RuntimeError when ``target`` is out of reach."""
    d, q2, c2 = model.d, 2.0 * model.q, model.scale**2
    sums = np.zeros(d)
    s0 = start
    while s0 - start < _MAX_SHELLS:
        s = np.arange(s0, s0 + _SHELL_BLOCK, dtype=float)
        w = c2 * (1.0 + s) ** (-q2)
        for r in range(d):
            sums[r] += float(np.sum(s**r * w))
        s0 += _SHELL_BLOCK
        # integral bound on sum_{s >= s0} s^r (1+s)^(-q2), worst at r = d-1
        rem = c2 * float(s0) ** (d - q2) / (q2 - d)
        if rem <= target:
            return sums, rem
    raise RuntimeError(
        f"shell series for q={model.q}, d={d} does not reach {target:g} within {_MAX_SHELLS} shells"
    )
