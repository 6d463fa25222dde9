"""Monte Carlo estimate of the Wu constant C_p = E|X_0|^(2p) / (sum_k a_k^2)^p.

The tests' statistical reference for the closed forms of
``wu_inequality_check``.  X_0 is truncated to the least coefficient box of
side s whose p=1 bias B_s^2 / sum a^2 is at most a tenth of the Gaussian p=1
standard error sqrt(2/sample) (a finite table stops at its support side).
The sample is drawn in blocks of min(max(1, 2^19 // (8 s^d)), sample) rows,
block b from the key (master, 400, b), and the blocks' sums are added in
block order.
"""

from __future__ import annotations

import math

import numpy as np

from fieldkde import Seeds
from fieldkde.coefficients import coeff_box, residual_sqrt_mass, total_sq_mass
from fieldkde.innovations import draw_lattice

__all__ = ["wu_reference", "wu_side"]

STREAM = 400


def wu_side(model, sample: int) -> int:
    """The least box side whose p=1 bias is within a tenth of sqrt(2/sample), or the support side."""
    total, support, side = total_sq_mass(model), model.support_side(), 1
    while not ((support is not None and side >= support)
               or residual_sqrt_mass(model, side) ** 2 / total <= 0.1 * math.sqrt(2.0 / sample)):
        side += 1
    return side


def wu_reference(model, innovations, orders, sample: int, master_seed: int) -> list:
    """Per order p of ``orders``: {"p", "c_hat", "se", "side"} from one sample of ``sample`` draws of X_0."""
    if sample < 2:
        raise ValueError("sample must be >= 2")
    total, side = total_sq_mass(model), wu_side(model, sample)
    a = coeff_box(model, side).ravel()
    rows = min(max(1, (1 << 19) // (8 * a.size)), sample)
    sums = {q: [0.0, 0.0] for q in orders}  # per order: sum |X|^(2p), sum |X|^(4p)
    for block, done in enumerate(range(0, sample, rows)):
        eps = draw_lattice(innovations, Seeds(master_seed, STREAM, [block])[0], (min(rows, sample - done), a.size))
        abs_x = np.abs((eps * a).sum(axis=1))
        for q, acc in sums.items():
            y = abs_x ** (2 * q)
            acc[0] += float(y.sum())
            acc[1] += float((y**2).sum())
    out = []
    for q, (sum_y, sum_y2) in sums.items():
        mean_y = sum_y / sample
        var_y = max(sum_y2 / sample - mean_y**2, 0.0)
        out.append({"p": q, "c_hat": mean_y / total**q, "se": math.sqrt(var_y / sample) / total**q, "side": side})
    return out
