"""The block and rectangle reductions as they were before they reused their buffers.

The tests' reference for ``clt.block_decomposition_check``,
``clt.lindeberg_estimate``, ``clt._block_windows`` and
``clt._rectangle_sums``: each builds its centred copies, pair stacks,
kernel arrays and zero-fronted prefix sums afresh, and the correlation is
``np.corrcoef``'s.  The package's versions must give the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from fieldkde.kde import _kernel_values, asymptotic_variance, density_oracle

__all__ = ["block_decomposition_check", "lindeberg_estimate", "padded_prefix", "rectangle_sums"]


def padded_prefix(arr: np.ndarray) -> np.ndarray:
    """Prefix sums with a zero layer in front of every axis but the first (replicate) axis, in a fresh array."""
    out = np.zeros(arr.shape[:1] + tuple(s + 1 for s in arr.shape[1:]))
    interior = out[(slice(None),) + (slice(1, None),) * (arr.ndim - 1)]
    np.cumsum(arr, axis=1, out=interior)
    for ax in range(2, arr.ndim):
        np.cumsum(interior, axis=ax, out=interior)
    return out


def block_decomposition_check(config, samples) -> dict:
    d = config.model.d
    rows = []
    for point, totals, etas in samples:
        n, m, l, q = point.n, point.m, point.l, point.q
        e_site = math.sqrt(point.b) * point.centering[1][0]
        center_full = (n**d) * e_site
        center_block = (l**d) * e_site
        eta_c = etas - center_block
        s_full = totals - center_full
        s_eta = eta_c.reshape(eta_c.shape[0], -1).sum(axis=1)
        delta = (s_full - s_eta) / float(n) ** (d / 2.0)
        pairs = []
        for ax in range(d):
            lead = [slice(None)] * (d + 1)
            lag = [slice(None)] * (d + 1)
            lead[ax + 1] = slice(0, -1)
            lag[ax + 1] = slice(1, None)
            if eta_c.shape[ax + 1] > 1:
                pairs.append(np.stack([eta_c[tuple(lead)].ravel(), eta_c[tuple(lag)].ravel()]))
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
        r["adjacent_corr"] is None or abs(r["adjacent_corr"]) <= r["corr_threshold"] for r in rows
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


def lindeberg_estimate(config, samples, eps) -> dict:
    eps_list = [float(e) for e in np.atleast_1d(eps)]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps must be positive")
    d = config.model.d
    last = samples[-1][0]
    oracle = density_oracle(config.model, config.innovations, last.m)
    target = asymptotic_variance(float(oracle.p(last.xs[0])), config.kernel)
    rows = []
    for point, _, etas in samples:
        n, l = point.n, point.l
        e_site = math.sqrt(point.b) * point.centering[1][0]
        xi = (etas - (l**d) * e_site).ravel()
        lf1 = float(np.mean(xi**2)) / l**d
        lf2 = {}
        for e in eps_list:
            thr = float(n) ** (d / 2.0) * e
            lf2[e] = float(np.mean(xi**2 * (np.abs(xi) > thr))) / l**d
        rows.append({"n": n, "m": point.m, "l": l, "block_samples": xi.size, "lf1": lf1, "lf2": lf2})
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


def rectangle_sums(x, x_m, scratch, kernel, b, point, rects):
    zeta_raw = _kernel_values(kernel, point, x_m, b, scratch)
    zeta_raw /= math.sqrt(b)
    diff_raw = _kernel_values(kernel, point, x, b) / math.sqrt(b) - zeta_raw
    pz = padded_prefix(zeta_raw)
    pd_ = padded_prefix(diff_raw)
    zsums = np.stack([pz[(slice(None),) + j] for j in rects], axis=1)
    dsums = np.stack([pd_[(slice(None),) + j] for j in rects], axis=1)
    axes = tuple(range(1, diff_raw.ndim))
    return zsums, dsums, np.sum(diff_raw, axis=axes), np.sum(diff_raw**2, axis=axes)
