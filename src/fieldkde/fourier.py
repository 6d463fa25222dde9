"""Real FFTs on numpy's pocketfft, with the bits of scipy.fft.

numpy >= 2.0 runs the C++ pocketfft that scipy.fft runs.  The forward
transform repeats scipy's order of axes: the real transform on the last
axis, then the complex ones from the first axis on.  scipy's inverse scales
by 1/N in its last pass, one multiply per output; numpy's inverse with
``norm="forward"`` leaves the scaling out, and the same multiply follows it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.fft import fft, ifft, irfft, rfft

__all__ = ["next_fast_len", "rfftn", "irfftn"]


def next_fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target, the sizes real transforms are fastest at."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((target - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def rfftn(x: np.ndarray, shape, out=None, stage=None) -> np.ndarray:
    """Real FFT over the last len(shape) axes of ``x``, zero-padded to ``shape``.

    One complex buffer, ``out`` when given, takes the last axis's transform
    and then the other axes' in place, which faults in fewer fresh pages
    than a new array per axis.  Only its padding is zeroed: the last axis's
    transform writes the rest.  ``stage``, a real array with ``x``'s leading
    sides and a last axis of at least shape[-1], first takes ``x`` with its
    last axis zero-padded there, so pocketfft transforms rows that already
    have their length and pads none; the bits are the same.
    """
    k = len(shape)
    if out is None:
        out = np.empty(x.shape[:-k] + tuple(shape[:-1]) + (shape[-1] // 2 + 1,), dtype=complex)
    if stage is not None:
        stage = stage[tuple(map(slice, x.shape[:-1])) + (slice(shape[-1]),)]
        stage[..., : x.shape[-1]] = x
        stage[..., x.shape[-1]:] = 0.0
        x = stage
    for j, side in enumerate(x.shape[-k:-1]):
        out[(..., slice(side, None)) + (slice(None),) * (k - 1 - j)] = 0.0
    rfft(x, shape[-1], -1, out=out[(...,) + tuple(map(slice, x.shape[-k:-1])) + (slice(None),)])
    for axis, n in enumerate(shape[:-1], -k):
        fft(out, n, axis, out=out)
    return out


def irfftn(spectrum: np.ndarray, shape, out=None, keep=None) -> np.ndarray:
    """Inverse of ``rfftn`` with real output ``shape``, into ``out`` when given; overwrites ``spectrum``.

    ``keep``, one slice per axis but the last, limits the output to those
    indices: each axis is transformed back only on the rows the axes before
    it keep, and the last axis's transform and the scaling run only on the
    kept rows.  The rest of ``out`` is left as it was.
    """
    k = len(shape)
    keep = (slice(None),) * (k - 1) if keep is None else tuple(keep)
    for j, n in enumerate(shape[:-1]):
        part = spectrum[(...,) + keep[:j] + (slice(None),) * (k - j)]
        ifft(part, n, j - k, norm="forward", out=part)
    if out is None:
        out = np.empty(spectrum.shape[:-k] + tuple(shape))
    rows = (...,) + keep + (slice(None),)
    part = irfft(spectrum[rows], shape[-1], -1, norm="forward", out=out[rows])
    np.multiply(part, 1.0 / math.prod(shape), out=part)
    return out
