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


def rfftn(x: np.ndarray, shape, out=None) -> np.ndarray:
    """Real FFT over the last len(shape) axes of ``x``, zero-padded to ``shape``.

    One complex buffer, ``out`` when given, takes the last axis's transform
    and then the other axes' in place, which faults in fewer fresh pages
    than a new array per axis.  Only its padding is zeroed: the last axis's
    transform writes the rest.
    """
    k = len(shape)
    if out is None:
        out = np.empty(x.shape[:-k] + tuple(shape[:-1]) + (shape[-1] // 2 + 1,), dtype=complex)
    for j, side in enumerate(x.shape[-k:-1]):
        out[(..., slice(side, None)) + (slice(None),) * (k - 1 - j)] = 0.0
    rfft(x, shape[-1], -1, out=out[(...,) + tuple(map(slice, x.shape[-k:-1])) + (slice(None),)])
    for axis, n in enumerate(shape[:-1], -k):
        fft(out, n, axis, out=out)
    return out


def irfftn(spectrum: np.ndarray, shape, out=None) -> np.ndarray:
    """Inverse of ``rfftn`` with real output ``shape``, into ``out`` when given; overwrites ``spectrum``."""
    for axis, n in enumerate(shape[:-1], -len(shape)):
        ifft(spectrum, n, axis, norm="forward", out=spectrum)
    out = irfft(spectrum, shape[-1], -1, norm="forward", out=out)
    out *= 1.0 / math.prod(shape)
    return out
