"""Host-speed factor from short fixed loops, for reporting pass times at a reference speed.

The shared 2-vCPU host this benchmark was defined on switches between a fast
and a slow state, about 1.35x apart, that last from seconds to minutes; CPU
time slows with wall time, so it is the CPU's speed that changes. Raw median
pass times of ten runs a few minutes apart then spread by up to 33%. A probe
times two loops that do not touch fieldkde, a pure-Python loop and a NumPy
FFT/exp loop, right after each timed pass, on the CPUs the pass ran on, and
returns how much slower they ran than in the fast state. Dividing a run's
median pass time by the median factor of its probes reports it in fast-state
seconds; on kde_curve this cut the spread of ten-run wall times from 0.33 to
0.07.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# loop times in the fast state of the host the benchmark was defined on
# (2 vCPUs, 4 MiB L2 per core, 105 MiB L3; Python 3.11, NumPy 2.4)
REFERENCE_PY_S = 0.090
REFERENCE_NP_S = 0.055
_PY_ITERATIONS = 800_000
_NP_ITERATIONS = 300
_NP_SIDE = 128


class HostSpeed:
    """Collects probe factors over one run; 1.0 means the fast state."""

    def __init__(self):
        self._lattice = np.random.default_rng(0).standard_normal((_NP_SIDE, _NP_SIDE))
        self.samples: list = []

    def probe(self, threads: int) -> float:
        """Slowdown of the CPUs a pass with ``threads`` workers runs on.

        One thread: the loops run unpinned, on the CPU the pass just used. More
        threads: a pass slows when any of its CPUs does, so the loops run
        pinned to each of the first ``threads`` allowed CPUs and the mean is
        taken; the affinity is restored so pool workers inherit it.
        """
        if threads == 1:
            factor = self._loops()
        else:
            allowed = os.sched_getaffinity(0)
            factors = []
            try:
                for cpu in sorted(allowed)[:threads]:
                    os.sched_setaffinity(0, {cpu})
                    factors.append(self._loops())
            finally:
                os.sched_setaffinity(0, allowed)
            factor = sum(factors) / len(factors)
        self.samples.append(factor)
        return factor

    def _loops(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(_PY_ITERATIONS):
            acc += i * 0.5
        py = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(_NP_ITERATIONS):
            np.exp(np.fft.irfft2(np.fft.rfft2(self._lattice), s=self._lattice.shape))
        npy = time.perf_counter() - start
        return math.sqrt((py / REFERENCE_PY_S) * (npy / REFERENCE_NP_S))
