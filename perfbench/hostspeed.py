"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine whose speed moves in phases
of minutes: the same call can take 160 ms in one phase and 370 ms in the
next, in user CPU time as much as in wall time.  ``HostProbe.measure`` times a
fixed piece of work of the three kinds the program does (FFTs on a working
set beyond the L2 cache, memory-bound element-wise numpy, and interpreted
Python) in the benchmark process itself, on the thread that makes the calls,
right before each timed call.  The benchmark divides each call's time by the
probe's and reports it at ``REFERENCE_MS``, so a slower phase of the host
slows both and cancels out, while a change to the program moves only the
call.

The probe uses neither BLAS nor anything of the program, so neither the
program's code nor its BLAS thread policy can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.fft

#: Probe time (geometric mean of its three parts, ms) that the normalised
#: metrics are expressed at; roughly the probe's time on a 2-vCPU Xeon guest.
REFERENCE_MS = 10.0


class HostProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20_190_601)
        self._fields = rng.random((4, 256, 256)) + 1j * rng.random((4, 256, 256))
        self._stream = rng.random(1_500_000)
        self._out = np.empty_like(self._stream)

    def _fft(self) -> None:
        scipy.fft.ifft2(scipy.fft.fft2(self._fields, axes=(-2, -1)), axes=(-2, -1))

    def _elementwise(self) -> None:
        for _ in range(3):
            np.multiply(self._stream, 1.0001, out=self._out)
            np.add(self._out, self._stream, out=self._out)

    @staticmethod
    def _interpreted() -> None:
        total = 0
        for i in range(150_000):
            total += i

    def measure(self) -> float:
        """Geometric mean of the three parts' times, in ms."""
        log_sum = 0.0
        for part in (self._fft, self._elementwise, self._interpreted):
            t0 = time.perf_counter()
            part()
            log_sum += math.log(1e3 * (time.perf_counter() - t0))
        return math.exp(log_sum / 3)
