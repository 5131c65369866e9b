"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes, as other tenants come and go; identical
jobs were measured at 0.5 s and 0.9 s a few seconds apart.  The drift hits
a fixed piece of reference work about as hard as it hits a job, so each job
is bracketed by two runs of `calibrate()` and its time rescaled to what it
would have been had the reference work taken REFERENCE_S:

    normalized = wall * REFERENCE_S / mean(calibration before, calibration after)

The reference work mixes what logsphere jobs spend their time on: Python
bytecode, many small numpy calls, and elementwise passes over arrays larger
than a core's L2 cache.  It never touches logsphere, so a change to the
program cannot move it.  REFERENCE_S is a fixed constant, not a
measurement; it is close to what the reference work took on the 2-core
x86 machine where the benchmark was written, so normalized seconds read
close to wall seconds there.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.05


class Calibrator:
    """Holds the reference work's inputs, made once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20200318)
        self._small = rng.standard_normal((64, 64))
        self._mid = rng.standard_normal((256, 2048))

    def calibrate(self) -> float:
        """Wall seconds taken by the fixed reference work."""
        start = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(30000):
            table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
        v = self._small
        for _ in range(750):
            v = np.tanh(self._small @ v * 0.01) + self._small[0]
        for _ in range(4):
            x = np.sqrt(np.maximum(self._mid * self._mid, 1e-300)) ** -1.5
            x.sum()
        return time.perf_counter() - start
