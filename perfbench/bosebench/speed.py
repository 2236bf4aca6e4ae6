"""Machine-speed probe: times a fixed kernel that does not use bosewit.

The machine the benchmark was written on (a 2-vCPU x86-64 VM) slows by up
to 1.7x, for seconds to minutes at a time, under load from outside it, with
no steal time visible to the guest. Raw timings of 24 s runs then spread
by 35-47% between runs. The probe kernel mixes what the program does
(a Python loop of lgamma arithmetic, small dense eigensolves, JSON
encoding) and slowed by the same factor as scans to within ~5% in
interleaved measurements, so each timing is scaled by
REFERENCE_S / (the mean of the kernel times just before and after it): a
time in seconds at the speed at which the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

# The kernel's time on the machine the benchmark was written on when that
# machine was unloaded (Intel Xeon, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_S = 1.6e-3
INTERVAL_S = 0.05  # re-time the kernel at most this often

_MATRIX = np.arange(41 * 41, dtype=float).reshape(41, 41) / 1e3
_MATRIX = _MATRIX + _MATRIX.T
_DOCUMENT = {str(i): [i, i * 0.5] for i in range(300)}


def kernel() -> float:
    acc = 0.0
    for k in range(3000):
        acc += math.lgamma(k + 1.5) * (k % 7)
    for _ in range(4):
        np.linalg.eigh(_MATRIX)
    json.dumps(_DOCUMENT)
    return acc


class SpeedProbe:
    """Kernel timings taken through a run; scales the wall times between them."""

    def __init__(self):
        self.kernel_s = []  # every kernel time taken
        self._last = -math.inf

    def refresh(self, force: bool = False) -> int:
        """Time the kernel if INTERVAL_S has passed (or if forced); returns
        the index of the latest timing."""
        if force or perf_counter() - self._last >= INTERVAL_S:
            start = perf_counter()
            kernel()
            self._last = perf_counter()
            self.kernel_s.append(self._last - start)
        return len(self.kernel_s) - 1

    def factor(self, index: int) -> float:
        """REFERENCE_S over the mean of the timings just before and just after
        the work that followed timing `index`."""
        after = self.kernel_s[min(index + 1, len(self.kernel_s) - 1)]
        return 2.0 * REFERENCE_S / (self.kernel_s[index] + after)
