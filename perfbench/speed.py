"""The machine's speed, measured alongside the operations.

On a shared host the CPU time of one fixed piece of work drifts by a
third between minutes, because other guests contend for the same cores
and caches.  A fixed numpy kernel that shares no code with the package
runs just before every timed operation; an operation's time is scaled by
the kernel's nominal time over the kernel's median time around it.  The
scaled times read as on the reference machine at its nominal speed: a
change to the package moves them, a change of the host's load does not.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import clock

# CPU seconds of one kernel call at the reference speed: its median in a
# tight loop read 0.9-1.3 ms on a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4, one BLAS thread) as the host's load varied.
NOMINAL_S = 1.0e-3
HALF_WINDOW = 2  # an op's speed is the median of the 5 kernel calls around it
_SIZES = (8, 12, 16, 20)
_TWO_SUMS = 35  # about as long as the dense calls above


class Reference:
    """The two kinds of work the package does, on fixed matrices: small
    dense eigenvalue, QR, solve and product calls, and compensated
    (two-sum) elementwise arithmetic on a 48 x 48 array, as in
    ``char_poly``.  On the shared host neither kind alone tracks all three
    workloads' slow-downs as well as the two together."""

    def __init__(self):
        rng = np.random.default_rng(20131115)
        self.mats = [rng.standard_normal((n, n)) for n in _SIZES]
        self.x, self.y = rng.standard_normal((2, 48, 48))

    def __call__(self) -> float:
        """CPU seconds of one kernel call."""
        start = clock()
        for M in self.mats:
            np.linalg.eigvals(M)
            np.linalg.qr(M)
            np.linalg.solve(M, M[0])
            M @ M
        hi, lo = self.x, np.zeros_like(self.x)
        for _ in range(_TWO_SUMS):
            s = hi + self.y
            v = s - hi
            lo = lo + ((hi - (s - v)) + (self.y - v))
            hi = s
        return clock() - start

    def factor(self, calls: int = 15) -> float:
        """Nominal over measured speed, from ``calls`` calls now."""
        return NOMINAL_S / statistics.median(self() for _ in range(calls))


def scale(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` scaled by the nominal over the median of the kernel
    times within ``HALF_WINDOW`` of position i; both lists are in the
    order the calls ran."""
    out = []
    for i, t in enumerate(times):
        lo = max(0, min(i - HALF_WINDOW, len(refs) - 2 * HALF_WINDOW - 1))
        out.append(t * NOMINAL_S / statistics.median(refs[lo : lo + 2 * HALF_WINDOW + 1]))
    return out
