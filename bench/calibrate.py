"""Reference kernel that calibrates wall times against machine speed.

On a shared machine the speed of a core drifts by a third within a minute,
so raw wall times of identical work spread wider than the regression
bounds (README.md gives the raw and calibrated spreads). The benchmark
therefore times a burst of a fixed reference kernel before and after
every window of ops, between ops and never inside one, and scales
the window's times by ``NOMINAL_S`` over the mean of the two bursts.
Identical work then reads about the same however fast the machine runs at
the moment. The kernel is the mix the program's ops are made of: small
numpy factorizations and float arithmetic driven from Python. It uses
numpy only, never corrsets, so a change to the program cannot move it.
Raw times are recorded next to calibrated ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Median time of one ``Reference.call`` on the shared 2-core x86-64 machine
#: (Python 3.11, numpy 2.4, OpenBLAS, one thread) where the bounds were set.
#: Calibrated times are expressed at that speed.
NOMINAL_S = 6.0e-4

BURST_S = 0.025
BURST_SHARE = 0.1


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20260417)
        self._square = rng.standard_normal((16, 3, 3))
        self._rect = rng.standard_normal((16, 4, 3))

    def call(self) -> float:
        acc = 0.0
        for x, a in zip(self._square, self._rect):
            acc += float(np.linalg.svd(x, compute_uv=False)[0])
            acc += float(np.linalg.pinv(a)[0, 0])
            acc += float(np.linalg.det(a.T @ a))
            acc += sum(float(v) for v in (x @ x.T).ravel())
        return acc

    def burst(self, seconds: float = BURST_S) -> float:
        """Median time of one call over a burst of about ``seconds``."""
        times = []
        t_end = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            self.call()
            t1 = perf_counter()
            times.append(t1 - t0)
            if t1 >= t_end and len(times) >= 5:
                return statistics.median(times)


def burst_after(window_s: float) -> float:
    """Length of the burst after a window of ``window_s`` seconds: a long
    window gets a long burst, so the speed is averaged over more of the
    time around it."""
    return max(BURST_S, BURST_SHARE * window_s)


def scale(before: float, after: float) -> float:
    """Factor from raw to calibrated time for work timed between two bursts."""
    return 2.0 * NOMINAL_S / (before + after)
