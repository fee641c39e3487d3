"""Machine-speed calibration and process measurements shared by the harness.

On a shared 2-core Xeon VM the machine runs in phases: for seconds to
minutes at a time the same FFT pair takes 1.7 ms, 2.9 ms or 4-6 ms.  A plain
wall time therefore swings by up to 2x between runs of identical code.  Every end-to-end
timing is instead reported in *reference seconds*: the raw wall time scaled
by how fast the benchmark's own FFT pair (scipy, one worker, never the
program's code) ran right before and right after it, relative to a fixed
reference machine.  See README.md for the measured effect.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.fft

#: The reference machine runs an FFT pair of length n (2 x 5 n log2 n flops)
#: at this rate.  Only the ratio to the measured pair time matters.
REFERENCE_FLOPS = 4.0e9


def reference_pair_s(n: int) -> float:
    """Seconds an inverse+forward FFT pair of length ``n`` takes on the reference machine."""
    return 2 * 5 * n * math.log2(n) / REFERENCE_FLOPS


class Calibrator:
    """Times the benchmark's own FFT pair at one length ``n``."""

    def __init__(self, n: int, min_s: float = 0.05, min_pairs: int = 3):
        self.n = n
        self.min_s = min_s
        self.min_pairs = min_pairs
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.samples: list[float] = []
        self.pair_s()  # the first burst of a process runs slow: discard it
        self.samples.clear()

    def pair_s(self) -> float:
        """Median time of one pair over a short burst; also kept in ``samples``."""
        times = []
        start = time.perf_counter()
        while len(times) < self.min_pairs or time.perf_counter() - start < self.min_s:
            t0 = time.perf_counter()
            scipy.fft.fft(scipy.fft.ifft(self._x))
            times.append(time.perf_counter() - t0)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def speed(self, before: float, after: float) -> float:
        """Factor turning a raw wall time measured between two bursts into reference seconds."""
        return reference_pair_s(self.n) / (0.5 * (before + after))


def peak_rss_mb() -> float:
    """Peak resident set size of this process image so far, in MiB.

    Read from ``VmHWM``, not ``ru_maxrss``: on Linux a child's ``ru_maxrss``
    starts at its parent's RSS at fork time, which would hide a small child's
    own peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")
