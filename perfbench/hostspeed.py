"""Host-speed calibration, independent of spindir.

The benchmark host's CPU speed drifts: phases a few seconds long, and
regimes up to minutes long, run 30 to 70 % slower than the fastest.  Raw
timings of one run therefore depend on when it ran.  Two small kernels of
fixed work are timed between the benchmark's operations.  An operation's
time multiplied by ``factor(kind, t)`` -- the kernel's reference time over
its median time in the samples nearest to ``t`` -- reads as seconds on the
reference host in its fast phase, and is steady across phases.  See
README.md, "Host-speed normalisation".

``scalar``: interpreter work and tiny numpy calls on 3-vectors, like the
per-trial frame decoders, imports and CLI code.
``vector``: numpy passes over (8192, 6) arrays, like the D3 batch path.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds on the reference host (2 vCPUs, Python 3.11.7, numpy
# 2.4.6) in its fast phase.
REFERENCE_S = {"scalar": 0.008, "vector": 0.0035}
NEAREST = 4
MIN_INTERVAL_S = 0.2

_ROWS = np.random.default_rng(12345).random((8192, 6))
_CUM = np.cumsum(np.full(6, 1.0 / 6.0))


def _scalar():
    total = 0.0
    v = np.array([0.3, -0.2, 0.9])
    w = np.array([0.1, 0.8, -0.4])
    for i in range(250):
        u = np.cross(v, w)
        total += float(np.dot(u, u)) + i * 1e-9
        v = (w + u * 1e-3) / float(np.linalg.norm(w + u * 1e-3))
    return total


def _vector():
    counts = np.zeros((8192, 6))
    rows = np.arange(8192)
    for k in range(6):
        outcome = (_ROWS[:, k, None] > _CUM).sum(axis=1)
        counts[rows, outcome] += 1.0
    top = counts.max(axis=1)
    return float(np.argmax(counts == top[:, None], axis=1).sum())


KERNELS = {"scalar": _scalar, "vector": _vector}


class HostSpeed:
    """Time-stamped kernel samples of one run."""

    def __init__(self):
        self.samples = {name: [] for name in KERNELS}  # (perf_counter mid, seconds)
        self._last = -float("inf")

    def sample(self, force: bool = False):
        """Time each kernel once, unless the last sample is recent."""
        if not force and time.perf_counter() - self._last < MIN_INTERVAL_S:
            return
        for name, fn in KERNELS.items():
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            self.samples[name].append((0.5 * (t0 + t1), t1 - t0))
        self._last = time.perf_counter()

    def median_s(self, kind: str) -> float:
        return statistics.median(s for _, s in self.samples[kind])

    def factor(self, kind: str, t: float) -> float:
        """Reference time over the median of the NEAREST samples to ``t``."""
        near = sorted(self.samples[kind], key=lambda s: abs(s[0] - t))[:NEAREST]
        return REFERENCE_S[kind] / statistics.median(s for _, s in near)
