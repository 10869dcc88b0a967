"""Timing scaled to a reference CPU speed.

The CPU speed of a shared machine drifts: on the two-vCPU VM where this
benchmark was defined it moves by +-25% over seconds to minutes with other
tenants' load.  So each timed call is bracketed by a short fixed CPU probe
that uses no tiresense code, and a call that took t seconds while the probe
took p seconds (mean of the run just before and the run just after) counts as
t * REFERENCE_PROBE_S / p: its time on a CPU that runs the probe in 10 ms.
A change to the package moves the scaled time as much as the raw one.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_PROBE_S = 0.010
_PROBE_ARRAY = np.random.default_rng(0).normal(size=(8, 1024))
_PROBE_TEXT = [repr(float(v)) for v in _PROBE_ARRAY.ravel()[:4000]]


def cpu_probe() -> float:
    """Seconds for a fixed mix of interpreter, numpy FFT and number-text work."""
    t0 = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i
    for _ in range(30):
        np.cumsum(np.fft.irfft(np.fft.rfft(_PROBE_ARRAY, axis=1), axis=1), axis=1)
    text = ",".join(format(float(v), ".12g") for v in _PROBE_TEXT)
    [float(v) for v in text.split(",")]
    return time.perf_counter() - t0


class Clock:
    """Times calls; when ``scaled``, in reference-speed seconds."""

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.probes: list[float] = []
        if scaled:
            cpu_probe()  # warm-up

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result and its seconds."""
        before = cpu_probe() if self.scaled else 0.0
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        if not self.scaled:
            return result, elapsed
        self.probes.append((before + cpu_probe()) / 2)
        return result, elapsed * REFERENCE_PROBE_S / self.probes[-1]
