"""Machine-speed probe that puts timings on one reference scale.

The 2-vCPU virtual machine the recorded figures come from shares its
host with other tenants. Its speed drifts by up to 2x, within seconds as
well as over minutes, for plain Python as well as for numpy. Every timing
is therefore reported in reference seconds: the measured seconds of one
interval times REFERENCE_S over the mean of the probes taken just before
and just after that interval. That removes the part of the drift that
slows all work alike; contention that slows only the engine's kind of
work stays in the figures. The probe does a fixed amount of interpreter
and numpy work, allocates little (so it does not set the resident-set
peak of the process it runs in) and never touches stackstream, so a
change to the engine moves the timings and leaves the probe alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a typical probe time on the recording machine; it only sets the scale
REFERENCE_S = 0.012
# probes per probe point; their median is the point's value
PROBE_REPEATS = 3

_PLANES = np.random.default_rng(0).integers(0, 256, size=(27, 64, 128), dtype=np.uint8)


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    np.partition(_PLANES, 13, axis=0)
    np.pad(_PLANES[0].astype(np.float64), 2, mode="edge")
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds taken by the fixed probe work, about two thirds of it interpreter."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Clock:
    """Times consecutive intervals, each between two probes."""

    def __init__(self):
        self.last = probe()

    def restart(self):
        """Take a fresh probe after untimed work, before the next interval."""
        self.last = probe()

    def time(self, fn, *args, **kwargs):
        """Call fn; return (its result, measured seconds, reference seconds)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        before, self.last = self.last, probe()
        return out, dt, dt * 2 * REFERENCE_S / (before + self.last)
