"""Host-speed reference that the end-to-end timings are scaled by.

On a shared 2-vCPU host the vCPUs run 15-50% faster or slower in phases
that last minutes, and every process on them slows together (see
README.md).  A 30 s run cannot average that out.  So before and after
every sample the runner times ``reference()``, a fixed pure-Python loop
that neither imports nor calls the program, and reports each timing
scaled by ``REFERENCE_S / trimmed_mean(reference times)``: its value at
the host speed at which the loop takes ``REFERENCE_S``.  A phase that slows the
loop and the program alike cancels out; a change to the program moves
the scaled timing as much as the raw one.  Stdlib only.
"""

from __future__ import annotations

import statistics
import time

#: Nominal time of ``reference()``; sets the scale of the reported timings.
REFERENCE_S = 0.06

#: Share of the values cut from each end by ``trimmed_mean``.
TRIM = 0.1


def reference() -> float:
    """Time one fixed pass of interpreter arithmetic and dict stores (about 0.06 s)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    acc = 0.0
    table = {}
    for i in range(300_000):
        x = i * 0.5
        acc += x * x - acc * 1e-9
        table[i & 1023] = acc
    return time.clock_gettime(time.CLOCK_MONOTONIC) - start


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` share.

    Per-sample times on the host scatter by 10-20% either way, so the mean
    of the middle values estimates a run's level more steadily than the
    median, while the cut ends keep a rare stalled sample out.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut : len(ordered) - cut])
