"""Host speed probe: a fixed piece of work that does not use eicomb.

On a shared 2-vCPU VM (Intel Xeon, no PMU in the guest) the same code runs
up to about 1.45x slower for stretches of seconds to minutes, as other
guests load the host.  CPU time slows with wall time, so timing with
``time.process_time`` does not help, and a stretch can cover a whole run.
The benchmark therefore times this probe next to its calls and scales each
call's time to the host speed at which one probe takes ``REF_S`` seconds:

    scaled = measured * REF_S / probe time

The probe mixes what eicomb's calls are made of (a Python float loop,
tuple allocation and sorting, and numpy calls on arrays of a few dozen
points), so it slows about as much as they do.  Because it does not touch
eicomb, a change to eicomb moves the call times and not the probe.
"""

from __future__ import annotations

import time

import numpy as np

# one probe on the host above in its fast state; any fixed value would do,
# this one keeps scaled times close to measured ones there
REF_S = 4e-3
REPEATS = 3


def _work() -> float:
    total, pairs = 0.0, []
    for i in range(6000):
        total += (i * 0.5) % 7
        if i % 10 == 0:
            pairs.append((total, i))
    pairs.sort()
    a = np.linspace(0.01, 0.5, 40)
    for _ in range(150):
        b = np.concatenate((np.sort(a * 0.5 + 0.1), a))
        total += float(b.sum())
        e = np.unique(np.round(b, 3))
        total += float(np.log2(e[e > 0]).sum())
    return total


def probe() -> float:
    """Seconds of the fastest of REPEATS probes run back to back."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best
