"""Host-speed probe: a fixed pure-Python loop, timed between units.

On a shared host the CPU speed a Python process gets drifts by up to
~1.8x over seconds to minutes as co-tenants come and go (measured on a
2-vCPU Xeon VM at 2.1 GHz), and interpreter-bound work scales with it.
Timing this loop right before and after a unit of work estimates the
speed the unit ran at; :func:`normalize` rescales the unit's time to
what it would take at the speed this loop measured
:data:`REFERENCE_PROBE_S` at.  The loop lives here, not in ``repro``, so
a change to the program never changes the yardstick.

The loop allocates no containers, so it neither triggers nor waits on
the cyclic garbage collector whatever the workload's heap holds.
"""

from __future__ import annotations

import time

#: A typical probe time on the VM the benchmark was tuned on, so that
#: normalized times read close to the raw seconds seen there.
REFERENCE_PROBE_S = 0.0141

_ITERATIONS = 48000
_TABLE = [0] * 1024
_COUNTS = dict.fromkeys(range(1024), 0)


def probe() -> float:
    """Host seconds one run of the fixed loop takes right now."""
    table, counts = _TABLE, _COUNTS
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        k = (i * 7919) & 1023
        table[k] = (table[k] + i) & 0xFFFF
        counts[k] = counts.get(k, 0) ^ i
    return time.perf_counter() - start


def normalize(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, rescaled to
    the speed at which it takes :data:`REFERENCE_PROBE_S`."""
    return seconds * REFERENCE_PROBE_S / probe_s
