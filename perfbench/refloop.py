"""Fixed reference workload that calibrates every host timing sample.

The benchmark's host timings are divided by the time of this loop, run
right next to each sample, so a host that is slow or busy for a while
slows both and the ratio stays put.  The loop imports nothing from the
program under test and never changes: it is the yardstick, not the
thing measured.  It mixes the two kinds of host work the simulator does
— interpreter dict/int bookkeeping and NumPy elementwise array code —
in about the proportion the batch workloads do, and takes about 10 ms.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: one pass of interpreter work and one of array work, each a few ms
_DICT_ITERS = 5000
_ARRAY_LEN = 4096
_ARRAY_ITERS = 75
#: passes per reference sample; the sample is their median
_PASSES = 3


def _one_pass() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(_DICT_ITERS):
        key = (i * 40503) & 511
        table[key] = table.get(key, 0) + (i ^ acc)
        acc = (acc + table[key]) & 0xFFFFFF
    a = np.arange(_ARRAY_LEN, dtype=np.int32)
    b = a[::-1].copy()
    for _ in range(_ARRAY_ITERS):
        a = np.maximum(a, b) - (b >> 1)
        b = np.where(a > b, a, b + 1)
    return acc + int(a[0])


def reference_seconds() -> float:
    """Median wall time of one pass of the reference loop, in seconds.

    The garbage collector is off while it runs, so the size of the
    program's heap does not leak into the yardstick.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_PASSES):
            start = time.perf_counter()
            _one_pass()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]
