"""The machine's current speed, from a fixed reference computation.

On a shared VM the speed of the whole machine drifts by up to a quarter in
phases of seconds to minutes, and a whole run can fall inside one phase.
Timing this fixed piece of work (Python bytecode plus small numpy array
operations, like the program's own mix, and independent of the program)
around the measured spans lets a run scale its times to the speed at
which the reference takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The median sample on the 2-core VM where the 388d103 numbers were measured.
REFERENCE_S = 0.27


def sample() -> float:
    """Seconds the reference computation takes now."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(270000):
        acc += i * i % 7
        table[i & 1023] = acc
    a = np.arange(400.0)
    for _ in range(4000):
        a = np.sort(a[::-1])
        a.std()
        (a[:, None] <= a[None, :50]).sum()
    return perf_counter() - start


def scale(seconds: float, samples: list) -> float:
    """``seconds`` at the reference speed, from samples taken around them."""
    return seconds * REFERENCE_S / statistics.median(samples)
