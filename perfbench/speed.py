"""The machine's current speed, from a fixed reference workload.

On a shared machine the same work can take twice as long from one minute to
the next.  The benchmark therefore times this reference workload, which
uses only the standard library and never the engine, right before and
after each timed request, and reports the request's time rescaled to the
speed at which the reference takes REFERENCE_S seconds:

    normalised = wall time * REFERENCE_S / reference time

The reference does what the engine spends its time on, ``Fraction``
arithmetic and dict updates on tuple keys, so it slows down in step with
the engine: on the 2-core machine the baseline was taken on, engine work
varied by a factor of two while its ratio to the reference kept an
interquartile spread of 6%.  A change to the engine does not change the
reference, so its effect on a normalised time is its effect on wall time.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.025


def reference_work() -> dict:
    acc: dict = {}
    for i in range(3000):
        a = Fraction(i % 17 + 1, i % 13 + 2)
        b = Fraction(i % 5 + 1, 7)
        key = (i % 50, i % 7)
        acc[key] = acc.get(key, 0) + a * b - a / b
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def normalised(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s
