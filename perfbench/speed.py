"""Machine-speed calibration for timings on a shared host.

On a host whose cores are shared, the speed of a CPU-bound Python
process drifts by up to a factor of two within seconds.  Every timed
sample is therefore paired with the duration of a fixed piece of
interpreter-bound reference work (allocation, hashing, dict lookups
and pointer chasing, as in the engine), run just before the sample.
A sample is scaled by REFERENCE_S / (median reference duration over
its neighbouring samples), which expresses it at the speed of a CPU
that runs the reference work in REFERENCE_S.  The reference work never touches
prolite, so a change to prolite moves the scaled figures exactly as
much as the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.001     # reference-work duration the figures are scaled to
WINDOW = 10             # neighbours on each side in the median


def reference_work():
    """Build a chain of small records indexed by tuple keys, then walk it
    through dict lookups: allocation, hashing and pointer chasing over a
    working set larger than the first-level cache."""
    table = {}
    prev = None
    for i in range(1700):
        record = [i, prev, ("k", i % 211)]
        table[record[2]] = record
        prev = record
    total = 0
    node = prev
    while node is not None:
        total += table[node[2]][0]
        node = node[1]
    return total


def calibrate():
    """Seconds one run of the reference work takes now."""
    started = perf_counter()
    reference_work()
    return perf_counter() - started


def scale_factors(references):
    """Per-sample factor REFERENCE_S / median of the reference
    durations within WINDOW samples on either side."""
    factors = []
    for i in range(len(references)):
        window = references[max(0, i - WINDOW):i + WINDOW + 1]
        factors.append(REFERENCE_S / statistics.median(window))
    return factors


def reference_median(runs=5):
    """Median reference duration over a few back-to-back runs."""
    return statistics.median(calibrate() for _ in range(runs))
