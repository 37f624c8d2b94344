"""A fixed slice of pure-Python work that measures how fast the host runs
right now.

The benchmark shares its host with other tenants, whose load can change
the speed of identical work by a factor of two within minutes.  The
measuring process therefore times this slice between requests (about
every REFERENCE_EVERY_S seconds of request time) and scales each request's
latency by NOMINAL_S / (mean of the slices just before and after it).
The slice is the benchmark's own code: interpreted integer and list work,
`Fraction` arithmetic and string building, like the package's, with
fixed inputs, so that it does not change when the package does.
"""

from __future__ import annotations

import time
from fractions import Fraction

import oracle

NOMINAL_S = 0.03  # about the slice's duration on a quiet 2-vCPU Xeon host
REFERENCE_EVERY_S = 0.3
_WORD = ("abcdbacdcabddcba" * 16)[:240]


def work():
    total = 0
    for _ in range(6):
        total += oracle.rotation_sum("abcadbc", _WORD)[0][-1]
    mean = sum(Fraction(i, 7) * Fraction(3, i + 1) for i in range(2400))
    text = ",".join(str(i * i) for i in range(8000))
    return total, mean, len(text)


def timed() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Reference:
    """Reference slices interleaved with requests, and each request's
    scale factor from the slices that bracket it."""

    def __init__(self):
        self.slices = []
        self.owners = []  # per request: index of the slice just before it
        self.busy = 0.0

    def before(self):
        if not self.slices or self.busy >= REFERENCE_EVERY_S:
            self.close()
        self.owners.append(len(self.slices) - 1)

    def after(self, latency: float):
        self.busy += latency

    def close(self):
        self.slices.append(timed())
        self.busy = 0.0

    def scales(self) -> list:
        """NOMINAL_S / host-speed estimate for each request so far; call
        after `close()` so that every request has a slice after it."""
        s = self.slices
        return [2 * NOMINAL_S / (s[k] + s[k + 1]) for k in self.owners]
