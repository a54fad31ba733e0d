"""Machine-speed calibration of the timed phase.

On a shared virtual machine the same code runs up to twice as slow for
minutes at a time, when other tenants load the physical cores behind its
virtual CPUs.  Process CPU time slows with wall time, so neither clock can
tell a slow program from a slow machine, and runs minutes apart disagree
by far more than the bounds a regression check needs.

The benchmark therefore runs a fixed calibration kernel -- benchmark code,
not library code, so a change to the library does not move it -- between
groups of operations, and reports each operation's latency at reference
speed:

    latency at reference speed = measured latency * REFERENCE_S / kernel time

where the kernel time is the mean of the kernel runs just before and just
after the operation's group.  The kernel mixes the kinds of work the
library does (a pure-Python parse loop, numpy calls on small slices in a
Python loop, and numpy calls on 20k-element arrays), so contention slows
it about as much as the operations beside it.  ``REFERENCE_S`` is a fixed
2.5 ms, about the kernel's median time on a shared 2-vCPU 2.1 GHz Xeon VM
(Python 3.11.7, numpy 2.4.6; 1.5 ms when that machine is quiet), so the
reported figures read as milliseconds on a machine of that speed.  The raw
wall-clock figures and the kernel times are recorded beside the result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0025
GROUP_S = 0.1          # least operation time between two kernel runs

_rng = np.random.default_rng(20220615)
_INTS = _rng.integers(0, 1_000_000, 20_000)
_KNOTS = np.sort(_rng.integers(0, 1_000_000, 2_000)).astype(np.float64)
_TEXT = [f"[{a},{a + b})" for a, b in zip(_rng.integers(0, 10**6, 1_500).tolist(),
                                          _rng.integers(1, 10**4, 1_500).tolist())]


def kernel() -> float:
    """The fixed calibration work; returns a checksum so nothing is skipped."""
    total = 0
    for text in _TEXT:                          # pure Python, like parsing a column file
        lo, _, hi = text[1:-1].partition(",")
        total += int(hi) - int(lo)
    for k in range(60):                         # small numpy calls, like the estimator
        part = _KNOTS[k * 30:(k + 1) * 30]
        total += float(np.interp(part, _KNOTS, _KNOTS).sum())
    ranks = np.searchsorted(_KNOTS, np.sort(_INTS))    # large arrays, like the oracle
    return total + float(np.cumsum(np.diff(ranks)).sum())


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Calibration:
    """Kernel times taken between groups of timed operations.

    ``start`` times the kernel once before the first operation; ``after``
    is called after each operation and times the kernel again once the
    group has lasted ``GROUP_S``; ``close`` ends the last group.  Each
    operation's scale factor is then ``REFERENCE_S`` over the mean of the
    kernel times that bracket its group.
    """

    def __init__(self, group_s: float = GROUP_S):
        self.group_s = group_s
        self.kernel_s: list[float] = []
        self.group_of: list[int] = []     # operation -> index of the kernel run before it
        self._busy = 0.0

    def start(self) -> None:
        time_kernel()                     # warm-up: caches and lazy imports
        self.kernel_s.append(time_kernel())

    def after(self, latency: float) -> None:
        self.group_of.append(len(self.kernel_s) - 1)
        self._busy += latency
        if self._busy >= self.group_s:
            self.kernel_s.append(time_kernel())
            self._busy = 0.0

    def close(self) -> None:
        if self._busy > 0.0 or len(self.kernel_s) == 1:
            self.kernel_s.append(time_kernel())
            self._busy = 0.0

    def factors(self) -> list[float]:
        """REFERENCE_S / kernel time, one per operation."""
        bracket = [REFERENCE_S / ((a + b) / 2) for a, b in zip(self.kernel_s, self.kernel_s[1:])]
        return [bracket[g] for g in self.group_of]

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
