"""The benchmark's clock: wall time divided by a calibration kernel.

On the shared 2-core box this benchmark must repeat on, the same code
runs anywhere from 1.0x to 1.45x slower from one minute to the next
(measured: the 22 TPC-H queries, same inputs, 11.5 s to 16.8 s), with
CPU time inflating in step and ``steal`` near zero.  A raw wall-clock
median therefore cannot gate a 5 % regression.  Every timed call here
is bracketed by a fixed pure-Python kernel that does the same kind of
work as the engine (character loop, ``float()``, dict counting, a
comprehension); the call's *calibrated* time is

    t_call * C_REF / min(kernel_before, kernel_after)

i.e. seconds on a reference machine on which the kernel takes ``C_REF``.
The kernel's own noise is one-sided (it only ever gets slower), which is
why the smaller neighbour is used.  Callers then take the minimum of the
calibrated time over several passes.
"""

from __future__ import annotations

import time
from typing import Callable

#: Kernel seconds on the reference machine; a constant of the benchmark,
#: never re-measured, so calibrated seconds stay comparable across runs.
C_REF = 0.011

_KERNEL_TEXT = "1592.25,17,N,O,1996-03-13,DELIVER IN PERSON,0.04,TRUCK\n" * 1500


def calibration_kernel() -> float:
    """Run the fixed kernel once; returns its elapsed seconds."""
    start = time.perf_counter()
    fields: list[str] = []
    current: list[str] = []
    for ch in _KERNEL_TEXT:
        if ch == "," or ch == "\n":
            fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    counts: dict[str, int] = {}
    total = 0.0
    for field in fields:
        counts[field] = counts.get(field, 0) + 1
        try:
            total += float(field)
        except ValueError:
            pass
    widths = [len(field) for field in fields if field]
    if not (total and widths and counts):
        raise AssertionError("calibration kernel produced nothing")
    return time.perf_counter() - start


class CalibratedClock:
    """Times calls between kernel runs, sharing each kernel sample.

    The kernel sample taken after one call is the sample before the
    next, so a sequence of n calls costs n + 1 kernel runs.
    """

    def __init__(self):
        self._last_kernel = calibration_kernel()

    def measure(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``fn()``; returns (result, raw seconds, calibrated seconds).

        The result must already be materialized by ``fn`` — nothing lazy
        may escape the timed region.
        """
        before = self._last_kernel
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = calibration_kernel()
        self._last_kernel = after
        return result, raw, raw * C_REF / min(before, after)

    def resync(self) -> None:
        """Take a fresh kernel sample after untimed work (gc, checks)."""
        self._last_kernel = calibration_kernel()
